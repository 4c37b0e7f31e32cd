"""Analysis of finitely presented infinite graphs (omega-pattern graphs).

Core entry points:

* ``pattern.validate``: build a PatternGraph from parsed JSON.
* ``components.delete``: exact symbolic components of G - X.
* ``separations``: tame separations, induced orientations, tangle checks.
* ``gamma``: the component compactifications and their inverse system.
* ``classify``: tough / end-tough trichotomy.
* ``oracle`` + ``pattern.truncate``: brute-force cross-checking.
"""

from . import classify, components, dot, fixture_graphs, gamma, ids, oracle, pattern, separations

__all__ = [
    "classify",
    "components",
    "dot",
    "fixture_graphs",
    "gamma",
    "ids",
    "oracle",
    "pattern",
    "separations",
]

__version__ = "0.1.0"
