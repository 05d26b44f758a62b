"""Interpretable knowledge tracing toolkit.

Extracts skill mastery, ability-profile and problem-difficulty features
from student interaction logs and predicts next-problem correctness with
a tree-augmented naive Bayes classifier.

Submodules load on first use: ``import ikt`` imports none of them, and
``ikt.tan`` (like ``import ikt.tan``) imports only what ``tan`` needs,
so a process pays start-up only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({"ability", "bkt", "dataset", "difficulty", "evaluation", "tan"})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
