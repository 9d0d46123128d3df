"""Built-in benchmark systems used by the CLI and the test suite.

Each is its ``config.BUILTIN_PROBLEMS`` entry instantiated at one eps, so
the coefficients are defined in one place.
"""

from __future__ import annotations

from .config import BUILTIN_PROBLEMS
from .system import ReactionDiffusionSystem


def example1(eps: float) -> ReactionDiffusionSystem:
    """Two-component constant-coefficient system with layers at both ends.

    -eps y1'' + 4 y1 - 2 y2 = 1,  -eps y2'' - y1 + 3 y2 = 2, zero BCs.
    Reduced solution (0.7, 0.9).
    """
    return BUILTIN_PROBLEMS["example1"].build_system(eps)


def example2(eps: float) -> ReactionDiffusionSystem:
    """Three-component system with the linear forcing (0, 1, x), zero BCs.

    Reduced solution (0.2x + 0.2, 0.2x + 0.45, 0.4x + 0.15).
    """
    return BUILTIN_PROBLEMS["example2"].build_system(eps)
