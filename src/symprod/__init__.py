"""Unordered real and complex tuples: metric, sorted selection, loop holonomy.

The quotient of R^n (or C^n) by coordinate permutations carries the
matching distance: the cheapest 1-norm pairing of components.  For real
tuples, sorting picks a representative in each class, and that choice
moves exactly as far as the classes are apart.  For complex tuples no
such choice exists; tracking components around a loop can come back
permuted, and :mod:`symprod.monodromy` measures that permutation.
"""

from . import core, diagonal, errors, fieldfile, lemmas, metric, monodromy, selection
from .core import *  # noqa: F403
from .diagonal import *  # noqa: F403
from .errors import *  # noqa: F403
from .fieldfile import *  # noqa: F403
from .lemmas import *  # noqa: F403
from .metric import *  # noqa: F403
from .monodromy import *  # noqa: F403
from .selection import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (core, diagonal, errors, fieldfile, lemmas, metric, monodromy, selection)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
