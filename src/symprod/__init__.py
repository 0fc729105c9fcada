"""Unordered real and complex tuples: metric, sorted selection, loop holonomy.

The quotient of R^n (or C^n) by coordinate permutations carries the
matching distance: the cheapest 1-norm pairing of components.  For real
tuples, sorting picks a representative in each class, and that choice
moves exactly as far as the classes are apart.  For complex tuples no
such choice exists; tracking components around a loop can come back
permuted, and :mod:`symprod.monodromy` measures that permutation.

Importing the package loads no submodule.  Attributes resolve on first use
(PEP 562): a submodule name imports that submodule alone, and any other
public name, or ``__all__``, loads the library modules once and binds their
exported names here.
"""

import importlib

__version__ = "0.1.0"

_LIBRARY = ("core", "diagonal", "errors", "fieldfile", "lemmas", "metric", "monodromy",
            "selection")
_SUBMODULES = (*_LIBRARY, "cli")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    namespace = globals()
    if "__all__" not in namespace and (name == "__all__" or not name.startswith("_")):
        exported = []
        for module_name in _LIBRARY:
            module = importlib.import_module(f".{module_name}", __name__)
            namespace.update((item, getattr(module, item)) for item in module.__all__)
            exported += module.__all__
        namespace["__all__"] = [*exported, "__version__"]
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES})
