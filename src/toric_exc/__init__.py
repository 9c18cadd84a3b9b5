"""Exceptional collections of line bundles on centrally symmetric toric Fanos.

The package builds the even-dimensional varieties V_n from their fans,
assembles the symmetric collection of line bundles on them, and verifies
exceptionality, stability, and generation with exact integer arithmetic.
The names below are the ones the README and the demos use; everything
else is imported from its module. `toric_exc.reference` holds other fans
and the general algorithms the tests check the closed forms against.

Importing the package loads no submodule: each name loads its module on
first use (`_EXPORTS`), so a command or a script compiles only the
modules it runs.
"""

import sys
from importlib import import_module
from types import ModuleType

# exported name -> the module that defines it
_EXPORTS = {
    "apply_mutation": "collection",
    "build_Gn": "collection",
    "build_Vn": "fan",
    "build_certificate": "windows",
    "canonical_class": "picard",
    "certify_acyclic": "cones",
    "cohomology": "cohomology",
    "default_gauge": "windows",
    "divisor": "picard",
    "enumerate_forbidden": "cones",
    "euler_pairing": "cohomology",
    "expected_size": "collection",
    "forbidden_witness": "cones",
    "make_F": "picard",
    "parse_F": "picard",
    "verify_exceptional": "collection",
    "verify_stability": "collection",
    "verify_walls": "windows",
    "wall_record": "windows",
    "weight": "windows",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The package, on which a submodule is not bound over an exported name.

    Loading a submodule binds it on its package, so the first load of
    `toric_exc.cohomology` would otherwise hide the function `cohomology`.
    """

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
