"""Exceptional collections of line bundles on centrally symmetric toric Fanos.

The package builds the even-dimensional varieties V_n from their fans,
assembles the symmetric collection of line bundles on them, and verifies
exceptionality, stability, and generation with exact integer arithmetic.
The names below are the ones the README and the demos use; everything
else is imported from its module. `toric_exc.reference` holds other fans
and the general algorithms the tests check the closed forms against.
"""

from .cohomology import cohomology, euler_pairing
from .collection import (
    apply_mutation,
    build_Gn,
    expected_size,
    verify_exceptional,
    verify_stability,
)
from .cones import certify_acyclic, enumerate_forbidden, forbidden_witness
from .fan import build_Vn
from .picard import canonical_class, divisor, make_F, parse_F
from .windows import build_certificate, default_gauge, verify_walls, wall_record, weight

__all__ = [
    "apply_mutation",
    "build_Gn",
    "build_Vn",
    "build_certificate",
    "canonical_class",
    "certify_acyclic",
    "cohomology",
    "default_gauge",
    "divisor",
    "enumerate_forbidden",
    "euler_pairing",
    "expected_size",
    "forbidden_witness",
    "make_F",
    "parse_F",
    "verify_exceptional",
    "verify_stability",
    "verify_walls",
    "wall_record",
    "weight",
]
