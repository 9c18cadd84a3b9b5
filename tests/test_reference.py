"""The reference layer, and what the production path refuses or never loads."""

import os
import pathlib
import subprocess
import sys

import pytest

from toric_exc import reference
from toric_exc.cohomology import cohomology, euler_pairing
from toric_exc.cones import (
    certify_acyclic,
    certify_higher_acyclic,
    enumerate_forbidden,
    forbidden_witness,
    in_forbidden_cone,
)
from toric_exc.fan import build_Vn, primitive_collections
from toric_exc.picard import DivisorClass, divisor

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def hexagon_clone():
    fan = build_Vn(2)
    return reference.GenericFan(fan.rank, fan.rays, fan.max_cones)


@pytest.mark.parametrize("call", [
    lambda fan: cohomology(fan, (0,) * 6),
    lambda fan: euler_pairing(fan, divisor(0, [0] * 3), divisor(1, [0] * 3)),
    lambda fan: enumerate_forbidden(fan),
    lambda fan: in_forbidden_cone(fan, enumerate_forbidden(build_Vn(2))[0], (0,) * 6),
    lambda fan: forbidden_witness(fan, (0,) * 6),
    lambda fan: certify_acyclic(fan, (0,) * 6),
    lambda fan: certify_higher_acyclic(fan, (0,) * 6),
    lambda fan: primitive_collections(fan),
], ids=["cohomology", "euler-pairing", "enumerate", "membership", "witness",
        "certify", "certify-higher", "primitive-collections"])
def test_production_refuses_other_fans(call):
    with pytest.raises(ValueError, match="centrally symmetric.*toric_exc.reference"):
        call(hexagon_clone())


def test_cones_are_listed_only_when_read():
    fan = build_Vn(30)
    assert cohomology(fan, DivisorClass((0,) * 32)).ranks == (1,) + (0,) * 30
    assert "max_cones" not in vars(fan)
    assert len(build_Vn(4).max_cones) == 30


# -- input checks that python -O must not strip --------------------------------


@pytest.mark.parametrize("imports, call", [
    ("from toric_exc.linalg import determinant", "determinant([[1, 0], [0, 1, 5]])"),
    ("from toric_exc.linalg import determinant", "determinant([[1, 2], [3]])"),
    ("from toric_exc.polyhedra import polyhedron", "polyhedron(2, [((1, 0, 0), 1)])"),
    ("from toric_exc.polyhedra import polyhedron",
     "polyhedron(2, [((1, 0), 1)]).contains((0, 0, 0))"),
    ("from toric_exc.reference import GenericFan, cohomology",
     "cohomology(GenericFan(1, ((1,),) * 17, ()), (0,) * 17)"),
    ("from toric_exc.reference import GenericFan, enumerate_forbidden",
     "enumerate_forbidden(GenericFan(1, ((1,),) * 13, ()))"),
    ("from toric_exc.reference import GenericFan, enumerate_forbidden",
     "enumerate_forbidden(GenericFan(1, ((1,),) * 13, ()), False)"),
    ("from toric_exc.reference import GenericFan, primitive_collections",
     "primitive_collections(GenericFan(1, ((1,),) * 17, ()))"),
], ids=["determinant-long-row", "determinant-short-row", "polyhedron-row",
        "contains-point", "engine-ray-count", "unions-ray-count", "subsets-ray-count",
        "primitive-ray-count"])
def test_input_checks_survive_optimize(imports, call):
    code = (f"import sys\n{imports}\ntry:\n    {call}\n"
            "except ValueError:\n    print('ValueError', sys.flags.optimize)\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError 1\n"
