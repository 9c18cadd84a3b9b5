"""Value semantics of the result and value classes on the command path.

Each class is equal to an equal copy and to nothing of another class, a
bare tuple of its fields included; it hashes as the tuple of its fields,
so sets and dicts keyed by it keep their order; it is read-only; and its
repr is the text pinned here.
"""

import pytest

from toric_exc.cohomology import GradedCohomology
from toric_exc.collection import Block, PairResult, Report, StabilityReport
from toric_exc.cones import ForbiddenConeSpec
from toric_exc.fan import Fan, OddDimension
from toric_exc.picard import DivisorClass, make_F
from toric_exc.windows import Certificate, SizeRecord, WallCheck, WallPiece, WallRecord

F = make_F(2, 1, (0,))
F_REPR = "DivisorClass(coeffs=(-1, 0, 1, 1))"
PAIR = PairResult(0, 1, "exceptional", False, "h^1 = 1")
PAIR_REPR = "PairResult(source=0, target=1, relation='exceptional', ok=False, detail='h^1 = 1')"
PIECE = WallPiece(-1, 1, "low", (F,))
PIECE_REPR = f"WallPiece(a=-1, w=1, branch='low', components=({F_REPR},))"
RECORD = WallRecord(frozenset({0}), (-2, 0), (-2, -1), (PIECE,))
RECORD_REPR = (f"WallRecord(J=frozenset({{0}}), window=(-2, 0), wall_range=(-2, -1), "
               f"pieces=({PIECE_REPR},))")
SIZE_PIECES = ((-1, 1, "high", ((1, 2, 1), (1, 3, 1))),)
SIZE = SizeRecord(1, 3, (-1, 0), (-1, -1), SIZE_PIECES)
SIZE_REPR = ("SizeRecord(size=1, walls=3, window=(-1, 0), wall_range=(-1, -1), "
             "pieces=((-1, 1, 'high', ((1, 2, 1), (1, 3, 1))),))")

CASES = [
    (GradedCohomology, ((1, 0, 2),), "GradedCohomology(ranks=(1, 0, 2))"),
    (Block, (1, (F,)), f"Block(ell=1, members=({F_REPR},))"),
    (PairResult, (0, 1, "exceptional", False, "h^1 = 1"), PAIR_REPR),
    (Report, (2, "oracle", 6, 6, 30, (PAIR,), None, True),
     "Report(n=2, method='oracle', size=6, expected=6, pairs_checked=30, "
     f"violations=({PAIR_REPR},), pair_results=None, sampled=True)"),
    (StabilityReport, (2, False, ("block 0 moved",)),
     "StabilityReport(n=2, ok=False, failures=('block 0 moved',))"),
    (ForbiddenConeSpec, (frozenset({0, 3}), (0, 1, 0)),
     "ForbiddenConeSpec(rays=frozenset({0, 3}), profile=(0, 1, 0))"),
    (Fan, (4,), "Fan(rank=4)"),
    (DivisorClass, ((0, 1, -1, 2),), "DivisorClass(coeffs=(0, 1, -1, 2))"),
    (WallPiece, (-1, 1, "low", (F,)), PIECE_REPR),
    (WallRecord, (frozenset({0}), (-2, 0), (-2, -1), (PIECE,)), RECORD_REPR),
    (SizeRecord, (1, 3, (-1, 0), (-1, -1), SIZE_PIECES), SIZE_REPR),
    (Certificate, (2, 1, (SIZE,), "empty"),
     f"Certificate(n=2, d=1, sizes=({SIZE_REPR},), base_case='empty')"),
    (WallCheck, (4, 35, 5, 30),
     "WallCheck(n=4, circuit_count=35, pair_count=5, sign_choice_count=30)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_value_semantics(cls, fields, text):
    value, copy = cls(*fields), cls(*fields)
    assert value is not copy
    assert value == copy and not value != copy
    assert hash(value) == hash(copy) == hash(fields)
    assert value != fields and fields != value
    assert value != object()
    assert repr(value) == text
    assert {value: 1}[copy] == 1


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_fields_are_read_only(cls, fields, text):
    value = cls(*fields)
    name = text[len(cls.__name__) + 1:].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(value, name, fields[0])
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == text


def test_unequal_values_differ():
    assert DivisorClass((0, 1, -1, 2)) != DivisorClass((0, 1, -1, 3))
    assert Fan(4) != Fan(6)
    assert PAIR != PairResult(0, 2, "exceptional", False, "h^1 = 1")
    assert WallCheck(4, 35, 5, 30) != WallCheck(4, 35, 5, 31)


def test_defaults_and_keywords():
    assert Report(2, "oracle", 6, 6, 30, ()) == Report(
        n=2, method="oracle", size=6, expected=6, pairs_checked=30, violations=(),
        pair_results=None, sampled=False)
    assert Certificate(2, 1, ()) == Certificate(n=2, d=1, sizes=(), base_case="empty")
    assert DivisorClass(coeffs=(0, 0, 0)) == DivisorClass((0, 0, 0))
    assert Fan(rank=2) == Fan(2)


def test_construction_checks():
    with pytest.raises(ValueError, match="2 coordinates; a class needs at least 3"):
        DivisorClass((0, 1))
    with pytest.raises(ValueError, match="non-integer coordinates"):
        DivisorClass((0, 1, 0.5))
    with pytest.raises(OddDimension):
        Fan(3)
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        Fan(0)
