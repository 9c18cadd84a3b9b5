"""Window bounds and wall-crossing certificates for the collections.

The variety is a torus quotient of an affine space with one coordinate
per ray, so each divisor class is a character and each subset J of slot
labels gives a one-parameter subgroup. Its pairing with a class (h, d)
is (1 - |J|) h - sum_{j in J} d_j, which evaluates on F_{c,L} to
|L inter J| - c.

For each wall J with |J| <= n/2 there is an integer weight window of
width |J^c| in which every member of the collection must sit. Crossing
the wall at weight a removes a projective-space stratum, and the
restriction of the witness twist to that stratum is resolved by a Koszul
complex whose 2^{|J|} terms all lie in the collection again. Chaining
the walls from large J down to the empty set empties the category, so a
clean pass certifies that the collection generates.

`verify_generation` decides this one wall size at a time. As J runs
over the walls of one size, the weight of a member F_{c,L} runs over a
range that depends only on c and |L|, so one check per cell replaces
the members x walls loop. The Koszul terms of a wall are read off their
shapes (c, |K|), which depend only on the wall's size (`_wall_shape`), and
a term F_{c,K} is a member at every wall of that size exactly when the
members with twist c and |J| = |K| hold every |K|-subset, over all
blocks: no term is made. When a size fails, its walls are walked in
order against the members whose shape leaves the window and against
their Koszul terms, read as label sets, which names the first failure
of a walk over every wall and member. `build_certificate` takes its
verdict from `verify_generation` and lists one record per wall size,
read off the same shapes, which `certificate` prints; `wall_record`
spells out a single wall, terms included.

The wall subgroups are read off the circuits of the fan: every circuit
is an antipodal pair or picks one ray per slot, and then its relation is
the weight pattern of the subgroup indexed by its plus-side slots.
`verify_walls` checks this once per slot class of ray sets, with the
class multiplicities. The classes that hold circuits and their relations
are closed forms (`_circuit_classes`, `fan.circuit_relation`), which the
tests compare with the generic search `fan.circuits` and elimination.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .collection import Collection, _F, _gaps, _rank, _subsets, build_Gn
from .fan import Fan, build_Vn, circuit_relation
from .picard import DivisorClass, class_of_ray, label_set, make_F, require_dimension
from .record import Record


class JTooLarge(Exception):
    """The subgroup is not destabilizing: walls need |J| <= n/2."""


class WindowViolation(Exception):
    """A member's weight escapes the window of some wall."""


class KoszulEscape(Exception):
    """A Koszul component falls outside the collection."""


class WallMismatch(Exception):
    """A circuit relation disagrees with the subgroup weight pattern."""


def default_gauge(n: int) -> int:
    """The window offset d used throughout, ceil((n + 2) / 4)."""
    return math.ceil((n + 2) / 4)


def weight_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Classes of all rays as columns, minus-block first, then plus-block.

    The matrix has n + 2 rows and 2n + 2 columns and is surjective over
    the integers, which is what makes classes characters of the torus.
    """
    half = n + 1
    columns = [class_of_ray(n, half + i).coeffs for i in range(half)]
    columns += [class_of_ray(n, i).coeffs for i in range(half)]
    return tuple(tuple(col[r] for col in columns) for r in range(n + 2))


def weight(n: int, J, divisor: DivisorClass) -> int:
    """Pairing of the subgroup indexed by J with the divisor class.

    A label outside 0..n or given twice, or a class of another dimension,
    raises ValueError.
    """
    J = label_set(n, J)
    require_dimension(n, divisor)
    return (1 - len(J)) * divisor.h - sum(divisor.d[j] for j in J)


def koszul_components(J, twist: DivisorClass) -> tuple[DivisorClass, ...]:
    """The 2^|J| Koszul terms twist - sum_{i in L} E_i, L inside J.

    A label outside 0..n, for the twist's dimension n, or one given twice,
    raises ValueError.
    """
    J = label_set(twist.n, J)
    out = []
    for size in range(len(J) + 1):
        for sub in combinations(sorted(J), size):
            coeffs = list(twist.coeffs)
            for i in sub:
                coeffs[1 + i] -= 1
            out.append(DivisorClass(tuple(coeffs)))
    return tuple(out)


class WallPiece(Record):
    _fields = ("a", "w", "branch", "components")

    def __init__(self, a: int, w: int, branch: str, components: tuple[DivisorClass, ...]):
        vars(self).update(a=a, w=w, branch=branch, components=components)


class WallRecord(Record):
    _fields = ("J", "window", "wall_range", "pieces")

    def __init__(self, J: frozenset, window: tuple[int, int], wall_range: tuple[int, int],
                 pieces: tuple[WallPiece, ...]):
        vars(self).update(J=J, window=window, wall_range=wall_range, pieces=pieces)


def wall_record(n: int, J) -> WallRecord:
    """Window, wall range, and Koszul pieces of the wall indexed by J.

    The window sits at the offset d = default_gauge(n). Weights in the
    window above the wall range are handled by the window shift alone;
    each weight a in the wall range gets a witness twist by w = -a, low
    twists plain, high twists corrected along J^c. An odd n or n < 2, a
    label outside 0..n, or one given twice, raises ValueError.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be a positive even integer")
    J = label_set(n, J)
    if 2 * len(J) - n - 1 > 0:
        raise JTooLarge(f"|J| = {len(J)} exceeds n/2 = {n // 2}")
    window, wall_range, shapes = _wall_shape(n, len(J))
    pieces = []
    for w, base in shapes:
        if base == 0:
            twist = make_F(n, w, [])
        else:
            twist = make_F(n, w, [j for j in range(n + 1) if j not in J])
        branch = "low" if base == 0 else "high"
        pieces.append(WallPiece(-w, w, branch, koszul_components(J, twist)))
    return WallRecord(J, window, wall_range, tuple(pieces))


def _wall_shape(n: int, size: int):
    """Window, wall range and the (w, base) of each piece at a wall of this size.

    The window is (d - (n + 1 - size), d - 1) at d = default_gauge(n), and
    the wall range its weights a up to d - 1 - size. Each a of the range
    gives a piece, in weight order, with w = -a and base 0 for a low twist
    (4w <= n) or n + 1 - size for a high one (4w >= n + 2); wall_record and
    build_certificate build their records from these. The piece's terms
    F_{w,K} have |K| = base + t with multiplicity C(size, t), for
    t = 0..size. For even n and size <= n/2 every w takes one of the two
    branches, and JTooLarge cannot occur.

    Proof. A low twist is F_{w,{}}, and its term for L inside J, the twist
    less E_i for i in L, is F_{w,L}: |K| = t for |L| = t. A high twist is
    F_{w,J^c}, whose term F_{w,J^c | L} has |K| = n + 1 - size + t, as L
    is disjoint from J^c. L runs over the C(size, t) t-subsets of J.
    A w in neither branch has 4w = n + 1, which is odd for even n;
    JTooLarge needs 2 size > n + 1.
    """
    d = default_gauge(n)
    window = (d - (n + 1 - size), d - 1)
    wall_range = (window[0], d - 1 - size)
    pieces = [(-a, 0 if -4 * a <= n else n + 1 - size)
              for a in range(wall_range[0], wall_range[1] + 1)]
    return window, wall_range, pieces


class SizeRecord(Record):
    """The walls of one size: each is this record with its own J.

    pieces holds one (a, w, branch, terms) per weight a of the wall range,
    and terms one (c, |K|, count) per shape of the piece's Koszul terms
    F_{c,K}, as `_wall_shape` gives them.
    """

    _fields = ("size", "walls", "window", "wall_range", "pieces")

    def __init__(self, size: int, walls: int, window: tuple[int, int],
                 wall_range: tuple[int, int], pieces: tuple):
        vars(self).update(size=size, walls=walls, window=window, wall_range=wall_range,
                          pieces=pieces)


class Certificate(Record):
    _fields = ("n", "d", "sizes", "base_case")

    def __init__(self, n: int, d: int, sizes: tuple[SizeRecord, ...], base_case: str = "empty"):
        vars(self).update(n=n, d=d, sizes=sizes, base_case=base_case)


def build_certificate(n: int, collection: Collection | None = None) -> Certificate:
    """One record per wall size, from n/2 down to the empty set.

    The verdict is verify_generation's, on G_n when no collection is given:
    it raises the first WindowViolation or KoszulEscape of the chain, and
    ValueError for a collection of another dimension. A returned
    certificate means every check passed down to the empty category.
    A permutation of the n + 1 labels carries a wall of one size onto
    any other, with its window, wall range and term shapes, so the
    C(n + 1, size) walls of a size share one record, read off
    `_wall_shape`: no wall, class or label set is made.
    """
    verify_generation(n, build_Gn(n) if collection is None else collection)
    sizes = []
    for size in range(n // 2, -1, -1):
        window, wall_range, shapes = _wall_shape(n, size)
        pieces = tuple((-w, w, "low" if base == 0 else "high",
                        tuple((w, base + t, math.comb(size, t)) for t in range(size + 1)))
                       for w, base in shapes)
        sizes.append(SizeRecord(size, math.comb(n + 1, size), window, wall_range, pieces))
    return Certificate(n, default_gauge(n), tuple(sizes))


class GenerationCheck(NamedTuple):
    n: int
    walls: int
    pieces: int
    base_case: str = "empty"


def verify_generation(n: int, collection: Collection) -> GenerationCheck:
    """Chain the walls from large J to the empty set, one wall size at a time.

    Returns the wall and piece counts of the certificate, or raises the
    first WindowViolation or KoszulEscape of the chain, found by walking
    the walls of the first size whose class check fails. A collection of
    another dimension raises ValueError.
    """
    if collection.n != n:
        raise ValueError(f"collection of dimension {collection.n}, expected {n}")
    cells = collection.cells
    # (c, l) -> the ranks of the l-subsets that no block holds with twist c,
    # [] when none is missing
    missing = {key: gaps for key, (_, gaps, _) in _gaps(n, cells, lambda cell: cell[1:3]).items()}
    walls = pieces = 0
    for size in range(n // 2, -1, -1):
        (lo, hi), _, shapes = _wall_shape(n, size)
        # F_{c,L} weighs |L inter J| - c, and over the walls J of this size
        # |L inter J| runs from max(0, |L| + size - n - 1) to min(|L|, size)
        leaving = [cell for cell in cells if max(0, cell.ell + size - n - 1) - cell.c < lo
                   or min(cell.ell, size) - cell.c > hi]
        if leaving or any(missing.get((w, base + t)) != [] for w, base in shapes
                          for t in range(size + 1)):
            _walk_walls(n, size, leaving, missing)
        walls += math.comb(n + 1, size)
        pieces += math.comb(n + 1, size) * len(shapes)
    return GenerationCheck(n, walls, pieces)


def _walk_walls(n, size, leaving, missing) -> None:
    """Raise the first failure of the walls of one size, in lexicographic order.

    This is the walk over every member and Koszul term at each wall, cut to
    what can fail: a member of a cell whose weight range lies in the window
    stays in it, so only the members (c, L) of the leaving cells are read,
    weighing |L inter J| - c. The terms are read off `_wall_shape` in
    wall_record's order, K = L (low) or J^c | L (high) for L inside J by
    size, then lexicographically, and F_{w,K} is held exactly when the rank
    of K, taken once, lies in none of the missing ranges of its (w, |K|),
    an absent one missing every rank. A class is made only to word a failure.
    """
    (lo, hi), _, shapes = _wall_shape(n, size)
    members = [(cell.c, j) for cell in leaving for j in _subsets(n, cell.ell, cell.ranks)]
    for j in combinations(range(n + 1), size):
        J = frozenset(j)
        for c, L in members:
            lam = len(J.intersection(L)) - c
            if not lo <= lam <= hi:
                raise WindowViolation(
                    f"weight {lam} of {_F(n, c, L).coeffs} outside [{lo}, {hi}] "
                    f"at wall J = {list(j)}")
        rest = tuple(x for x in range(n + 1) if x not in J)
        for w, base in shapes:
            for t in range(size + 1):
                gaps = missing.get((w, base + t), [range(math.comb(n + 1, base + t))])
                for sub in combinations(j, t) if gaps else ():
                    k = sub if base == 0 else rest + sub
                    rank = _rank(n + 1, k)
                    if any(rank in gap for gap in gaps):
                        raise KoszulEscape(f"component {_F(n, w, k).coeffs} of the weight {-w} "
                                           f"piece at wall J = {list(j)} is not in the collection")


# -- circuits vs subgroup weights -----------------------------------------------


class WallCheck(Record):
    _fields = ("n", "circuit_count", "pair_count", "sign_choice_count")

    def __init__(self, n: int, circuit_count: int, pair_count: int, sign_choice_count: int):
        vars(self).update(n=n, circuit_count=circuit_count, pair_count=pair_count,
                          sign_choice_count=sign_choice_count)


def _circuit_classes(fan: Fan):
    """Slot classes of circuits: (pairs, nplus, nminus, rays, multiplicity).

    A class is an ordered triple of slot counts and rays is its
    representative `Fan.class_rays`; multiplicity counts the ray sets in
    the class. In closed form, the classes holding circuits are
    (0, a, n + 1 - a), C(n + 1, a) ray sets each, for a = 0..n + 1, and
    then (1, 0, 0), the n + 1 antipodal pairs.

    Proof. A circuit is a minimal dependent ray set. The rays are
    e_0, ..., e_n and their negatives, where e_1, ..., e_n is a basis and
    e_0 + ... + e_n = 0 spans the relations among the e_i. An antipodal
    pair is dependent and each ray in it is not, so it is a circuit; a
    set holding an antipodal pair contains that 2-circuit, so the only
    circuits with a pair are the pairs themselves, the class (1, 0, 0). A
    pair-free set takes one ray, +e_i or -e_i, from each slot i it uses;
    signs do not change dependence, so it is dependent exactly when the
    e_i of its slots are. Every relation among the e_i is a multiple of
    e_0 + ... + e_n, which uses every slot, so a pair-free dependent set
    uses every slot once, and each of its proper subsets misses a slot
    and is independent. So every set with one ray per slot is a circuit:
    its a plus-side slots are any a of the n + 1, the class
    (0, a, n + 1 - a). Every other class holds no circuit.
    """
    half = fan.slots
    for a in range(half + 1):
        yield 0, a, half - a, fan.class_rays(0, a, half - a), math.comb(half, a)
    yield 1, 0, 0, fan.class_rays(1, 0, 0), half


def verify_walls(n: int) -> WallCheck:
    """Match every circuit of the fan against the wall subgroup weights.

    Antipodal pair circuits must carry the relation (1, 1); every other
    circuit must pick one ray per slot, and its relation must reproduce
    the weights of the subgroup indexed by its plus-side rays, up to an
    overall sign. Any disagreement raises WallMismatch.

    The check runs once per slot class, the numbers of pair, plus-only and
    minus-only slots of a ray set. A permutation of the n + 1 slots
    permutes e_0, ..., e_n, whose only relation is their sum, so it is a
    lattice automorphism: it carries the rays of one set onto the rays of
    another set of the same class, and their dependences with them,
    coefficient by coefficient. It permutes the ray classes and the labels
    of J alike, so the wall weights move the same way. Being a circuit,
    and whether the relation matches the weights, are therefore the same
    for every ray set of a class: one representative decides the class,
    which then counts with its multinomial number of ray sets.
    """
    fan = build_Vn(n)
    half = n + 1
    pair_count = sign_count = 0
    for pairs, nplus, nminus, rays, multiplicity in _circuit_classes(fan):
        elements = list(rays)
        relation = circuit_relation(fan, rays)
        if len(elements) == 2:
            if pairs != 1 or relation != (1, 1):
                raise WallMismatch(f"pair circuit {elements}: {relation}")
            pair_count += multiplicity
            continue
        if pairs or nplus + nminus != half:
            raise WallMismatch(f"circuit {elements} is not a slot choice")
        plus = [i for i in elements if i < half]
        expected = tuple(weight(n, plus, class_of_ray(n, r)) for r in elements)
        negated = tuple(-x for x in expected)
        if relation not in (expected, negated):
            raise WallMismatch(
                f"circuit {elements}: relation {relation} vs weights {expected}")
        sign_count += multiplicity
    return WallCheck(n, pair_count + sign_count, pair_count, sign_count)


# -- serialization ----------------------------------------------------------------

CERTIFICATE_SCHEMA = "toric-exc/certificate/2"


def certificate_to_dict(certificate: Certificate) -> dict:
    sizes = [{"size": record.size, "walls": record.walls, "window": list(record.window),
              "wall_range": list(record.wall_range),
              "pieces": [{"a": a, "w": w, "branch": branch,
                          "terms": [{"c": c, "ell": ell, "count": count}
                                    for c, ell, count in terms]}
                         for a, w, branch, terms in record.pieces]}
             for record in certificate.sizes]
    return {"schema": CERTIFICATE_SCHEMA, "n": certificate.n, "d": certificate.d,
            "sizes": sizes, "base_case": certificate.base_case}
