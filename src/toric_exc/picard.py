"""Divisor classes on the centrally symmetric fans and their symmetries.

The Picard group has rank n + 2 with basis H, E_0, ..., E_n. The ray
through e_i has class E_i and the antipodal ray has class H - E + E_i,
where E = E_0 + ... + E_n. Coordinates are stored as (h, d_0, ..., d_n).

The symmetry group is a direct product: S_{n+1} permutes the E_i, and the
antipodal involution acts linearly, fixing each line bundle family
F_{c,J} = c(E - H) - sum_{j in J} E_j up to replacing c by |J| - c.

The difference of two members F_{c,J} lies in a (c, k, l) family, one
S_{n+1}-orbit (`family_of_parsed`). The inequality predicates beside it
certify vanishing for every member of a whole family at once, with no
region sweep, so the inequality method needs no cohomology engine.
"""

from __future__ import annotations

from itertools import combinations

from .record import Record


class NotInFamily(Exception):
    """The divisor class is not of the form F_{c,J}."""


class InvalidShape(Exception):
    """Family parameters (c, k, l) out of range for this dimension."""


class HypothesisViolated(Exception):
    """Family parameters outside the stated hypotheses of the predicate."""


class DivisorClass(Record):
    """Integer coordinates (h, d_0, ..., d_n) in the basis H, E_0, ..., E_n.

    Classes are made, hashed and read on every hot path, so equality and
    hash are written out rather than read from `Record._values`.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if len(coeffs) < 3:
            raise ValueError(f"{len(coeffs)} coordinates; a class needs at least 3")
        if not all(isinstance(x, int) for x in coeffs):
            raise ValueError(f"non-integer coordinates {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs,))

    @property
    def n(self) -> int:
        return len(self.coeffs) - 2

    @property
    def h(self) -> int:
        return self.coeffs[0]

    @property
    def d(self) -> tuple[int, ...]:
        return self.coeffs[1:]

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(tuple(scalar * a for a in self.coeffs))


def divisor(h: int, d) -> DivisorClass:
    return DivisorClass((h,) + tuple(d))


def class_of_ray(n: int, ray_index: int) -> DivisorClass:
    """Divisor class of the ray at the given index (e_0..e_n, then negatives).

    An index outside 0..2n+1 raises ValueError.
    """
    if not 0 <= ray_index < 2 * (n + 1):
        raise ValueError(f"ray index {ray_index} outside 0..{2 * n + 1}")
    if ray_index <= n:
        return DivisorClass((0,) + tuple(1 if i == ray_index else 0 for i in range(n + 1)))
    slot = ray_index - (n + 1)
    return DivisorClass((1,) + tuple(0 if i == slot else -1 for i in range(n + 1)))


def canonical_class(n: int) -> DivisorClass:
    return DivisorClass((-(n + 1),) + tuple(n - 1 for _ in range(n + 1)))


def require_dimension(n: int, D: DivisorClass) -> None:
    """Raise ValueError unless D is a class on V_n."""
    if D.n != n:
        raise ValueError(f"divisor class of dimension {D.n}, expected {n}")


def label_set(n: int, J) -> frozenset:
    """The labels J as a set; one outside 0..n, or one given twice, raises ValueError."""
    labels = tuple(J)
    J = frozenset(labels)
    if len(J) != len(labels):
        raise ValueError(f"repeated label in {sorted(labels)}")
    outside = J - set(range(n + 1))
    if outside:
        raise ValueError(f"labels {sorted(outside)} outside 0..{n}")
    return J


def make_F(n: int, c: int, J) -> DivisorClass:
    """The class c(E - H) - sum_{j in J} E_j.

    A label outside 0..n, or one given twice, raises ValueError.
    """
    J = label_set(n, J)
    return DivisorClass((-c,) + tuple(c - 1 if j in J else c for j in range(n + 1)))


def parse_F(D: DivisorClass):
    """Recover (c, J) with D = F_{c,J}, or None if D is not of that shape."""
    c = -D.h
    J = set()
    for j, dj in enumerate(D.d):
        if dj == c - 1:
            J.add(j)
        elif dj != c:
            return None
    return c, frozenset(J)


def antipodal_involution(D: DivisorClass) -> DivisorClass:
    n = D.n
    total = sum(D.d)
    h = n * D.h + total
    d = tuple((1 - n) * D.h - total + di for di in D.d)
    return DivisorClass((h,) + d)


def permute(perm, D: DivisorClass) -> DivisorClass:
    """Relabel E-coordinates: E_i maps to E_{perm[i]}.

    A perm that is not a permutation of 0..n raises ValueError.
    """
    n = D.n
    if sorted(perm) != list(range(n + 1)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 0..{n}")
    d = [0] * (n + 1)
    for i, target in enumerate(perm):
        d[target] = D.d[i]
    return DivisorClass((D.h,) + tuple(d))


def act(element, D: DivisorClass) -> DivisorClass:
    """Apply (perm, flip): the involution first when flip is set, then perm.

    The two factors commute, so the order is a convention only.
    """
    perm, flip = element
    if flip:
        D = antipodal_involution(D)
    return permute(perm, D)


def group_generators(n: int) -> list[tuple[tuple[int, ...], bool]]:
    """Adjacent transpositions and the antipodal involution."""
    identity = tuple(range(n + 1))
    gens = [(identity, True)]
    for i in range(n):
        perm = list(identity)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append((tuple(perm), False))
    return gens


def orbit_Fckl(n: int, c: int, k: int, ell: int) -> list[DivisorClass]:
    """All classes c(E - H) + sum_{i in K} E_i - sum_{j in L} E_j.

    K and L run over disjoint subsets of {0..n} with |K| = k and |L| = ell;
    this is a single S_{n+1}-orbit, and the antipodal involution carries it
    onto the orbit with c replaced by ell - k - c.
    """
    if k < 0 or ell < 0 or k + ell > n + 1:
        raise InvalidShape(f"need k, l >= 0 and k + l <= {n + 1}, got ({k}, {ell})")
    out = []
    slots = range(n + 1)
    for K in combinations(slots, k):
        rest = [i for i in slots if i not in K]
        for L in combinations(rest, ell):
            d = tuple(c + (1 if i in K else 0) - (1 if i in L else 0) for i in slots)
            out.append(DivisorClass((-c,) + d))
    return out


def family_of_parsed(first, second) -> tuple[int, int, int]:
    """Parameters (c, k, l) of F_{c1,J1} - F_{c2,J2} from parsed (c, J) pairs.

    The difference lies in the family with c = c1 - c2, k = |J2 - J1| and
    l = |J1 - J2|, a single S_{n+1}-orbit.
    """
    (c1, J1), (c2, J2) = first, second
    t = len(J1 & J2)
    return c1 - c2, len(J2) - t, len(J1) - t


def difference_family(n: int, D1: DivisorClass, D2: DivisorClass) -> tuple[int, int, int]:
    """Parameters (c, k, l) with D1 - D2 in the (c, k, l) family.

    Both arguments must be of the form F_{c,J}, see family_of_parsed, and
    classes on V_n; a class of another dimension raises ValueError.
    """
    require_dimension(n, D1)
    require_dimension(n, D2)
    p1 = parse_F(D1)
    p2 = parse_F(D2)
    if p1 is None or p2 is None:
        bad = "first" if p1 is None else "second"
        raise NotInFamily(f"{bad} argument is not an F_(c,J) class")
    return family_of_parsed(p1, p2)


def _check_shape(n: int, k: int, ell: int):
    if k < 0 or ell < 0 or k + ell > n + 1:
        raise HypothesisViolated(f"invalid family shape ({k}, {ell}) in dimension {n}")


def lemma_acyclic_predicate(n: int, c: int, k: int, ell: int) -> bool:
    """Full-vanishing certificate for every member of the (c, k, l) family.

    Requires k <= l and (c, k, l) != (0, 0, 0); outside those hypotheses
    the question is not posed and HypothesisViolated is raised. A True
    answer means every cohomology group of every member vanishes.
    """
    _check_shape(n, k, ell)
    if k > ell:
        raise HypothesisViolated(f"predicate needs k <= l, got ({k}, {ell})")
    if (c, k, ell) == (0, 0, 0):
        raise HypothesisViolated("the trivial class is never acyclic")
    if ell <= n // 2:
        return -(n // 2) + ell <= c <= n // 2 - k
    return 1 <= c <= ell - k - 1


def higher_acyclic_predicate(n: int, c: int, k: int, ell: int) -> bool:
    """Positive-degree vanishing certificate for the whole (c, k, l) family.

    No constraint relating k and l; a True answer means h^p = 0 for all
    p >= 1 for every member, leaving h^0 free.
    """
    _check_shape(n, k, ell)
    half = n // 2
    if ell >= half + 1:
        plus_ok = c >= 1
    elif k <= half:
        plus_ok = c >= ell - half
    else:
        plus_ok = c >= ell - k
    if ell >= half + 1:
        minus_ok = c <= ell - k - 1
    elif k <= half:
        minus_ok = c <= half - k
    else:
        minus_ok = c <= 0
    return plus_ok and minus_ok


def ray_coefficients(n: int, D: DivisorClass) -> tuple[int, ...]:
    """A torus-invariant divisor in the class of D, as per-ray coefficients.

    Order matches the fan's rays. The choice puts the whole H-coefficient
    on the first antipodal ray; any other lift differs by a principal
    divisor and gives the same cohomology. A class of another dimension
    raises ValueError.
    """
    require_dimension(n, D)
    h, d = D.h, D.d
    plus = (d[0], *[x + h for x in d[1:]])
    minus = (h,) + (0,) * n
    return plus + minus
