"""The standard line-bundle collections and their verification.

A collection is a block-ordered list of classes F_{c,J}. Blocks are
group orbits: the symmetric group permutes the J labels inside a block
and the involution pairs the parameter c with |J| - c, so a block is
labeled by |J| and the unordered pair {c, |J| - c}. Blocks are listed
by decreasing |J|, members inside a block by (c, sorted J).

Verification covers every ordered pair of distinct member positions.
Writing D for target minus source, a pair with the source in a later
block, or both in one block, must lose all cohomology; a pair with the
source in an earlier block only needs positive degrees to vanish. Three
interchangeable methods grade a pair: closed-form family inequalities,
forbidden-cone certificates, or the cohomology oracle. Size is checked
against the fan's count of maximal cones, so a dropped member is caught
even though every surviving pair still verifies.

A collection is held as the l of each block and its cells, and nothing
else: a member outside F_{c,J}, or of another dimension, is refused when
the collection is made. A cell is a run of consecutive positions in one
block sharing the twist c and |J| = l, whose J are a slice of the
lexicographic order of the l-subsets of 0..n: it holds their ranks, the
whole order in each cell of G_n. A mutation cuts its parent's rank
ranges at the touched positions (_group) and makes no member; a walk
reads its members in cell order and keeps none of them (_read).

A full sweep reads its keys off shapes instead of walking pairs. The
verdict of a pair depends only on its family (c, k, l) and its block
relation, and the members of one (block, c, l) form a unit (_units). The
pairs between two units have keys on one line (dc, l_t - l_s, need_all),
with k in a range fixed by the shape of the unit pair (_span); the shapes
are read off the units grouped by l (_shapes). Each line is graded once
over the union of its ranges, and only the unit pairs of a shape whose
range holds a failing key are walked one by one; an intact G_n walks none.
One grader, `_class_grader`, grades a key by any method: by the two
predicates, or on its family's slot groups (`picard.family_slots`), with
no divisor class made per key; `gram_matrix` reads those slot groups too.

The cohomology engine and the forbidden cones load once per call of the
functions that use them (`_class_grader`, `gram_matrix`), so the
inequality sweep, the stability check and a mutation load neither. No
function here builds the fan.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import combinations, islice
from typing import NamedTuple

from .picard import (DivisorClass, HypothesisViolated, antipodal_involution, family_of_parsed,
                     family_slots, group_generators, higher_acyclic_predicate, label_set,
                     lemma_acyclic_predicate, parse_F)
from .record import Record

METHODS = ("inequalities", "forbidden", "oracle")


class VerificationFailed(Exception):
    def __init__(self, report):
        super().__init__(report.headline())
        self.report = report


class Block(Record):
    _fields = ("ell", "members")

    def __init__(self, ell: int, members: tuple[DivisorClass, ...]):
        vars(self).update(ell=ell, members=members)


class Collection:
    """Blocks of members, held as cells (module docstring) and read through views.

    Collection(n, blocks) groups the parsed members, Collection(n, ells=...,
    runs=...) a stream of runs (_group). A member outside F_{c,J}, or of
    another dimension, raises ValueError. Nothing read from a cell is kept
    but the cached views shape, members and blocks.
    """

    def __init__(self, n: int, blocks=None, *, ells=(), runs=()):
        if blocks is not None:
            blocks = tuple(blocks)
            ells = [b.ell for b in blocks]
            runs = (_member_run(n, bi, m) for bi, b in enumerate(blocks) for m in b.members)
        self.n, self.ells = n, tuple(ells)
        self.cells = _group(runs)
        self._starts = [cell.positions.start for cell in self.cells]

    def __eq__(self, other):
        if not isinstance(other, Collection):
            return NotImplemented
        return (self.n, self.ells, self.cells) == (other.n, other.ells, other.cells)

    @cached_property
    def shape(self) -> tuple[tuple[int, int], ...]:
        """(ell, size) of each block."""
        sizes = [0] * len(self.ells)
        for cell in self.cells:
            sizes[cell.block] += cell.positions.stop - cell.positions.start
        return tuple(zip(self.ells, sizes))

    @property
    def size(self) -> int:
        return sum(size for _, size in self.shape)

    @cached_property
    def members(self) -> tuple[DivisorClass, ...]:
        return tuple(_F(self.n, cell.c, j) for cell in self.cells
                     for j in _subsets(self.n, cell.ell, cell.ranks))

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        members = iter(self.members)
        return tuple(Block(ell, tuple(islice(members, size))) for ell, size in self.shape)

    def at(self, p: int):
        """(block index, (c, J)) at flat position p, read from its cell."""
        cell = self.cells[bisect_right(self._starts, p) - 1]
        r = p - cell.positions.start
        if not 0 <= r < cell.positions.stop - cell.positions.start:
            raise IndexError(f"position {p} outside 0..{self.size - 1}")
        return cell.block, (cell.c, frozenset(_nth_subset(self.n + 1, cell.ell, cell.ranks[r])))

    def member(self, p: int) -> DivisorClass:
        """The member at flat position p, made from the (c, J) that at reads."""
        return _F(self.n, *self.at(p)[1])


def _nth_subset(m: int, ell: int, r: int) -> tuple[int, ...]:
    """The r-th ell-subset of 0..m-1 in lexicographic order.

    The combinatorial number system: C(m - x - 1, ell - 1) subsets have x
    as their least label, so the labels are found in one pass over x.
    """
    out, x = [], 0
    while ell:
        count = math.comb(m - x - 1, ell - 1)
        if r < count:
            out.append(x)
            ell -= 1
        else:
            r -= count
        x += 1
    return tuple(out)


def _rank(m: int, j) -> int:
    """The lexicographic rank of the subset j of 0..m-1: the inverse of _nth_subset.

    Where _nth_subset skips x, it passes C(m - x - 1, ell - 1) subsets; from
    x up to the next label y of j these sum to C(m - x, ell) - C(m - y, ell).
    """
    r, x, ell = 0, 0, len(j)
    for y in sorted(j):
        r += math.comb(m - x, ell) - math.comb(m - y, ell)
        ell, x = ell - 1, y + 1
    return r


def _subsets(n: int, ell: int, *ranges):
    """The ell-subsets of 0..n with the ranks in ranges, in order: all of them by combinations."""
    if ranges == (range(math.comb(n + 1, ell)),):
        return combinations(range(n + 1), ell)
    return (_nth_subset(n + 1, ell, r) for ranks in ranges for r in ranks)


def _read(n: int, cells):
    """(position, (block, (c, J))) of each member of cells, in their order."""
    return ((p, (cell.block, (cell.c, frozenset(j)))) for cell in cells
            for p, j in zip(cell.positions, _subsets(n, cell.ell, cell.ranks)))


def _F(n: int, c: int, j) -> DivisorClass:
    """make_F(n, c, j) for labels j known to be distinct and in 0..n."""
    coeffs = [-c] + [c] * (n + 1)
    for x in j:
        coeffs[x + 1] = c - 1
    return DivisorClass(tuple(coeffs))


def _run(n, block, c, j):
    """The run of the one member F_{c,J}, J a frozenset of labels in 0..n (see _group)."""
    r = _rank(n + 1, j)
    return block, c, len(j), range(r, r + 1)


def _member_run(n, block, m):
    """The run of one member; one outside F_{c,J} on V_n raises ValueError."""
    parsed = parse_F(m) if m.n == n else None
    if parsed is None:
        raise ValueError(f"member {m.coeffs} is not an F_{{c,J}} class on V_{n}")
    return _run(n, block, *parsed)


def _group(runs):
    """The cells of a flat stream of runs, in position order.

    A run is (block, c, ell, ranks) for the members F_{c,J} whose J are the
    ell-subsets with the lexicographic ranks in the range ranks. Adjacent
    runs of one block and (c, ell) join when their ranks continue, and an
    empty run is dropped, so the cells do not depend on how the runs were
    cut.
    """
    cells = []
    start = 0
    for block, c, ell, ranks in runs:
        if not ranks:
            continue
        stop = start + ranks.stop - ranks.start
        if cells and cells[-1][:3] == (block, c, ell) and cells[-1].ranks.stop == ranks.start:
            last = cells.pop()
            start, ranks = last.positions.start, range(last.ranks.start, ranks.stop)
        cells.append(Cell(block, c, ell, range(start, stop), ranks))
        start = stop
    return tuple(cells)


def expected_size(n: int) -> int:
    """Number of maximal cones, hence the rank of the Grothendieck group."""
    return math.factorial(n + 1) // math.factorial(n // 2) ** 2


def build_Fn(n: int) -> tuple[tuple[int, int], ...]:
    """The admissible (c, l) parameter pairs, sorted by (l, c).

    For l up to n/2 the twist satisfies 4l - n <= 4c <= n, above that
    n + 2 <= 4c <= 4l - n - 2; both ranges are intersected with the
    integers.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be a positive even integer")
    out = []
    for ell in range(n + 2):
        lo, hi = (4 * ell - n, n) if ell <= n // 2 else (n + 2, 4 * ell - n - 2)
        out += ((c, ell) for c in range(math.ceil(lo / 4), math.floor(hi / 4) + 1))
    return tuple(out)


def build_Gn(n: int) -> Collection:
    """The full collection: every F_{c,J} with (c, |J|) admissible.

    One cell per (c, |J|), holding every |J|-subset in lexicographic order.
    """
    orbits = sorted({(ell, frozenset({c, ell - c})) for c, ell in build_Fn(n)},
                    key=lambda key: (-key[0], min(key[1])))
    return Collection(n, ells=[ell for ell, _ in orbits], runs=[
        (bi, c, ell, range(math.comb(n + 1, ell)))
        for bi, (ell, cs) in enumerate(orbits) for c in sorted(cs)])


class Cell(NamedTuple):
    """A run of consecutive positions of one block sharing the twist c and |J| = ell.

    The member at positions[r] is F_{c,J} for the ell-subset J of 0..n of
    lexicographic rank ranks[r] (_nth_subset).
    """

    block: int
    c: int
    ell: int
    positions: range  # flat positions
    ranks: range  # the lexicographic ranks of their J, as many


# -- pairwise verification -----------------------------------------------------


class PairResult(Record):
    _fields = ("source", "target", "relation", "ok", "detail")

    def __init__(self, source: int, target: int, relation: str, ok: bool, detail: str):
        vars(self).update(source=source, target=target, relation=relation, ok=ok, detail=detail)


class Report(Record):
    _fields = ("n", "method", "size", "expected", "pairs_checked", "violations",
               "pair_results", "sampled")

    def __init__(self, n: int, method: str, size: int, expected: int, pairs_checked: int,
                 violations: tuple[PairResult, ...],
                 pair_results: tuple[PairResult, ...] | None = None, sampled: bool = False):
        vars(self).update(n=n, method=method, size=size, expected=expected,
                          pairs_checked=pairs_checked, violations=violations,
                          pair_results=pair_results, sampled=sampled)

    @property
    def complete(self) -> bool:
        return self.size == self.expected

    @property
    def ok(self) -> bool:
        return self.complete and not self.violations

    def headline(self) -> str:
        if self.ok:
            extra = " (sampled)" if self.sampled else ""
            return f"ok: {self.size} members, {self.pairs_checked} pairs checked{extra}"
        parts = []
        if not self.complete:
            parts.append(f"size {self.size} != expected {self.expected}")
        if self.violations:
            first = self.violations[0]
            parts.append(f"{len(self.violations)} violating pairs, first "
                         f"{first.source}->{first.target}: {first.detail}")
        return "; ".join(parts)

    def raise_if_failed(self):
        if not self.ok:
            raise VerificationFailed(self)
        return self


def verify_exceptional(collection: Collection, method: str = "inequalities",
                       sample=None, full_report: bool = False) -> Report:
    """Grade every ordered pair of distinct positions, plus the size check.

    sample restricts the sweep to the given (source, target) flat index
    pairs; the size check still runs, and a pair that is not two distinct
    int positions (a bool is not one) raises ValueError. A sample or a full
    report grades pair by pair; otherwise each line of keys is graded once
    over its span (_span), and only the unit pairs of a shape with a failing
    key are walked. Violations come in flat (source, target) order either
    way. The report never raises on its own, call raise_if_failed for that.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n, size = collection.n, collection.size
    grade_family = _class_grader(method, n)

    # A pair's verdict depends only on its family (c, k, l), the S_{n+1}-orbit of its
    # difference, and its block relation: each key (c, k, l, need_all) is graded once.
    grades, details = {}, {}  # details: a key's, made for its first reported pair

    def grade(key):  # every verdict is a nonempty tuple
        return grades.get(key) or grades.setdefault(key, grade_family(*key))

    def walk(pairs, keep_passing):
        """Grade pairs of _read entries one by one: the failing results, or all of them."""
        out = []
        for (i, (block_i, parsed_i)), (j, (block_j, parsed_j)) in pairs:
            relation = ("same-block" if block_i == block_j
                        else "forward" if block_i < block_j else "backward")
            c, k, ell = family_of_parsed(parsed_j, parsed_i)
            key = (c, k, ell, relation != "forward")
            ok, note = grade(key)
            if keep_passing or not ok:
                detail = details.get(key) or details.setdefault(key, _detail(method, key, note))
                out.append(PairResult(i, j, relation, ok, detail))
        return out

    if sample is not None:
        pairs = [(i, j) for i, j in sample]
        for i, j in pairs:
            if not (_is_int(i) and _is_int(j) and i != j and 0 <= i < size and 0 <= j < size):
                raise ValueError(f"sample pair ({i}, {j}) is not two distinct "
                                 f"positions in 0..{size - 1}")
        read = {p: collection.at(p) for p in {p for pair in pairs for p in pair}}
        results = walk((((i, read[i]), (j, read[j])) for i, j in pairs), full_report)
        checked = len(pairs)
    elif full_report:
        entries = list(_read(n, collection.cells))
        results = walk(_pairs_between(entries, entries), True)
        checked = len(results)
    else:
        by_ell = {}
        for unit in _units(n, collection.cells):
            by_ell.setdefault(unit.ell, []).append(unit)
        shapes = list(_shapes(n, by_ell))
        spans = {}  # line (dc, l_t - l_s, need_all) -> the span of its keys' k
        for l_s, l_t, need_all, _, dcs, ks in shapes:
            for line in ((dc, l_t - l_s, need_all) for dc in dcs):
                span = spans.get(line, ks)
                spans[line] = range(min(span.start, ks.start), max(span.stop, ks.stop))
        failing = {(dc, delta, need_all): bad for (dc, delta, need_all), ks in spans.items()
                   if (bad := [k for k in ks if not grade((dc, k, k + delta, need_all))[0]])}
        walked = []  # unit pairs of failing shapes, walked in unit order: results in sorted runs
        for l_s, l_t, need_all, diagonal, dcs, ks in shapes if failing else ():
            for dc in dcs:
                bad = failing.get((dc, l_t - l_s, need_all), ())
                if bisect_left(bad, ks.start) < bisect_left(bad, ks.stop):
                    walked += ((s, t) for s in by_ell[l_s] for t in by_ell[l_t]
                               if _shape(s, t) == (dc, l_s, l_t, need_all, diagonal))
        results = [r for s, t in sorted(walked) for r in walk(_unit_pairs(n, s, t), False)]
        results.sort(key=lambda r: (r.source, r.target))
        checked = size * (size - 1)  # the units partition the positions

    return Report(n=n, method=method, size=size, expected=expected_size(n),
                  pairs_checked=checked, violations=tuple(r for r in results if not r.ok),
                  pair_results=tuple(results) if full_report else None, sampled=sample is not None)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _pairs_between(sources, targets):
    """Ordered pairs of _read entries at distinct positions, in flat order for sorted inputs."""
    return ((s, t) for s in sources for t in targets if s[0] != t[0])


def _unit_pairs(n, source, target):
    """Pairs of _read entries from source to target, the larger unit read as it is walked."""
    if source.size > target.size:
        return _pairs_between(_read(n, source.cells), list(_read(n, target.cells)))
    held = list(_read(n, source.cells))
    return ((s, t) for t, s in _pairs_between(_read(n, target.cells), held))


class Unit(NamedTuple):
    """The members of one (block, c, l)."""

    block: int
    c: int
    ell: int
    cells: tuple[Cell, ...]  # in flat order
    size: int  # members, over its cells
    repeats: bool  # some J is held twice


def _units(n, cells):
    """One unit per (block, c, l), in the order of their first cells; repeats is read off _gaps."""
    return [Unit(block, c, ell, tuple(group), sum(r.stop - r.start for *_, r in group), bool(extra))
            for (block, c, ell), (group, _, extra) in _gaps(n, cells, lambda cell: cell[:3]).items()]


def _gaps(n, cells, key):
    """key(cell) -> (its cells, the ranks they miss, the ranks they hold again), as ranges.

    Sorted by start, each rank range leaves a gap after the ranks reached so
    far, which is missing, or overlaps them, which is held again: a rank held
    k times lies in k - 1 extra ranges. This costs cells, not members.
    """
    groups = {}
    for cell in cells:
        groups.setdefault(key(cell), []).append(cell)
    for k, group in groups.items():
        missing, extra, reach = [], [], 0
        for start, stop in sorted((cell.ranks.start, cell.ranks.stop) for cell in group):
            if start > reach:
                missing.append(range(reach, start))
            elif start < reach:
                extra.append(range(start, min(stop, reach)))
            reach = max(reach, stop)
        count = math.comb(n + 1, group[0].ell)
        if reach < count:
            missing.append(range(reach, count))
        groups[k] = group, missing, extra
    return groups


def _shape(source, target):
    """(dc, l_s, l_t, need_all, diagonal) of a unit pair: what its keys depend on (_span)."""
    return (target.c - source.c, source.ell, target.ell, source.block >= target.block,
            source is target and not source.repeats)


def _shapes(n, by_ell):
    """(l_s, l_t, need_all, diagonal, its dc, _span) for the shapes of all unit pairs, each once.

    by_ell lists the units of each l. Where l_s != l_t, both c sets are
    intervals (build_Fn) and the l_s units' blocks all lie on one side of the
    l_t units', every unit pair has one need_all and is not diagonal, so its
    dc = c_t - c_s form an interval. The others read each unit pair's shape.
    """
    sides = {}
    for ell, units in by_ell.items():
        cs, blocks = {unit.c for unit in units}, [unit.block for unit in units]
        cs = range(min(cs), max(cs) + 1) if max(cs) - min(cs) < len(cs) else None
        sides[ell] = cs, min(blocks), max(blocks)
    for l_s, (cs_s, lo_s, hi_s) in sides.items():
        for l_t, (cs_t, lo_t, hi_t) in sides.items():
            if l_s != l_t and cs_s and cs_t and (lo_s >= hi_t or hi_s < lo_t):
                dcs = range(cs_t.start - cs_s[-1], cs_t[-1] - cs_s.start + 1)
                kinds = {(lo_s >= hi_t, False, dcs)}
            else:  # one kind per distinct shape, its dc alone
                kinds = {(need_all, diagonal, (dc,)) for source in by_ell[l_s]
                         for target in by_ell[l_t]
                         for dc, _, _, need_all, diagonal in [_shape(source, target)]}
            for need_all, diagonal, dcs in kinds:
                if ks := _span(n, l_s, l_t, diagonal):
                    yield l_s, l_t, need_all, diagonal, dcs, ks


def _span(n, l_s, l_t, diagonal):
    """The k of the keys ((dc, k, k + l_t - l_s), need_all) that the pairs of a shape can have.

    Every pair of a unit pair of this shape (_shape) has a key with k in the
    range; between two units that hold every l-subset once, each such key is
    some pair's. Proof: F_{c_t,J_t} - F_{c_s,J_s} is in the family
    (dc, k, k + l_t - l_s) for k = l_s - |J_s & J_t| (family_of_parsed). At
    most min(l_s, l_t) labels are shared and the k + l_t labels of J_s | J_t
    lie in 0..n, so max(0, l_s - l_t) <= k <= min(l_s, n + 1 - l_t), and
    J_s = {0..l_s - 1} against the l_t labels from k on gives each such k. A
    unit meets k = 0 against itself only where it holds some J twice; so a
    diagonal shape drops k = 0 (the zero class, which always fails), and its
    pairs J_s != J_t still meet every k > 0.

    On one line (dc, l_t - l_s, need_all) every range starts at
    max(0, l_s - l_t), or at 1 for a diagonal shape, which has l_s = l_t. So
    the nonempty ranges of a line overlap or touch, and their union is one
    span: grading each key of each span once grades every key of every shape.
    """
    return range(max(0, l_s - l_t) + diagonal, min(l_s, n + 1 - l_t) + 1)


def _class_grader(method, n):
    """grade(c, k, l, need_all) -> (ok, note) of the (c, k, l) family on V_n by the method.

    The inequality method reads the two predicates; its note is None, or a
    violated hypothesis's message. The other methods load their engine here
    and walk the family's slot groups (`family_slots`); every acyclic family
    shares one oracle grade.
    """
    if method == "inequalities":
        def grade(c, k, ell, need_all):
            if not need_all:
                return higher_acyclic_predicate(n, c, k, ell), None
            try:
                return lemma_acyclic_predicate(n, c, k, ell), None
            except HypothesisViolated as e:
                return False, str(e)  # its message, not e: its traceback holds the sweep's frame
    elif method == "oracle":
        from .cohomology import _symmetric_engine

        acyclic = True, (0,) * (n + 1)

        def grade(c, k, ell, need_all):
            ranks = _symmetric_engine(n, family_slots(n, c, k, ell)).ranks
            if not any(ranks):
                return acyclic
            return not need_all and not any(ranks[1:]), ranks
    else:
        from .cones import certify_groups

        def grade(c, k, ell, need_all):
            return certify_groups(n, family_slots(n, c, k, ell), not need_all), None
    return grade


def _detail(method, key, note):
    """The detail of a pair result, from its key and the note of its grade (_class_grader)."""
    if method != "inequalities":
        return f"h = {note}" if method == "oracle" else "forbidden-cone sweep"
    label = "(c, k, l) = ({}, {}, {})".format(*key[:3])
    return label if note is None else f"{label}: {note}"


# -- group stability ------------------------------------------------------------


class StabilityReport(Record):
    _fields = ("n", "ok", "failures")

    def __init__(self, n: int, ok: bool, failures: tuple[str, ...]):
        vars(self).update(n=n, ok=ok, failures=failures)

    raise_if_failed = Report.raise_if_failed

    def headline(self) -> str:
        if self.ok:
            return "ok: every generator preserves every block"
        return f"{len(self.failures)} stability failures, first: {self.failures[0]}"


def verify_stability(collection: Collection) -> StabilityReport:
    """Check every group generator maps every block onto itself.

    Also pins the involution's closed form on each member: F_{c,J} must
    land on F_{|J|-c,J} exactly.

    Decided on the J sets of each (c, l) in a block, each held by its
    shorter side, read off its rank ranges (_gaps): the J it misses when it
    holds more than half of the l-subsets, else the J it holds. (perm,
    flip) sends F_{c,J} to F_{c',perm J}, c' being l - c under the
    involution and c otherwise, so it keeps a block when it maps each
    (c, l) set onto the (c', l) set. The involution is S_{n+1}-equivariant,
    so its closed form is checked once per (c, l), on J = {0, ..., l-1}.
    """
    n = collection.n
    cells = collection.cells
    closed = {(c, ell): antipodal_involution(_F(n, c, range(ell))) == _F(n, ell - c, range(ell))
              for c, ell in {(cell.c, cell.ell) for cell in cells}}
    labels = [{} for _ in collection.ells]  # per block: (c, l) -> the side of its J set
    for (block, c, ell), (group, missing, _) in _gaps(n, cells, lambda cell: cell[:3]).items():
        count = math.comb(n + 1, ell)
        complement = 2 * (count - sum(map(len, missing))) > count
        side = missing if complement else [cell.ranks for cell in group]
        labels[block][c, ell] = complement, frozenset(map(frozenset, _subsets(n, ell, *side)))
    # a permutation keeps a block of "all" sets: decided once
    partial = [bi for bi, sets in enumerate(labels)
               if any(side != _ALL for side in sets.values())]
    failures = []
    for gi, (perm, flipped) in enumerate(group_generators(n)):
        for bi in range(len(labels)) if flipped else partial:
            if not _keeps(perm, flipped, labels[bi]):
                failures.append(f"generator {gi} moves block {bi} off itself")
    failures += (f"involution breaks closed form on {_F(n, cell.c, j).coeffs}" for cell in cells
                 if not closed[cell.c, cell.ell] for j in _subsets(n, cell.ell, cell.ranks))
    return StabilityReport(n, not failures, tuple(failures))


_ALL = (True, frozenset())  # a (c, l) set missing no l-subset


def _keeps(perm, flipped, sets):
    """Whether (perm, flipped) maps each (c, l) J set of a block onto its image's set.

    The generators are the involution, whose perm is the identity, so it must
    find each set unchanged at (l - c, l), and the transpositions (i, i+1),
    which move only the J holding exactly one of i and i+1: a set is kept
    when it holds the swap of each of those. A permutation keeps a set
    exactly when it keeps its complement among the l-subsets, so the test
    reads the side that verify_stability listed.
    """
    if flipped:
        return all(sets.get((ell - c, ell)) == side for (c, ell), side in sets.items())
    i, k = (x for x, y in enumerate(perm) if x != y)
    swap = frozenset((i, k))
    return all(all(j ^ swap in js for j in js if (i in j) != (k in j))
               for _, js in sets.values())


# -- numerics -------------------------------------------------------------------


def gram_matrix(collection: Collection) -> tuple[tuple[int, ...], ...]:
    """Euler pairings chi(E_i, E_j) over flat positions, by the oracle.

    chi(E_i, E_j) is the Euler characteristic of E_j - E_i, which depends
    only on its family, so each family's is read once off its slot groups
    (`family_slots`), as the oracle grader reads its ranks; the diagonal is
    the family (0, 0, 0).
    """
    from .cohomology import _symmetric_engine

    n = collection.n
    by_family = {}
    parsed = [parsed for _, (_, parsed) in _read(n, collection.cells)]

    def entry(s, t):
        family = family_of_parsed(t, s)
        if family not in by_family:
            by_family[family] = _symmetric_engine(n, family_slots(n, *family)).euler
        return by_family[family]

    return tuple(tuple(entry(s, t) for t in parsed) for s in parsed)


# -- mutations -------------------------------------------------------------------


def apply_mutation(collection: Collection, text: str) -> Collection:
    """Deliberately damage a collection: drop:IDX, add:c,J, swap:I,J.

    Indices are flat positions. add parses J as dash-separated labels
    (empty for the twist alone; an empty label raises ValueError) and
    appends to the first block. The rank range of a cell holding a dropped
    or swapped position is cut at that position, which becomes a run of its
    own, and the runs are regrouped with the change applied (_group): this
    costs the number of cells, and no member is made.
    """
    kind, _, arg = text.partition(":")
    n, size = collection.n, collection.size
    touched = ()
    if kind == "drop":
        idx = int(arg)
        if not 0 <= idx < size:
            raise ValueError(f"drop index {idx} out of range")
        touched = (idx,)
    elif kind == "add":
        c_text, _, j_text = arg.partition(",")
        fields = j_text.split("-") if j_text else []
        if "" in fields:
            raise ValueError(f"empty label in {j_text!r}")
        added = _run(n, 0, int(c_text), label_set(n, map(int, fields)))
    elif kind == "swap":
        i_text, _, j_text = arg.partition(",")
        i, j = int(i_text), int(j_text)
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"swap indices {i},{j} out of range")
        touched = (i, j)
    else:
        raise ValueError(f"unknown mutation {text!r}")
    runs, index = [], {}  # in flat order; index: touched position -> its run
    for block, c, ell, positions, ranks in collection.cells:
        lo = 0
        for r in sorted({p - positions.start for p in touched if p in positions}):
            index[positions.start + r] = len(runs) + 1
            runs += (block, c, ell, ranks[lo:r]), (block, c, ell, ranks[r:r + 1])
            lo = r + 1
        runs.append((block, c, ell, ranks[lo:]))
    if kind == "drop":
        del runs[index[idx]]
    elif kind == "add":
        runs.insert(next((k for k, run in enumerate(runs) if run[0] > 0), len(runs)), added)
    else:  # a swapped member takes the block of the position it moves to
        a, b = index[i], index[j]
        runs[a], runs[b] = runs[a][:1] + runs[b][1:], runs[b][:1] + runs[a][1:]
    return Collection(n, ells=collection.ells, runs=runs)


# -- serialization ----------------------------------------------------------------

COLLECTION_SCHEMA = "toric-exc/collection/1"


def labeled_blocks(collection: Collection) -> list:
    """(ell, [(c, sorted J), ...]) for each block, members in flat order."""
    rows = [[] for _ in collection.ells]
    for block, c, ell, _, ranks in collection.cells:
        rows[block] += ((c, list(j)) for j in _subsets(collection.n, ell, ranks))
    return list(zip(collection.ells, rows))


def collection_to_dict(collection: Collection) -> dict:
    blocks = [{"ell": ell, "members": [{"c": c, "J": j} for c, j in rows]}
              for ell, rows in labeled_blocks(collection)]
    return {"schema": COLLECTION_SCHEMA, "n": collection.n, "blocks": blocks}
