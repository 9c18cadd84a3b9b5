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

A full sweep counts pairs instead of walking them. A cell is the members
of one block sharing the twist c and the size l of J; it is complete
when its J sets are the l-subsets of 0..n, each once. The verdict of a
pair depends only on its family (c, k, l) and its block relation, and
the number of members of a complete cell meeting a given J in t labels
is a product of binomials, so every pair with a complete cell on one
side is counted in closed form and graded by one representative per
key. Only pairs between members of incomplete cells, pairs with a
member outside F_{c,J}, and the pairs of a group whose key failed are
walked one by one; an unmutated G_n walks none.

G_n is held as its cells alone. Each is complete, with its labels in
lexicographic order at consecutive positions, so it is (block, c, l,
start), and the member at start + r is F_{c,J} for the r-th l-subset J.
Members are made when read: one by one for the pairs a sample or a
failed key walks, all at once for build output, the Gram matrix, the
certificate, a full report, a mutation and a sample of at least half as
many pairs as members. A collection of given blocks parses its members
into cells once, on first read. Every check reads the cells and
per-position views there, so no check on an intact G_n parses or makes
a member per position.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .cohomology import cohomology, euler_pairing
from .cones import (
    HypothesisViolated,
    certify_acyclic,
    certify_higher_acyclic,
    higher_acyclic_predicate,
    lemma_acyclic_predicate,
)
from .fan import build_Vn
from .picard import DivisorClass, act, family_of_parsed, group_generators, make_F, parse_F

METHODS = ("inequalities", "forbidden", "oracle")


class VerificationFailed(Exception):
    def __init__(self, report):
        super().__init__(report.headline())
        self.report = report


@dataclass(frozen=True)
class Block:
    ell: int
    members: tuple[DivisorClass, ...]


class Collection:
    """Blocks of members, or the complete cells of G_n, read through views.

    Collection(n, blocks) holds its members, and its cells are parsed from
    them. Collection(n, cells=...) holds only complete cells, each with its
    labels in lexicographic order at consecutive positions (build_Gn); its
    members are made when read, one by member(p) or all at once by the
    blocks and members views; at and member index the views when the
    members are held. Every view is computed once, on first read; a
    mutation makes a new collection, so no view is stale.
    """

    def __init__(self, n: int, blocks=None, *, cells=None):
        self.n = n
        if cells is None:
            self.blocks = tuple(blocks)
        else:
            self.cells = tuple(cells), ()

    def __eq__(self, other):
        if not isinstance(other, Collection):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """Made from the cells, each member written from its (c, J)."""
        n = self.n
        blocks = {}
        for block, c, ell, *_ in self.cells[0]:
            members = blocks.setdefault(block, (ell, []))[1]
            base = [-c] + [c] * (n + 1)
            for j in combinations(range(1, n + 2), ell):  # coordinates of J
                coeffs = base.copy()
                for x in j:
                    coeffs[x] = c - 1
                members.append(DivisorClass(tuple(coeffs)))
        return tuple(Block(ell, tuple(members)) for ell, members in blocks.values())

    @cached_property
    def members(self) -> tuple[DivisorClass, ...]:
        return tuple(m for b in self.blocks for m in b.members)

    @cached_property
    def shape(self) -> tuple[tuple[int, int], ...]:
        """(ell, size) of each block."""
        if "blocks" in vars(self):
            return tuple((b.ell, len(b.members)) for b in self.blocks)
        shape = {}
        for cell in self.cells[0]:
            ell, size = shape.get(cell.block, (cell.ell, 0))
            shape[cell.block] = ell, size + len(cell.positions)
        return tuple(shape.values())

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        """Flat index -> block index."""
        return tuple(bi for bi, (_, size) in enumerate(self.shape) for _ in range(size))

    @cached_property
    def parsed(self) -> tuple:
        """Flat index -> (c, J) of F_{c,J}, or None for a member outside it."""
        cells, _ = self.cells
        parsed = [None] * self.size
        for cell in cells:
            labels = cell.labels
            if labels is None:
                labels = map(frozenset, combinations(range(self.n + 1), cell.ell))
            for p, j in zip(cell.positions, labels):
                parsed[p] = (cell.c, j)
        return tuple(parsed)

    @cached_property
    def cells(self) -> tuple[tuple[Cell, ...], tuple[int, ...]]:
        """The cells, and the positions of members outside F_{c,J}.

        Parsed from the members when the collection holds them. A member of
        another dimension is outside F_{c,J}.
        """
        n = self.n
        groups = {}
        strangers = []
        position = 0
        for bi, block in enumerate(self.blocks):
            for m in block.members:
                parsed = parse_F(m) if len(m.coeffs) == n + 2 else None
                if parsed is None:
                    strangers.append(position)
                else:
                    c, j = parsed
                    groups.setdefault((bi, c, len(j)), []).append((position, j))
                position += 1
        cells = []
        for (bi, c, ell), entries in groups.items():
            labels = tuple(j for _, j in entries)
            complete = len(set(labels)) == len(labels) == math.comb(n + 1, ell)
            cells.append(Cell(bi, c, ell, tuple(p for p, _ in entries), labels, complete))
        return tuple(cells), tuple(strangers)

    @property
    def size(self) -> int:
        return sum(size for _, size in self.shape)

    def positions(self) -> tuple[tuple[int, int], ...]:
        """Flat index -> (block index, index within block)."""
        return tuple((bi, mi) for bi, (_, size) in enumerate(self.shape)
                     for mi in range(size))

    @cached_property
    def at(self):
        """Flat position -> (block index, (c, J) or None) of its member.

        A tuple of the views when the members are held; otherwise a mapping
        that reads each position from its cell on first use.
        """
        if "blocks" in vars(self):
            return tuple(zip(self.block_of, self.parsed))
        return _ReadOnce(self._read_cell)

    def member(self, p: int) -> DivisorClass:
        """The member at flat position p, made from its cell when not held."""
        if "blocks" in vars(self):
            return self.members[p]
        cell, j = self._locate(p)
        coeffs = [-cell.c] + [cell.c] * (self.n + 1)  # make_F(n, c, j), which cannot fail
        for x in j:
            coeffs[x + 1] = cell.c - 1
        return DivisorClass(tuple(coeffs))

    def _read_cell(self, p):
        cell, j = self._locate(p)
        return cell.block, (cell.c, frozenset(j))

    @cached_property
    def _starts(self) -> list[int]:
        return [cell.positions.start for cell in self.cells[0]]

    def _locate(self, p):
        """The cell of position p and its J, for a collection of cells only."""
        cell = self.cells[0][bisect_right(self._starts, p) - 1]
        r = p - cell.positions.start
        if not 0 <= r < len(cell.positions):
            raise IndexError(f"position {p} outside 0..{self.size - 1}")
        return cell, _nth_subset(self.n + 1, cell.ell, r)


class _ReadOnce(dict):
    """Key -> read(key), computed on the first lookup of each key."""

    def __init__(self, read):
        self.read = read

    def __missing__(self, key):
        value = self[key] = self.read(key)
        return value


def _nth_subset(m: int, ell: int, r: int) -> tuple[int, ...]:
    """The r-th ell-subset of 0..m-1 in lexicographic order.

    The combinatorial number system: C(m - x - 1, ell - 1) subsets have x
    as their least label, so the labels are found in one pass over x.
    """
    out = []
    x = 0
    while ell:
        count = math.comb(m - x - 1, ell - 1)
        if r < count:
            out.append(x)
            ell -= 1
        else:
            r -= count
        x += 1
    return tuple(out)


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
        if ell <= n // 2:
            lo, hi = 4 * ell - n, n
        else:
            lo, hi = n + 2, 4 * ell - n - 2
        for c in range(math.ceil(lo / 4), math.floor(hi / 4) + 1):
            out.append((ell, c))
    return tuple((c, ell) for ell, c in sorted(out))


def build_Gn(n: int) -> Collection:
    """The full collection: every F_{c,J} with (c, |J|) admissible.

    Held as its cells, one complete cell per (c, |J|), with the labels in
    lexicographic order; its members are made when read.
    """
    orbits = {(ell, frozenset({c, ell - c})) for c, ell in build_Fn(n)}
    cells = []
    start = 0
    for bi, (ell, cs) in enumerate(sorted(orbits, key=lambda key: (-key[0], min(key[1])))):
        count = math.comb(n + 1, ell)
        for c in sorted(cs):
            cells.append(Cell(bi, c, ell, range(start, start + count), None, True))
            start += count
    return Collection(n, cells=cells)


class Cell(NamedTuple):
    """The members of one block that share the twist c and |J| = ell.

    When a complete cell holds its labels in lexicographic order at
    consecutive positions, positions is a range and labels is None: the
    member at position start + r is F_{c,J} for the r-th ell-subset J.
    """

    block: int
    c: int
    ell: int
    positions: range | tuple[int, ...]  # flat positions, ascending
    labels: tuple[frozenset, ...] | None  # the J of each position
    complete: bool  # labels are the ell-subsets of 0..n, each once


# -- pairwise verification -----------------------------------------------------


@dataclass(frozen=True)
class PairResult:
    source: int
    target: int
    relation: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Report:
    n: int
    method: str
    size: int
    expected: int
    pairs_checked: int
    violations: tuple[PairResult, ...]
    pair_results: tuple[PairResult, ...] | None = None
    sampled: bool = False

    @property
    def complete(self) -> bool:
        return self.size == self.expected

    @property
    def ok(self) -> bool:
        return self.complete and not self.violations

    def headline(self) -> str:
        if self.ok:
            extra = " (sampled)" if self.sampled else ""
            return (f"ok: {self.size} members, "
                    f"{self.pairs_checked} pairs checked{extra}")
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


def _pair_relation(block_s, block_t):
    if block_s == block_t:
        return "same-block"
    return "forward" if block_s < block_t else "backward"


def verify_exceptional(collection: Collection, method: str = "inequalities",
                       sample=None, full_report: bool = False) -> Report:
    """Grade every ordered pair of distinct positions, plus the size check.

    sample restricts the sweep to the given (source, target) flat index
    pairs; the size check still runs, and a pair that is not two distinct
    positions raises ValueError. A sample or a full report grades pair by
    pair; otherwise the pairs are counted by cell (module docstring).
    Violations come in flat (source, target) order either way. The report
    never raises on its own, call raise_if_failed for that.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n = collection.n
    size = collection.size
    fan = build_Vn(n) if method in ("forbidden", "oracle") else None

    # The verdict of a pair depends only on the S_{n+1}-orbit of its
    # difference, the family (c, k, l), and on the block relation, so each
    # key is graded once per call. A member outside F_{c,J} has no family:
    # its pairs are graded one by one.
    grades = {}

    def grade(family, need_all, difference):
        """Verdict of a pair; difference() builds its target minus source."""
        key = (family, need_all)
        if family is None or key not in grades:
            verdict = _grade_pair(fan, method, n, difference, family, need_all)
            if family is None:
                return verdict
            grades[key] = verdict
        return grades[key]

    def walk(pairs, keep_passing):
        """Grade pairs one by one: the failing results, or all of them."""
        at, member = collection.at, collection.member
        out = []
        for i, j in pairs:
            (block_i, parsed_i), (block_j, parsed_j) = at[i], at[j]
            relation = _pair_relation(block_i, block_j)
            ok, detail = grade(family_of_parsed(parsed_j, parsed_i),
                               relation != "forward",
                               lambda: member(j) - member(i))
            if keep_passing or not ok:
                out.append(PairResult(i, j, relation, ok, detail))
        return out

    if sample is not None:
        pairs = [(int(i), int(j)) for i, j in sample]
        for i, j in pairs:
            if i == j or not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"sample pair ({i}, {j}) is not two distinct "
                                 f"positions in 0..{size - 1}")
        if 2 * len(pairs) >= size:  # most members are read: make them all at once
            collection.members
        results = walk(pairs, full_report)
        checked = len(pairs)
    elif full_report:
        collection.members  # every member is read: make them all at once
        results = walk(_pairs_between(range(size), range(size)), True)
        checked = len(results)
    else:
        cells, strangers = collection.cells
        results = []
        checked = 0
        for sources, targets, terms in _counted_groups(n, cells):
            failed = False
            for (family, need_all), count in terms:
                checked += count
                ok, _ = grade(family, need_all, lambda: _family_class(n, family))
                failed = failed or not ok
            if failed:
                results += walk(_pairs_between(sources, targets), False)
        loose = sorted(strangers + tuple(
            p for cell in cells if not cell.complete for p in cell.positions))
        held = [p for cell in cells if cell.complete
                for p in cell.positions] if strangers else ()
        walked = [*_pairs_between(loose, loose), *_pairs_between(strangers, held),
                  *_pairs_between(held, strangers)]
        if walked:
            results += walk(walked, False)
        checked += len(walked)
        results.sort(key=lambda r: (r.source, r.target))

    return Report(
        n=n, method=method, size=size, expected=expected_size(n),
        pairs_checked=checked, violations=tuple(r for r in results if not r.ok),
        pair_results=tuple(results) if full_report else None,
        sampled=sample is not None,
    )


def _pairs_between(sources, targets):
    """Ordered pairs of distinct positions, in flat order for sorted inputs."""
    return ((i, j) for i in sources for j in targets if i != j)


def _counted_groups(n, cells):
    """Every pair with a complete cell on one side, counted in closed form.

    Yields (sources, targets, terms): one group for each complete cell or
    loose member (of an incomplete cell) as the source and complete cell
    as the target, and one for each complete cell as the source and loose
    member as the target. Each term is (key, count): a key (family,
    need_all) and how many pairs of the group have it.
    """
    complete = [cell for cell in cells if cell.complete]
    loose = [cell._replace(positions=(p,), labels=(j,)) for cell in cells
             if not cell.complete for p, j in zip(cell.positions, cell.labels)]
    for unit in complete + loose:
        for cell in complete:
            yield unit.positions, cell.positions, _terms(n, unit, cell, outgoing=True)
    for unit in loose:
        for cell in complete:
            yield cell.positions, unit.positions, _terms(n, unit, cell, outgoing=False)


def _terms(n, unit, cell, outgoing):
    """Keyed pair counts between the members of unit and a complete cell.

    A member F_{c,J} meets C(|J|, t) C(n + 1 - |J|, l - t) members of a
    complete cell in exactly t labels, whatever J is. A complete unit
    repeats that once per member, less the diagonal when it is the cell.
    Target minus source has the family (c_t - c_s, l_s - t, l_t - t).
    """
    copies = len(unit.positions)
    source, target = (unit, cell) if outgoing else (cell, unit)
    need_all = source.block >= target.block
    out = []
    for t in range(max(0, unit.ell + cell.ell - n - 1), min(unit.ell, cell.ell) + 1):
        count = copies * math.comb(unit.ell, t) * math.comb(n + 1 - unit.ell, cell.ell - t)
        if unit is cell and t == unit.ell:
            count -= copies
        if not count:
            continue
        out.append((((target.c - source.c, source.ell - t, target.ell - t), need_all),
                    count))
    return out


def _family_class(n, family):
    """c(E - H) + E_0 + ... + E_{k-1} - E_k - ... - E_{k+l-1}, in the (c, k, l) family."""
    c, k, ell = family
    return DivisorClass((-c,) + (c + 1,) * k + (c - 1,) * ell + (c,) * (n + 1 - k - ell))


def _grade_pair(fan, method, n, difference, family, need_all):
    """Verdict and detail of a pair; difference() builds target minus source."""
    if method == "oracle":
        ranks = cohomology(fan, difference()).ranks
        bad = any(ranks) if need_all else any(ranks[1:])
        return not bad, f"h = {ranks}"
    if method == "forbidden":
        certify = certify_acyclic if need_all else certify_higher_acyclic
        return certify(fan, difference()), "forbidden-cone sweep"
    if family is None:
        difference()  # raises ValueError for a member of another dimension
        return False, "member outside the F_{c,J} family"
    c, k, ell = family
    label = f"(c, k, l) = ({c}, {k}, {ell})"
    if not need_all:
        return higher_acyclic_predicate(n, c, k, ell), label
    try:
        return lemma_acyclic_predicate(n, c, k, ell), label
    except HypothesisViolated as e:
        return False, f"{label}: {e}"


# -- group stability ------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    n: int
    ok: bool
    failures: tuple[str, ...]

    def raise_if_failed(self):
        if not self.ok:
            raise VerificationFailed(self)
        return self

    def headline(self) -> str:
        if self.ok:
            return "ok: every generator preserves every block"
        return f"{len(self.failures)} stability failures, first: {self.failures[0]}"


def verify_stability(collection: Collection) -> StabilityReport:
    """Check every group generator maps every block onto itself.

    Also pins the involution's closed form on each member: F_{c,J} must
    land on F_{|J|-c,J} exactly.

    The cells decide first. `permute` sends F_{c,J} to F_{c,sigma J}, so a
    cell whose J labels, as a set, are all the l-subsets of 0..n is
    S_{n+1}-stable. `antipodal_involution` is S_{n+1}-equivariant, so when
    it sends one representative F_{c,J} to F_{l-c,J}, it sends the (c, l)
    cell onto the (l - c, l) cell, closed form included. A block of such
    cells, each with its partner, and no member outside F_{c,J} is stable.
    Any other collection runs the flat loop, which alone words failures.
    """
    n = collection.n
    if _stable_by_cells(collection):
        return StabilityReport(n, True, ())
    failures = []
    for gi, g in enumerate(group_generators(n)):
        for bi, block in enumerate(collection.blocks):
            image = {act(g, m) for m in block.members}
            if image != set(block.members):
                failures.append(f"generator {gi} moves block {bi} off itself")
    for m, parsed in zip(collection.members, collection.parsed):
        if parsed is None:
            failures.append(f"member {m.coeffs} outside the F_{{c,J}} family")
            continue
        c, j = parsed
        flipped = act((tuple(range(n + 1)), True), m)
        if flipped != make_F(n, len(j) - c, j):
            failures.append(f"involution breaks closed form on {m.coeffs}")
    return StabilityReport(n, not failures, tuple(failures))


def _stable_by_cells(collection: Collection) -> bool:
    """Whether the cells alone prove the collection stable (verify_stability)."""
    n = collection.n
    cells, strangers = collection.cells
    if strangers:
        return False
    keys = {(cell.block, cell.c, cell.ell) for cell in cells}
    flip = (tuple(range(n + 1)), True)
    for cell in cells:
        partner = cell.ell - cell.c
        first = cell.labels[0] if cell.labels else range(cell.ell)  # the least l-subset
        if (not cell.complete and len(set(cell.labels)) != math.comb(n + 1, cell.ell)
                or (cell.block, partner, cell.ell) not in keys
                or act(flip, make_F(n, cell.c, first)) != make_F(n, partner, first)):
            return False
    return True


# -- numerics -------------------------------------------------------------------


def gram_matrix(collection: Collection) -> tuple[tuple[int, ...], ...]:
    """Euler pairings chi(E_i, E_j) over flat positions, by the oracle.

    chi(E_i, E_j) depends only on the family of E_j - E_i, so each family
    is computed once; the diagonal is the family (0, 0, 0). An entry with
    a member outside F_{c,J} is computed on its own.
    """
    fan = build_Vn(collection.n)
    members, parsed = collection.members, collection.parsed
    by_family = {}

    def entry(i, j):
        family = family_of_parsed(parsed[j], parsed[i])
        if family is None:
            return euler_pairing(fan, members[i], members[j])
        if family not in by_family:
            by_family[family] = euler_pairing(fan, members[i], members[j])
        return by_family[family]

    indices = range(len(members))
    return tuple(tuple(entry(i, j) for j in indices) for i in indices)


# -- mutations -------------------------------------------------------------------


def apply_mutation(collection: Collection, text: str) -> Collection:
    """Deliberately damage a collection: drop:IDX, add:c,J, swap:I,J.

    Indices are flat positions. add parses J as dash-separated labels
    (empty for the twist alone) and appends to the first block.
    """
    kind, _, arg = text.partition(":")
    members = [list(b.members) for b in collection.blocks]
    if kind == "drop":
        idx = int(arg)
        positions = collection.positions()
        if not 0 <= idx < len(positions):
            raise ValueError(f"drop index {idx} out of range")
        bi, mi = positions[idx]
        del members[bi][mi]
    elif kind == "add":
        c_text, _, j_text = arg.partition(",")
        c = int(c_text)
        j = [int(x) for x in j_text.split("-") if x != ""]
        members[0].append(make_F(collection.n, c, j))
    elif kind == "swap":
        i_text, _, j_text = arg.partition(",")
        i, j = int(i_text), int(j_text)
        positions = collection.positions()
        if not (0 <= i < len(positions) and 0 <= j < len(positions)):
            raise ValueError(f"swap indices {i},{j} out of range")
        (bi, mi), (bj, mj) = positions[i], positions[j]
        members[bi][mi], members[bj][mj] = members[bj][mj], members[bi][mi]
    else:
        raise ValueError(f"unknown mutation {text!r}")
    return Collection(collection.n, tuple(
        replace(b, members=tuple(ms)) for b, ms in zip(collection.blocks, members)))


# -- serialization ----------------------------------------------------------------

COLLECTION_SCHEMA = "toric-exc/collection/1"


def labeled_blocks(collection: Collection) -> list:
    """(ell, [(c, sorted J), ...]) for each block, members in flat order.

    A member outside F_{c,J} raises ValueError.
    """
    parsed = collection.parsed
    out = []
    start = 0
    for ell, size in collection.shape:
        rows = []
        for p in range(start, start + size):
            if parsed[p] is None:
                raise ValueError(
                    f"member {collection.member(p).coeffs} is not an F_{{c,J}} class")
            c, j = parsed[p]
            rows.append((c, sorted(j)))
        out.append((ell, rows))
        start += size
    return out


def collection_to_dict(collection: Collection) -> dict:
    blocks = [{"ell": ell, "members": [{"c": c, "J": j} for c, j in rows]}
              for ell, rows in labeled_blocks(collection)]
    return {"schema": COLLECTION_SCHEMA, "n": collection.n, "blocks": blocks}


def collection_from_dict(data: dict) -> Collection:
    if data.get("schema") != COLLECTION_SCHEMA:
        raise ValueError(f"expected schema {COLLECTION_SCHEMA}")
    n = int(data["n"])
    blocks = []
    for block in data["blocks"]:
        members = tuple(make_F(n, int(m["c"]), m["J"]) for m in block["members"])
        blocks.append(Block(int(block["ell"]), members))
    return Collection(n, tuple(blocks))
