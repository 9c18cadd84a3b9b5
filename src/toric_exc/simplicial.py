"""Simplicial complexes and exact reduced homology over the integers.

A complex is stored as the downward closure of its facets. The empty face
is a genuine face of every nonvoid complex, so chain groups start in
degree -1 and homology is reduced: a single point is acyclic, while the
complex whose only face is the empty one has homology Z in degree -1.
The void complex (no faces at all) has no homology in any degree.

No command loads this module: `toric_exc.reference` computes the pattern
homology table with it, as the reference for the closed form in
`cohomology._pattern_homology`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import smith_normal_form


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces as frozensets of vertex labels, closed under taking subsets."""

    faces: frozenset

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.faces), default=0) - 1

    def faces_of_dim(self, p: int) -> list[frozenset]:
        return sorted((f for f in self.faces if len(f) == p + 1), key=sorted)

    @property
    def vertices(self) -> list:
        return sorted(v for f in self.faces if len(f) == 1 for v in f)


def simplicial_complex(facets) -> SimplicialComplex:
    """Downward closure of the given facets; no facets gives the void complex."""
    faces = set()
    for facet in facets:
        labels = sorted(set(facet))
        for k in range(len(labels) + 1):
            faces.update(map(frozenset, combinations(labels, k)))
    return SimplicialComplex(frozenset(faces))


def _boundary_matrix(lower: list[frozenset], upper: list[frozenset]) -> list[list[int]]:
    index = {f: i for i, f in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        labels = sorted(face)
        for i in range(len(labels)):
            sub = frozenset(labels[:i] + labels[i + 1 :])
            mat[index[sub]][j] = -1 if i % 2 else 1
    return mat


def reduced_homology(complex_: SimplicialComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Reduced integral homology, degree -> (free rank, torsion factors > 1).

    Degrees run from -1 through the dimension of the complex. The void
    complex returns an empty mapping.
    """
    if not complex_.faces:
        return {}
    top = complex_.dim
    layers = {p: complex_.faces_of_dim(p) for p in range(-1, top + 1)}
    boundary_rank = {}
    boundary_torsion = {}
    for p in range(0, top + 1):
        snf = smith_normal_form(_boundary_matrix(layers[p - 1], layers[p]))
        boundary_rank[p] = snf.rank
        boundary_torsion[p] = tuple(d for d in snf.factors if d > 1)
    out = {}
    for p in range(-1, top + 1):
        rank = len(layers[p]) - boundary_rank.get(p, 0) - boundary_rank.get(p + 1, 0)
        out[p] = (rank, boundary_torsion.get(p + 1, ()))
    return out


def homology_ranks(complex_: SimplicialComplex) -> dict[int, int]:
    return {p: r for p, (r, _) in reduced_homology(complex_).items()}


def has_torsion(complex_: SimplicialComplex) -> bool:
    return any(t for _, t in reduced_homology(complex_).values())


def is_acyclic(complex_: SimplicialComplex) -> bool:
    """True when every reduced homology group vanishes."""
    return all(r == 0 and not t for r, t in reduced_homology(complex_).values())
