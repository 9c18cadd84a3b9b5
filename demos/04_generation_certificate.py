"""Walls, weight windows, and the generation certificate.

Each subset J of the n + 1 index slots defines a linearized character whose
weight slices the collection into a bounded window. Crossing a wall inside
the window replaces the wall locus by a Koszul resolution whose terms stay
inside the collection; chaining the walls down to the empty set certifies
that the collection generates everything it needs to.
"""

from toric_exc import (
    build_Gn,
    build_certificate,
    default_gauge,
    verify_walls,
    wall_record,
    weight,
)


def window_demo(n: int) -> None:
    collection = build_Gn(n)
    J = (0,)
    record = wall_record(n, J)
    values = sorted({weight(n, J, m) for m in collection.members})
    print(f"V_{n}, wall J = {list(J)} at gauge d = {default_gauge(n)}:")
    print(f"  window {record.window}, weights actually hit: {values}")
    for piece in record.pieces:
        print(f"  wall level a = {piece.a}: {piece.branch} branch, "
              f"{len(piece.components)} Koszul terms")
    print()


def full_certificate(n: int) -> None:
    certificate = build_certificate(n)
    walls = sum(record.walls for record in certificate.sizes)
    pieces = sum(record.walls * len(record.pieces) for record in certificate.sizes)
    print(f"V_{n} certificate: {walls} walls in {len(certificate.sizes)} sizes, "
          f"{pieces} pieces, base case {certificate.base_case!r}")
    check = verify_walls(n)
    print(f"  wall/circuit match: {check.circuit_count} circuits = "
          f"{check.pair_count} antipodal pairs + {check.sign_choice_count} "
          f"slot choices")
    print()


if __name__ == "__main__":
    for n in (2, 4):
        window_demo(n)
    for n in (2, 4, 6, 8):
        full_certificate(n)
