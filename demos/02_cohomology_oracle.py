"""Exact sheaf cohomology of line bundles, straight from the fan.

Every rank is computed over the integers. The demo walks through a few
classical sanity checks: section counts on projective space, the
anticanonical system of the hexagon surface V_2, Serre duality, and the
Euler pairing that the Gram matrix of a collection is made of.
"""

import math

from toric_exc import (
    build_Vn,
    canonical_class,
    cohomology,
    divisor,
    euler_pairing,
    make_F,
    reference,
)


def projective_space():
    # P^3 is not a V_n: its fan and the engine that enumerates every ray
    # subset come from the reference layer
    print("sections of O(d) on P^3:")
    fan = reference.build_Pn(3)
    for d in range(5):
        graded = reference.cohomology(fan, (d, 0, 0, 0))
        formula = math.comb(3 + d, 3)
        print(f"  d = {d}: h^0 = {graded[0]} (binomial says {formula})")
    print()


def hexagon():
    fan = build_Vn(2)
    K = canonical_class(2)
    print("the del Pezzo surface V_2:")
    print(f"  K = {K.coeffs}")
    print(f"  h^0(-K) = {cohomology(fan, -K)[0]} lattice points in the hexagon")
    D = divisor(-1, [-1, 1, 1])
    graded = cohomology(fan, D)
    print(f"  a bundle with intermediate cohomology: {D.coeffs} -> {graded.ranks}")
    dual = cohomology(fan, K - D)
    print(f"  Serre dual {(K - D).coeffs} -> {dual.ranks} (reversed ranks match)")
    print()


def pairing_table():
    fan = build_Vn(2)
    bundles = [make_F(2, 0, []), make_F(2, 1, [0, 1]), make_F(2, 1, [0, 1, 2])]
    print("Euler pairings chi(A, B) on V_2:")
    for A in bundles:
        row = [euler_pairing(fan, A, B) for B in bundles]
        print(f"  {row}")
    print()


if __name__ == "__main__":
    projective_space()
    hexagon()
    pairing_table()
