#!/usr/bin/env python3
"""Tour of the symbolic layer: Hermite polynomials, cumulants, correction
polynomials, and the first-order entropy coefficient b(r), derived from the
exact log of the L^r-norm series and checked against its closed form.

Everything printed here is exact rational arithmetic until the final float
formatting.
"""

import math
from fractions import Fraction

import renyi_clt as rc

print("Chebyshev-Hermite polynomials (monic, normal-weight orthogonal):")
for k in range(7):
    print(f"  H_{k} = {rc.hermite(k)}")

print("\nCumulants from moments (log of the moment series), uniform base law:")
uniform_moments = rc.Uniform().moments(8)
print("  raw moments alpha_1..alpha_8:", uniform_moments)
cums = rc.cumulants_from_moments(rc.MomentVector(tuple(uniform_moments)))
print("  cumulants  gamma_1..gamma_8:", cums.values)

print("\nDensity-correction polynomials Q_k for the uniform law:")
for k in (1, 2, 3, 4):
    print(f"  Q_{k} = {rc.correction_polynomial(k, cums)}")

print("\nFirst-order entropy coefficient b(r), derived from the exact log series;")
print("  the closed form it is checked against: -(1/r)[(2-r)/12 g3^2 + (r-1)/8 g4]")
laws = {
    "uniform": rc.standard_cumulants("uniform", order=4),
    "gamma(alpha=4)": rc.standard_cumulants("gamma", order=4, alpha=4),
    "gamma(alpha=1)": rc.standard_cumulants("gamma", order=4, alpha=1),
    "two-sided exponential": rc.standard_cumulants("two_sided_exponential", order=4),
}
r_grid = (1, Fraction(3, 2), 2, 5, math.inf)
hdr = "  {:<22}".format("law") + "".join(f"{str(r):>10}" for r in r_grid) + "   verdict(r=2)"
print(hdr)
for name, c in laws.items():
    row = "  {:<22}".format(name)
    for r in r_grid:
        row += f"{float(rc.b_coefficient(r, c)):>10.4f}"
    row += "   " + rc.monotonicity_prediction(2, c)
    print(row)

print("\nSign-change threshold r0 (only when gamma_3 != 0, gamma_4 < (2/3) gamma_3^2):")
skewed = rc.CumulantVector((0, 1, Fraction(3, 2), Fraction(1, 5)))
r0 = rc.sign_change_threshold(skewed)
print(f"  cumulants {skewed.values}: r0 = {r0} = {float(r0):.4f}")
for r in (float(r0) - 0.1, float(r0) + 0.1):
    print(f"  B1({r:.2f}) = -b({r:.2f}) = {-float(rc.b_coefficient(r, skewed)):+.5f}")
print("  beyond r0 the Renyi 'distance' h_r(Z) - h_r(Z_n) turns negative:")
print("  the normalized sums eventually carry MORE Renyi entropy than the limit.")
