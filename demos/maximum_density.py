#!/usr/bin/env python3
"""The r = infinity branch: how high the density of Z_n peaks, and what that
says about N_inf(Z_n).

h_inf(Z_n) = -log sup p_n is the r -> inf limit of the Renyi entropies, so
its expansion h_inf(Z) + sum b_j(inf) n**(-j) comes from the same exact
polynomials as every finite r.  The sup-norm itself is then
phi(0) exp(-sum b_j(inf) n**(-j)), and N_inf(Z_n) is eventually monotone by
the sign of b(inf) = -(gamma_4 - (2/3) gamma_3^2)/8.
"""

import math

import renyi_clt as rc

phi0 = 1 / math.sqrt(2 * math.pi)
for label, name, params, spec in (
    ("gamma(4)", "gamma", {"alpha": 4}, rc.StandardizedGamma(4)),
    ("uniform", "uniform", {}, rc.Uniform()),
):
    cums = rc.standard_cumulants(name, order=8, **params)
    coeffs = rc.limit_expansion(8, math.inf, cums)
    print(f"\n{label}: exact coefficients at r = inf")
    print("  b_j(inf) =", ", ".join(str(b) for b in coeffs.b))
    print("  c_j(inf) =", ", ".join(str(c) for c in coeffs.c),
          "  (N_inf(Z_n) / N_inf(Z) = 1 + sum c_j n^-j)")
    print(f"  {'n':>5} {'sup p_n':>12} {'predicted':>12} {'rel err':>9} "
          f"{'N_inf ratio':>12} {'predicted':>12}")
    for n in (16, 32, 64, 128):
        measured = rc.sup_norm(rc.density_of_normalized_sum(spec, n))
        predicted = phi0 * math.exp(-coeffs.entropy_offset(n))
        print(f"  {n:>5} {measured:>12.9f} {predicted:>12.9f} "
              f"{abs(measured - predicted) / measured:>9.1e} "
              f"{(phi0 / measured) ** 2:>12.9f} {coeffs.entropy_power_factor(n):>12.9f}")

print("\neventual monotonicity of N_inf(Z_n), by the sign of b(inf):")
for name, params in (("gamma", {"alpha": 4}), ("uniform", {})):
    c = rc.standard_cumulants(name, order=4, **params)
    print(f"  {name:8s} b(inf) = {rc.b_coefficient(math.inf, c)!s:>6}  ->  "
          f"{rc.monotonicity_prediction(math.inf, c)}")
