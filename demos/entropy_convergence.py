#!/usr/bin/env python3
"""Renyi entropies along the CLT: measurement vs expansion prediction.

For the uniform and standardized Gamma(4) laws, compares h_r(Z_n) computed
from inverted densities with h_r(Z) + sum b_j n^{-j}, and shows the
Richardson-extrapolated first-order rates converging to b(r).
"""

import renyi_clt as rc

for name, params, key in (("uniform", {}, "uniform"), ("gamma", {"alpha": 4}, "gamma(4)")):
    spec = rc.from_name(name, **params)
    cums = rc.standard_cumulants(name, order=8, **params)
    r = 2.0
    coeffs = rc.entropy_expansion(8, r, cums)
    h_gauss = rc.gaussian_renyi_entropy(r)
    b = float(rc.b_coefficient(r, cums))
    print(f"\n{key}: b(2) = {b:+.6f}, higher coefficients b_2={coeffs.b[1]:+.5f}, "
          f"b_3={coeffs.b[2]:+.5f}")
    print(f"  {'n':>4} {'h_2(Z_n)':>12} {'predicted':>12} {'residual':>11} "
          f"{'n*(h-h_inf)':>12}")
    estimates = {}
    for n in (16, 32, 64, 128, 256):
        g = rc.density_of_normalized_sum(spec, n)
        h = rc.renyi_entropy(g, r)
        pred = h_gauss + coeffs.entropy_offset(n)
        estimates[n] = n * (h - h_gauss)
        print(f"  {n:>4} {h:>12.8f} {pred:>12.8f} {h - pred:>11.2e} "
              f"{estimates[n]:>12.7f}")
    extrap = 2 * estimates[256] - estimates[128]  # Richardson: cancels the 1/n term
    print(f"  Richardson(128, 256) -> {extrap:.7f}  (b(2) = {b:.7f})")

print("\nShannon case (r=1) for gamma(4): n * D(Z_n || Z) = n * (h(Z) - h(Z_n))"
      " -> gamma_3^2 / 12")
gam = rc.StandardizedGamma(4)
h_limit = rc.gaussian_renyi_entropy(1)
est = {}
for n in (32, 64, 128):
    g = rc.density_of_normalized_sum(gam, n)
    est[n] = n * (h_limit - rc.shannon_entropy(g))
    print(f"  n={n:4d}  n*D = {est[n]:.7f}")
print(f"  Richardson(64, 128) -> {2 * est[128] - est[64]:.7f}  "
      f"(gamma_3^2/12 = {1 / 12:.7f})")

print("\nmonotonicity of the entropy power N_2(Z_n) at small n:")
for name, params in (("uniform", {}), ("gamma", {"alpha": 4})):
    spec = rc.from_name(name, **params)
    vals = [rc.entropy_power(rc.density_of_normalized_sum(spec, n), 2.0)
            for n in range(8, 14)]
    diffs = ", ".join(f"{b - a:+.2e}" for a, b in zip(vals, vals[1:]))
    verdict = rc.monotonicity_prediction(
        2.0, rc.standard_cumulants(name, order=4, **params)
    )
    print(f"  {name:8s} diffs: {diffs}   predicted: {verdict}")
