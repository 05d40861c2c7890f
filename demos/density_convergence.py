#!/usr/bin/env python3
"""Local limit behavior: densities of normalized sums against the normal
density and its Edgeworth corrections.

Builds p_n for the uniform base law by characteristic-function powering and
Fourier inversion, then tracks the weighted sup distance from the order-4
corrected density as n grows (the decay rate is n^{-1} in general, faster
for symmetric laws).  Ends with the hypothesis behind every grid: each law's
n_min, the cf-envelope fact it rests on, and the inversion refusing a
smaller n.
"""

import numpy as np

import renyi_clt as rc

uniform = rc.Uniform()
print(f"base law: uniform on (-sqrt(3), sqrt(3)); n_min = {uniform.n_min}")

print("\nplain local limit: sup |p_n - phi| along n")
for n in (2, 4, 8, 16, 32):
    g = rc.density_of_normalized_sum(uniform, n)
    err = np.abs(g.values - rc.normal_pdf(g.x)).max()
    print(f"  n={n:3d}  sup|p_n - phi| = {err:.3e}   mass defect {g.mass_defect:.1e}")

cums = rc.standard_cumulants("uniform", order=4)
model = rc.EdgeworthModel.from_cumulants(cums)
print("\norder-4 correction: sup (1+x^4)|p_n - phi_4| and the fitted decay")
ns = (16, 32, 64, 128, 256)
errs = []
for n in ns:
    g = rc.density_of_normalized_sum(uniform, n)
    w = 1.0 + np.abs(g.x) ** 4
    errs.append(float(np.max(w * np.abs(g.values - model.density(n, g.x)))))
    print(f"  n={n:3d}  weighted sup error = {errs[-1]:.3e}")
slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
print(f"  fitted log-log slope: {slope:.3f} (symmetric law: next correction at n^-2)")

print("\ndensity hypothesis: Z_n has a bounded density from n = n_min on, the")
print("least n with t E(t)^n -> 0, where E is the cf envelope (|f| <= E):")
mixture = rc.GaussianMixture((0.25, 0.75), (1.5, -0.5), (0.5, 0.5))
laws = [
    ("uniform", uniform, "|f(t)| <= 1/(sqrt(3) t), so |f|^2 is integrable and |f| is not"),
    ("Laplace", rc.TwoSidedExponential(), "|f(t)| = 1/(1 + t^2/2) is integrable"),
    ("normal", rc.from_name("gaussian"), "|f(t)| = exp(-t^2/2) is integrable"),
    ("mixture", mixture, "|f(t)| <= sum w_i exp(-sigma_i^2 t^2/2) is integrable"),
    ("Gamma(1/2)", rc.StandardizedGamma(0.5), "|f(t)| = (1 + 2 t^2)^(-1/4): |f|^n is integrable iff n > 2"),
    ("Gamma(4)", rc.StandardizedGamma(4), "|f(t)| = (1 + t^2/4)^(-2) is integrable"),
]
t = 1e6
print(f"  {'law':11s} n_min  t E^(n_min-1)  t E^n_min   at t = {t:.0e}")
for label, spec, fact in laws:
    below, at = (t * spec.cf_envelope(t) ** k for k in (spec.n_min - 1, spec.n_min))
    print(f"  {label:11s} {spec.n_min:5d}  {below:13.1e}  {at:9.1e}")
    print(f"    {fact}")
print("  a table: the hat basis gives |f(t)| = O(t^-2), so n_min = 1")

print("\nthe inversion refuses n = n_min - 1:")
for spec in (uniform, rc.StandardizedGamma(0.5)):
    try:
        rc.density_of_normalized_sum(spec, spec.n_min - 1)
    except ValueError as exc:
        print(f"  {exc}")
