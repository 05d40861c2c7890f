"""Densities of normalized i.i.d. sums by Fourier inversion, and the
functionals computed on them.

The normalized sum Z_n = (X_1 + ... + X_n)/sqrt(n) has characteristic
function f_n(t) = f(t/sqrt(n))**n.  n is a positive integer, so the
principal complex power is exact and needs no phase tracking.

The density is recovered on a uniform spatial grid by a discrete Fourier
inversion whose frequency lattice is the reciprocal of the spatial one, so
a single real-output inverse FFT per n suffices.  Simpson quadrature on the
fixed grid then yields L^r integrals, Renyi/Shannon entropies, entropy
powers, KL divergence from the standard normal, and the (parabola-refined)
sup-norm.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import simpson

from .distributions import DistributionSpec

__all__ = [
    "GridError",
    "DensityGrid",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_GRID_EXTENT",
    "characteristic_power",
    "density_of_normalized_sum",
    "tabulate_density",
    "lr_integral",
    "renyi_entropy",
    "entropy_power",
    "shannon_entropy",
    "kl_to_gaussian",
    "sup_norm",
    "SmoothingResult",
    "smoothing_diagnostic",
]

DEFAULT_GRID_POINTS = 2**17
DEFAULT_GRID_EXTENT = 16.0

_NEGATIVE_CLIP = 1e-8
_MASS_DEFECT_LIMIT = 1e-6


class GridError(RuntimeError):
    """A density grid failed a resolution or positivity check."""


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Sampled density of Z_n on the uniform grid x0 + j*h, j = 0..len-1.

    ``mass_defect`` records |1 - sum(values)*h| and ``min_value`` the most
    negative raw sample before clipping.  Immutable; safe to share.
    Identity-compared (the array field makes value equality ill-defined).
    """

    x0: float
    h: float
    values: np.ndarray
    n: int
    mass_defect: float
    min_value: float

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(len(self.values))

    def write_csv(self, path) -> None:
        """Dump the grid as CSV with columns x, p_n."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "p_n"])
            for xv, pv in zip(self.x, self.values):
                writer.writerow([format(xv, ".17g"), format(pv, ".17g")])


def _cf_power(spec: DistributionSpec, n: int, t) -> np.ndarray:
    """f(t/sqrt(n))**n, the principal power (exact for integer n)."""
    return np.asarray(spec.cf(t / math.sqrt(n)), dtype=complex) ** n


def characteristic_power(spec: DistributionSpec, n: int, t):
    """Characteristic function of Z_n at t: f(t/sqrt(n))**n.

    ``t`` may be a scalar (a complex is returned) or an array of any order.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    t_arr = np.asarray(t, dtype=float)
    vals = _cf_power(spec, n, t_arr)
    return complex(vals.item()) if t_arr.ndim == 0 else vals


def _folded_spectrum(spec: DistributionSpec, n: int, npoints: int, dt: float,
                     tail_bound: float, eval_cap: int) -> np.ndarray:
    """Fold the powered characteristic function onto the N frequency bins.

    The inversion lattice t_m = m*dt aliases with period N: because the grid
    offset satisfies N*dt*x0 = -pi*N (even N), contributions from m and
    m + N land in the same FFT bin with the same phase.  Folding successive
    frequency periods therefore refines the plain single-period truncation
    at the cost of extra cf evaluations only.  Periods are appended until a
    conservative bound on the residual ringing (tail integral of |f_n|
    divided by pi, assuming at worst 1/t**2 envelope decay) drops below
    ``tail_bound`` or ``eval_cap`` lattice points have been used.
    """
    N = npoints
    quarter = N // 4
    bins = np.zeros(N, dtype=complex)
    max_chunks = max(1, eval_cap // N)
    chunk = 0
    while True:
        vals = _cf_power(spec, n, dt * np.arange(chunk * N, (chunk + 1) * N))
        bins += vals
        chunk += 1
        tail_int = float(np.abs(vals[-quarter:]).sum()) * dt
        t_hi = chunk * N * dt
        ringing = tail_int * (t_hi / (quarter * dt)) / math.pi
        if ringing < tail_bound or chunk >= max_chunks:
            break
    return bins


def density_of_normalized_sum(
    spec: DistributionSpec,
    n: int,
    npoints: int = DEFAULT_GRID_POINTS,
    extent: float = DEFAULT_GRID_EXTENT,
    tail_bound: float = 5e-9,
) -> DensityGrid:
    """Density p_n of Z_n on [-extent, extent) by Fourier inversion.

    f_n is sampled on the lattice reciprocal to the grid, folded (see
    ``_folded_spectrum``) and inverted with one real-output inverse FFT.

    Requires n >= spec.n_min (below that the characteristic power is not
    integrable and the inversion is meaningless).  Raises
    :class:`GridError` when the mass defect reaches 1e-6 or a sample is more
    negative than -1e-8; samples in [-1e-8, 0) are clipped to zero and the
    pre-clip minimum is kept in ``min_value``.

    ``tail_bound`` steers how far beyond the base frequency period the
    characteristic power is folded back onto the lattice; slowly decaying
    characteristic functions (small n, compactly supported laws) need the
    extra zones to keep truncation ringing below the negativity threshold.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n < spec.n_min:
        raise ValueError(
            f"n={n} below n_min={spec.n_min} for {spec.name}: density unbounded "
            "or characteristic power not integrable"
        )
    if npoints < 1024 or npoints % 2:
        raise ValueError("npoints must be an even integer >= 1024")
    if extent < 12:
        raise ValueError("grid extent must cover at least 12 standard deviations")

    N = int(npoints)
    L = float(extent)
    h = 2 * L / N
    dt = 2 * math.pi / (N * h)
    pos_fold = _folded_spectrum(spec, n, N, dt, tail_bound, eval_cap=2**27)

    # bins 0..N/2 of the full two-sided fold: bin b also receives every m < 0
    # with m mod N == b, i.e. the conjugate of the positive fold at -b mod N
    # (minus the double-counted m = 0 term, where f_n = 1).  The phase
    # exp(-i b dt x0) of the offset x0 = -L is exactly (-1)**b since
    # dt*L = pi, and the Hermitian spectrum makes the sum real.
    b = np.arange(N // 2 + 1)
    fn = pos_fold[b] + np.conj(pos_fold[-b])
    fn[0] -= 1.0
    fn[1::2] *= -1.0
    values = np.fft.irfft(np.conj(fn), n=N) / h

    mass_defect = abs(1.0 - float(values.sum() * h))
    if mass_defect >= _MASS_DEFECT_LIMIT:
        raise GridError(f"grid under-resolved: mass defect {mass_defect:.3e}")
    min_value = float(values.min())
    if min_value < -_NEGATIVE_CLIP:
        raise GridError(
            f"inversion produced negative density {min_value:.3e} at n={n}; "
            "grid under-resolved"
        )
    values = np.maximum(values, 0.0)
    return DensityGrid(
        x0=-L,
        h=h,
        values=values,
        n=n,
        mass_defect=mass_defect,
        min_value=min_value,
    )


def tabulate_density(density, x0: float, h: float, npoints: int, n: int = 1) -> DensityGrid:
    """DensityGrid by direct tabulation of a density callable (or spec).

    Intended for laws whose density is known in closed form (oracles, n = 1
    cases below the inversion threshold).  The mass defect is recorded but
    not enforced; choose the grid to fit the support.
    """
    fn = density.density if isinstance(density, DistributionSpec) else density
    x = x0 + h * np.arange(npoints)
    values = np.asarray(fn(x), dtype=float)
    min_value = float(values.min())
    if min_value < -_NEGATIVE_CLIP:
        raise GridError(f"tabulated density has negative values: {min_value:.3e}")
    values = np.maximum(values, 0.0)
    mass_defect = abs(1.0 - float(values.sum() * h))
    return DensityGrid(
        x0=float(x0), h=float(h), values=values, n=n,
        mass_defect=mass_defect, min_value=min_value,
    )


def lr_integral(grid: DensityGrid, r: float) -> float:
    """int p**r over the grid by composite Simpson quadrature (r >= 1)."""
    if not r >= 1:
        raise ValueError("r must be >= 1")
    return float(simpson(grid.values**r, dx=grid.h))


def renyi_entropy(grid: DensityGrid, r: float) -> float:
    """h_r = -log(int p**r)/(r-1) for r > 1."""
    if not r > 1:
        raise ValueError("r must exceed 1")
    integral = lr_integral(grid, r)
    if not integral > 0:
        raise ValueError("non-positive L^r integral; grid is degenerate")
    return -math.log(integral) / (r - 1)


def entropy_power(grid: DensityGrid, r: float) -> float:
    """N_r = exp(2 h_r)."""
    return math.exp(2.0 * renyi_entropy(grid, r))


def shannon_entropy(grid: DensityGrid) -> float:
    """h = -int p log p with 0 log 0 = 0."""
    v = grid.values
    integrand = np.zeros_like(v)
    pos = v > 0
    integrand[pos] = -v[pos] * np.log(v[pos])
    return float(simpson(integrand, dx=grid.h))


def kl_to_gaussian(grid: DensityGrid) -> float:
    """D(p || phi) = int p log(p/phi); non-negative up to quadrature error."""
    v = grid.values
    x = grid.x
    log_phi = -0.5 * x * x - 0.5 * math.log(2 * math.pi)
    integrand = np.zeros_like(v)
    pos = v > 0
    integrand[pos] = v[pos] * (np.log(v[pos]) - log_phi[pos])
    return float(simpson(integrand, dx=grid.h))


def sup_norm(grid: DensityGrid) -> float:
    """Maximum of the sampled density, refined by a parabola through the
    grid argmax and its neighbours."""
    v = grid.values
    j = int(np.argmax(v))
    if j == 0 or j == len(v) - 1:
        return float(v[j])
    a = 0.5 * (v[j + 1] + v[j - 1]) - v[j]
    b = 0.5 * (v[j + 1] - v[j - 1])
    if a >= 0:
        return float(v[j])
    return float(v[j] - b * b / (4 * a))


class SmoothingResult(NamedTuple):
    """Outcome of the characteristic-function integrability probe."""

    value: float
    converged: bool
    t_final: float


def smoothing_diagnostic(
    spec: DistributionSpec,
    nu: float,
    threshold: float = 1e-8,
    t_start: float = 8.0,
    t_cap: float = 1e8,
) -> SmoothingResult:
    """Probe int_{|t|<=T} |f(t)|**nu dt under doubling T.

    Declared converged once the increment from T to 2T falls below
    ``threshold``; non-convergence (T reaching ``t_cap``) is reported in the
    flag, never as an error.  Heavy-tailed |f| (e.g. |f| ~ 1/|t| with nu = 1)
    therefore comes back flagged as divergent.
    """
    if not nu >= 1:
        raise ValueError("nu must be >= 1")

    def seg(a: float, b: float) -> float:
        # Simpson with a step fine enough for the oscillation scale of cf
        step = 1.0 / 128.0 if b <= 1024.0 else 0.25
        npts = max(2, int(math.ceil((b - a) / step)))
        step = (b - a) / npts  # land on b exactly so octaves tile [0, T]
        total = 0.0
        chunk = 2**21
        for lo in range(0, npts, chunk):
            hi = min(lo + chunk, npts)
            tt = a + step * np.arange(lo, hi + 1)
            vals = np.abs(np.atleast_1d(spec.cf(tt))) ** nu
            total += float(simpson(vals, dx=step))
        return total

    total = 2.0 * seg(0.0, t_start)
    T = t_start
    while T < t_cap:
        increment = 2.0 * seg(T, 2 * T)
        total += increment
        T *= 2
        if increment < threshold:
            return SmoothingResult(value=total, converged=True, t_final=T)
    return SmoothingResult(value=total, converged=False, t_final=T)
