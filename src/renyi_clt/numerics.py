"""Densities of normalized i.i.d. sums by Fourier inversion, and the
functionals computed on them.

The normalized sum Z_n = (X_1 + ... + X_n)/sqrt(n) has characteristic
function f_n(t) = f(t/sqrt(n))**n.  n is a positive integer, so the
principal complex power is exact and needs no phase tracking.

The density is recovered on a uniform spatial grid by a discrete Fourier
inversion whose frequency lattice is the reciprocal of the spatial one, so
one real-output inverse FFT turns a folded spectrum into density samples.
When the law gives a cf envelope (a non-increasing bound on |f|) under which
f_n is negligible beyond a short band of the first period, only that band
is evaluated and the rest of the period is zero.  Otherwise the whole first
period is evaluated, and when |f_n| still decays too slowly over it (small
n, laws with kinks or jumps), further periods are folded onto the same
bins: their count K doubles, and two-point Richardson extrapolation
2 S_2K - S_K cancels the 1/K truncation error of the K-period fold S_K.
Doubling stops after two consecutive steps between extrapolants, each the
l1 norm of the two-sided bins of R_K - R_{K/2} over N h (a bound at every
x), fall below the tail bound, or at a fixed cap on cf evaluations; only the
last extrapolant is inverted.  Each grid records its fold count, whether
the cap stopped it, and its ringing bound.
Periods are added in blocks of 2**15 bins, each block taking every new
period in turn, so that a block's cf values, their power and its slice of
the fold stay in cache.  Each pass over the bins does its arithmetic once:
the power is taken in place in the cf's own array, and not at all at
n = 1; the Hermitian bins, of the inversion and of each step, are built
from slices, the inversion's as complex and scaled in place; and the
doubling loop keeps three N-bin buffers, S_K, S_2K and S_2K - S_K, writing
each doubling into them.  The law is handed each block as a
``distributions.Lattice``, the indices k*N + b of its bins with the
frequency step and sqrt(n): a pointwise law reads it as the doubles of
dt times the integer lattice over sqrt(n), and a law that evaluates a
lattice as a whole (a table's chirp z-transform, the uniform law's angle
table) builds from its indices without detecting it.  Every bin still sums
its terms in period order, so the grid does not depend on the blocking
wherever the cf is computed point by point; a whole-lattice cf moves by
rounding with the block it is given.  The fold takes the dtype of the law's
cf: real for a symmetric law, complex otherwise.

A law of compact support (``support`` s finite: the uniform law, a table)
puts Z_n inside [-sqrt(n) s, sqrt(n) s].  A grid on the full-period path
then folds only its narrowest dyadic sub-extent [-L_f, L_f) that holds
that interval, on the N_f = N L_f/L bins of the same step: by Poisson
summation the fold at dt = pi/L_f gives the periodized density, which on
[-L_f, L_f) is p_n itself, with nothing to alias, so the N_f samples are
placed at the centre of the N-point grid and the rest of it is exactly 0.
Each period then takes N_f cf points instead of N.  The halving stops at
1024 bins and at an odd N_f/2; the period cap stays that of the requested
N, and the band is decided on the whole grid, so band grids are unchanged.

A band grid is a trigonometric polynomial of M terms, M of 256 to 8192,
periodic over the grid's extent.  The trapezoid and Simpson sums of such a
smooth periodic integrand are exact to rounding on a few times M points
(Trefethen and Weideman, SIAM Review 56, 2014), so its functionals and
checks run on N' = min(N, max(1024, 4M)) samples of the same extent, which
are every (N/N')-th point of the N-point grid, and its N samples are built
only when read, each from the band's own M bins.  Others keep N samples.

Simpson quadrature on these samples yields L^r integrals, Renyi/Shannon
entropies and entropy powers.  The sup-norm is refined by Newton steps on a
band grid's polynomial, and by a parabola through the sample argmax and its
neighbours otherwise.
"""

from __future__ import annotations

import math

from ._lazy import np
from .distributions import DistributionSpec, Lattice, _simpson

__all__ = [
    "GridError",
    "DensityGrid",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_GRID_EXTENT",
    "MAX_N",
    "density_of_normalized_sum",
    "lr_integral",
    "renyi_entropy",
    "entropy_power",
    "shannon_entropy",
    "sup_norm",
]

DEFAULT_GRID_POINTS = 2**17
DEFAULT_GRID_EXTENT = 16.0
# f(t/sqrt(n))**n multiplies the relative rounding error of f, about 2**-53,
# by n.  Against 40-digit cfs on the uniform, Gamma(4), Laplace and normal
# laws, the density error bound int |error| dt / pi is 0.09 to 0.35 times
# n 2**-53: under the 1e-6 mass tolerance at 2**33, over it at 2**36.  A
# larger n only fails, and from about 2**80, where f rounds to 1 near the
# origin, it folds to the evaluation cap for seconds before failing.
MAX_N = 2**33

_NEGATIVE_CLIP = 1e-8
_MASS_DEFECT_LIMIT = 1e-6
# caps the periods one inversion may fold at _EVAL_CAP // N of the requested
# N points (2**10 periods at 2**17 points), also when the fold runs on a
# sub-extent of fewer bins
_EVAL_CAP = 2**27
# bins per block of the fold: the block's cf values, their power and its
# slice of the fold stay in cache while every period is added to it.  A
# block keeps about three arrays of 256 KB live, well inside a 2 MiB L2.
# Over ten alternating benchmark runs (fold-heavy, 2-core shared host)
# blocks of 2**15 took a median of 0.270 s, against 0.309 s for 2**14 and
# 0.289 s for 2**16, and were faster in 8 and 7 of the 10 runs
_FOLD_BLOCK = 2**15
# a band may drop the rest of the period only when its bound is below this,
# far under the rounding of the samples near the mode (about 5e-17): the grid
# then matches the full-period one to an ulp, mostly bit for bit
_BAND_FLOOR = 2.0**-60
# sup-norm bound on what folding may leave of the tail: the one-period
# ringing bound, two consecutive spectral Richardson steps, and a band's bound
_TAIL_BOUND = 5e-9


class GridError(RuntimeError):
    """A density grid failed a resolution or positivity check."""


class DensityGrid:
    """Sampled density of Z_n on the uniform grid x0 + j*h, j = 0..len-1,
    x0 = -extent and h = 2*extent/len.

    ``mass_defect`` records |1 - sum(samples)*spacing| and ``min_value`` the
    most negative raw sample before clipping.  The grid also says how it was
    folded: ``folds`` frequency periods (1 also for a band that covers only
    part of the first period), ``cap_hit`` when the fold stopped at the
    evaluation cap before settling, and ``ringing_bound``, the estimated
    residual truncation error: the envelope bound on what a band drops, the
    one-period tail bound, or the last Richardson step's spectral bound on
    |R_K - R_{K/2}| at every x.  ``band`` is the number M of cf values a
    band grid was built from, and 0 when the full period was evaluated.

    The constructor takes the point count N (``size``) and the quadrature
    samples, on which ``mass_defect`` and ``min_value`` were taken: the N
    samples themselves, with ``spectrum`` None, or for a band grid the
    N' = min(N, max(1024, 4M)) samples of the same extent, with its M cf
    values as ``spectrum``.  ``values`` and ``x`` give the N samples all
    the same, the first read of a band grid's ``values`` building them by
    the N-point inverse FFT.  ``len``, ``x0`` and ``h`` never build them.
    Treat as immutable; safe to share.
    """

    def __init__(self, extent: float, size: int, samples: np.ndarray,
                 spectrum: np.ndarray | None, n: int, mass_defect: float,
                 min_value: float, folds: int, cap_hit: bool,
                 ringing_bound: float):
        self.x0 = -extent
        self.h = 2 * extent / size
        self.n = n
        self.mass_defect = mass_defect
        self.min_value = min_value
        self.folds = folds
        self.cap_hit = cap_hit
        self.ringing_bound = ringing_bound
        self.band = 0 if spectrum is None else len(spectrum)
        self._values = samples if len(samples) == size else None
        self._size = size
        # what the functionals see: the samples and their spacing
        self._samples = samples
        self._step = 2 * extent / len(samples)
        self._spectrum = spectrum

    def __len__(self) -> int:
        return self._size

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            values = _invert_band(self._spectrum, self._size, self.h)
            self._values = np.maximum(values, 0.0, out=values)
        return self._values

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self._size)


def _cf_power(spec: DistributionSpec, n: int, t) -> np.ndarray:
    """f(t/sqrt(n))**n, the principal power (exact for integer n), in the
    dtype of the law's cf: real for a real cf, where libm ``pow`` is within
    an ulp of the exact power, and complex otherwise.  ``t`` is a scalar, an
    array or a ``Lattice``, which the division keeps a lattice.  The power
    is taken in place in the array the cf returned, and not at all at
    n = 1.  A real cf at n >= 3 is raised as |f|**n, with the sign of f put
    back for odd n: libm ``pow`` takes a slow path on a negative base (the
    uniform law's sinc tails), about 40 times the cost of a positive one,
    while n = 2 is a plain square."""
    values = np.asarray(spec.cf(t / math.sqrt(n)))
    if n > 2 and not np.iscomplexobj(values):
        negative = np.signbit(values) if n % 2 else None
        np.abs(values, out=values)
        values **= n
        if negative is not None:
            np.negative(values, out=values, where=negative)
    elif n > 1:
        values **= n
    return values


def _hermitian_bins(fold: np.ndarray, dtype) -> np.ndarray:
    """Bins 0..N/2, in ``dtype``, of the two-sided fold of a positive-frequency
    fold over the N bins: bin b also receives every m < 0 with m mod N == b,
    so it is fold[b] + conj(fold[-b]), built from slices of the fold and its
    reversed tail.  Bins N/2+1..N-1 are the conjugates of bins N/2-1..1."""
    half = len(fold) // 2
    fn = np.empty(half + 1, dtype=dtype)
    fn[0] = fold[0] + np.conj(fold[0])
    if np.iscomplexobj(fold):
        np.conjugate(fold[:half - 1:-1], out=fn[1:])
        fn[1:] += fold[1:half + 1]
    else:
        np.add(fold[1:half + 1], fold[:half - 1:-1], out=fn[1:])
    return fn


def _invert_fold(fold: np.ndarray, h: float) -> np.ndarray:
    """Density samples from a positive-frequency fold over the N bins, from
    its Hermitian bins built as complex, which ``np.fft.irfft`` takes."""
    fn = _hermitian_bins(fold, complex)
    return _invert_bins(fn, len(fn), np.iscomplexobj(fold), h)


def _invert_band(band: np.ndarray, N: int, h: float) -> np.ndarray:
    """Density samples at N points of spacing h from f_n on the band m < M,
    M < N/2, inverted from its own M bins: the fold's bins N - b, 0 < b <=
    N/2, are 0, so its Hermitian bins are the band, bin 0 doubled, then 0,
    and no N-bin fold is built."""
    fn = np.zeros(N // 2 + 1, dtype=complex)
    fn[:len(band)] = band
    fn[0] = band[0] + np.conj(band[0])
    return _invert_bins(fn, len(band), np.iscomplexobj(band), h)


def _invert_bins(fn: np.ndarray, used: int, conjugate: bool, h: float) -> np.ndarray:
    """Density samples at 2 (len(fn) - 1) points of spacing h from the
    Hermitian bins of a two-sided fold, nonzero below ``used`` only, less the
    m = 0 term (f_n = 1) that bin 0 counts twice, at the phase (-1)**b of
    x0 = -L (dt*L = pi), conjugated for a complex fold; all in place."""
    head = fn[:used]
    head[0] -= 1.0
    head[1::2] *= -1.0
    if conjugate:
        np.conjugate(head, out=head)
    values = np.fft.irfft(fn, n=2 * len(fn) - 2)
    values /= h
    return values


def _band_length(spec: DistributionSpec, n: int, N: int, dt: float):
    """(M, bound) for the shortest band m < M of the first period that is
    enough, or None.

    M doubles over powers of two from 256 while below N/2.  With E the cf
    envelope, |f_n| <= E(M dt/sqrt(n))**n on t >= M dt, so the samples that
    the band drops, of both signs, add at most (N - M) dt/pi times that to
    the density, and the frequencies beyond the period, under the 1/t**2
    envelope the ringing test assumes, at most M**2 dt/(N pi) times it.
    Together that is below bound = (N dt/pi) E(M dt/sqrt(n))**n, taken in
    log space.  The band is enough once bound is below ``_BAND_FLOOR``, and
    so is E(M dt/sqrt(n))**n itself: N dt/pi = N/extent falls below 1 only
    on a grid too coarse for f_n, where bound no longer bounds the power and
    its 1/t**2 tail has not begun.  None when no M qualifies or the law has
    no envelope.
    """
    log_span = math.log(N * dt / math.pi)
    M = 256
    while M < N // 2:
        env = spec.cf_envelope(M * dt / math.sqrt(n))
        if env is None:
            return None
        log_power = n * math.log(env) if env > 0 else -math.inf
        bound = math.exp(log_span + log_power)
        if bound < _BAND_FLOOR and log_power < math.log(_BAND_FLOOR):
            return M, bound
        M *= 2
    return None


def _add_periods(fold, spec: DistributionSpec, n: int, N: int, dt: float,
                 k0: int, k1: int) -> np.ndarray:
    """``fold`` plus the frequency periods k0..k1-1 of f_n, added in place.

    Bin b of period k is f_n((k*N + b)*dt).  The N bins are walked in blocks
    of ``_FOLD_BLOCK``, and each block takes its periods in increasing k, so
    every bin receives the same terms in the same order as when whole
    periods are added one after the other; only the working set shrinks to
    a block.  Each block of each period reaches the law as the
    ``Lattice`` of its indices k*N + b, whose points are the doubles of dt
    times the integer lattice.  The sums are bit for bit those of whole
    periods whenever the cf of a point does not depend on the other points
    of the call.
    ``fold`` None starts a zero fold in the dtype of the first block's cf
    power.
    """
    for lo in range(0, N, _FOLD_BLOCK):
        hi = min(lo + _FOLD_BLOCK, N)
        for k in range(k0, k1):
            terms = _cf_power(spec, n, Lattice(k * N + lo, hi - lo, dt))
            if fold is None:
                fold = np.zeros(N, dtype=terms.dtype)
            fold[lo:hi] += terms
    return fold


def _folded_density(spec: DistributionSpec, n: int, N: int, L: float):
    """(samples, folds, cap_hit, ringing_bound, spectrum) of the folded
    inversion of f_n onto N points of [-L, L).

    The inversion lattice t_m = m*dt, dt = pi/L, aliases with period N:
    because the grid offset satisfies N*dt*x0 = -pi*N (even N),
    contributions from m and m + N land in the same FFT bin with the same
    phase, so folding frequency periods refines the single-period truncation
    at the cost of cf evaluations only.

    When the cf envelope shows f_n negligible beyond a band m < M of the
    first period (see ``_band_length``), only the band is evaluated and
    returned as ``spectrum``, with its samples at N' = min(N, max(1024, 4M))
    points of the same extent: the rest of the fold is zero, and the ringing
    bound is the envelope's bound on what was dropped.
    Otherwise (no envelope, or one that decays too slowly) the whole first
    period is evaluated, and it is kept when a conservative bound on its
    residual ringing (the tail integral of |f_n| over its last quarter,
    divided by pi and assuming at worst a 1/t**2 envelope) is below
    ``_TAIL_BOUND``.  Both bounds assume a tail that has begun, so when
    |f_n| still exceeds 1/2 at the period's last bin the grid step is too
    coarse for f_n, and :class:`GridError` says so at once.  Otherwise the
    number of periods K doubles.  Under that envelope the
    error of the K-period fold S_K falls like 1/K, so two-point Richardson
    extrapolation R_K = 2 S_2K - S_K cancels its leading term.
    The step R_K - R_{K/2} = 2 (S_2K - S_K) - (S_K - S_{K/2}) is formed on
    the spectrum and measured as the l1 norm of its two-sided bins over N h,
    which bounds it at every x.  Folding stops once two consecutive steps
    fall below ``_TAIL_BOUND`` (a single step can pass early on a sequence
    still converging), or when the next doubling would exceed ``_EVAL_CAP``
    lattice points; only then is R_K inverted.  A bound or a step
    that is NaN counts as settled, so that a cf with a NaN stops at once
    with NaN samples, which the mass check rejects.  The reported
    ringing bound is then the plain one-period bound, or else the last
    Richardson step (inf if the cap left room for one extrapolant only).
    ``spectrum`` is then None.  Every period, the first and those of each
    doubling, is added by ``_add_periods``, block by block in period order,
    in the dtype of the law's cf.

    The full-period fold, with its checks, runs on the sub-extent
    (N_f, L_f) of ``_support_extent`` at dt = pi/L_f, to at most
    ``_EVAL_CAP // N`` periods; its N_f samples are the centre of the N
    returned, the rest being 0.
    """
    h = 2 * L / N
    dt = 2 * math.pi / (N * h)
    band = _band_length(spec, n, N, dt)
    if band is not None:
        M, bound = band
        spectrum = _cf_power(spec, n, Lattice(0, M, dt))
        size = min(N, max(1024, 4 * M))
        return _invert_band(spectrum, size, 2 * L / size), 1, False, bound, spectrum

    N_f, L_f = _support_extent(spec, n, N, L)
    values, folds, cap_hit, ringing = _fold_periods(
        spec, n, N_f, L_f, max(1, _EVAL_CAP // N))
    if N_f < N:  # the sub-extent's samples at the centre, zero elsewhere
        centred = np.zeros(N)
        centred[(N - N_f) // 2:(N + N_f) // 2] = values
        values = centred
    return values, folds, cap_hit, ringing, None


def _support_extent(spec: DistributionSpec, n: int, N: int, L: float):
    """(N_f, L_f), the narrowest dyadic sub-extent [-L_f, L_f) of the grid,
    at its step, that holds the support of Z_n, [-sqrt(n) s, sqrt(n) s] for
    a law of support [-s, s].  (N, L) halve while L/2 >= sqrt(n) s and N/2
    is even and at least 1024; a law of unbounded support keeps (N, L)."""
    reach = math.sqrt(n) * spec.support
    while L / 2 >= reach and N % 4 == 0 and N // 2 >= 1024:
        N, L = N // 2, L / 2
    return N, L


def _fold_periods(spec: DistributionSpec, n: int, N: int, L: float,
                  max_periods: int):
    """(samples, folds, cap_hit, ringing_bound) of the full-period fold of
    f_n onto N points of [-L, L), doubling to at most ``max_periods``
    periods (see ``_folded_density``)."""
    h = 2 * L / N
    dt = 2 * math.pi / (N * h)
    quarter = N // 4
    fold = _add_periods(None, spec, n, N, dt, 0, 1)
    if abs(fold[-1]) > 0.5:  # no tail to bound or fold: f_n has not decayed
        raise GridError(
            f"grid step {h:.3g} is too coarse for n={n}: |f_n| is {abs(fold[-1]):.3g} "
            f"at the end of the first frequency period, t = {(N - 1) * dt:.3g}"
        )
    tail_int = float(np.abs(fold[-quarter:]).sum()) * dt
    ringing = tail_int * (N * dt / (quarter * dt)) / math.pi
    if not ringing >= _TAIL_BOUND or max_periods < 2:
        return _invert_fold(fold, h), 1, ringing >= _TAIL_BOUND, ringing

    # three N-bin buffers serve every doubling: S_K, S_2K and S_2K - S_K,
    # whose Hermitian bins are kept for the next doubling's step
    periods, bins, step, calm = 1, None, math.inf, 0
    wider, spare = np.empty_like(fold), np.empty_like(fold)
    while 2 * periods <= max_periods and calm < 2:
        np.copyto(wider, fold)
        _add_periods(wider, spec, n, N, dt, periods, 2 * periods)
        previous, bins = bins, _hermitian_bins(np.subtract(wider, fold, out=spare), fold.dtype)
        fold, wider, periods = wider, fold, 2 * periods
        if previous is not None:
            # R_K - R_{K/2} = 2 (S_2K - S_K) - (S_K - S_{K/2}), and the l1
            # norm of its two-sided bins over N h bounds it at every x
            terms = np.abs(np.subtract(2.0 * bins, previous, out=previous))
            step = float(2.0 * terms.sum() - terms[0] - terms[-1]) / (N * h)
            calm = calm + 1 if not step >= _TAIL_BOUND else 0
    np.multiply(fold, 2.0, out=spare)
    spare -= wider
    return _invert_fold(spare, h), periods, calm < 2, step


def density_of_normalized_sum(
    spec: DistributionSpec,
    n: int,
    npoints: int = DEFAULT_GRID_POINTS,
    extent: float = DEFAULT_GRID_EXTENT,
) -> DensityGrid:
    """Density p_n of Z_n on [-extent, extent) by Fourier inversion.

    f_n is sampled on the lattice reciprocal to the grid, folded over as
    many frequency periods as the tail needs (see ``_folded_density``) and
    inverted with one real-output inverse FFT.  When the
    law's ``cf_envelope`` bounds what lies beyond a band of the first period
    below 2**-60, only that band of a few hundred
    to a few thousand frequencies is evaluated.  Other grids whose
    characteristic power decays fast enough use the whole first period;
    slowly decaying ones (small n, laws with kinks or jumps) double the
    period count under Richardson extrapolation until two consecutive steps,
    each bounded on the spectrum at every x, fall below ``_TAIL_BOUND``.
    The grid records ``folds``, ``cap_hit``
    (the doubling stopped at ``_EVAL_CAP`` cf points before settling),
    ``ringing_bound`` and ``band``.

    A band of M values is inverted once at N' = min(N, max(1024, 4M))
    points over the same extent.  The frequency step dt = pi/extent does not
    depend on the point count, so these are exactly every (N/N')-th sample
    of the N-point grid, up to rounding; the checks below and every
    functional use them, and the N samples are built from the band only
    when ``values`` is read.  Checking negativity on the N' samples is
    enough: every sample of the N-point grid is the periodized density,
    which is not negative, plus less than the band's bound, itself below
    2**-60, plus rounding, so no skipped sample can fall below -1e-8.

    A full-period grid of a law with finite ``support`` s folds only the
    narrowest dyadic sub-extent [-L_f, L_f), at the same step, that holds
    [-sqrt(n) s, sqrt(n) s] (halving stops at 1024 points and at an odd
    half): there the fold at dt = pi/L_f is p_n, with nothing to alias, and
    the rest of the grid is exactly 0.  Each period takes 2**k times fewer
    cf points, while ``folds``, ``cap_hit`` and the cap on periods are those
    of the requested grid.  The mass and negativity checks below run on
    all N samples.

    Requires spec.n_min <= n <= ``MAX_N`` (below n_min the characteristic
    power is not integrable and the inversion is meaningless; above MAX_N
    its rounding error alone exceeds the mass tolerance), an even npoints
    of at most ``_EVAL_CAP`` (a larger grid would fold one period past the
    cap) and a finite extent of at least 12; these argument checks are its
    only ``ValueError``.  Raises
    :class:`GridError` when the grid step is too coarse for f_n (see
    ``_folded_density``), when the mass defect is not below 1e-6 or when a
    sample is not at least -1e-8, a NaN included; samples in [-1e-8, 0) are
    clipped to zero and the pre-clip minimum is kept in ``min_value``.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n < spec.n_min:
        raise ValueError(
            f"n={n} below n_min={spec.n_min} for {spec.name}: density unbounded "
            "or characteristic power not integrable"
        )
    if n > MAX_N:
        raise ValueError(
            f"n={n} above {MAX_N}: f(t/sqrt(n))**n has a relative rounding "
            "error of about n 2**-53, beyond the 1e-6 mass tolerance"
        )
    if not 1024 <= npoints <= _EVAL_CAP or npoints % 2:
        raise ValueError(f"npoints must be an even integer from 1024 to {_EVAL_CAP}")
    if not 12 <= extent < math.inf:
        raise ValueError(
            "grid extent must be finite and cover at least 12 standard deviations"
        )

    N = int(npoints)
    L = float(extent)
    values, folds, cap_hit, ringing, spectrum = _folded_density(spec, n, N, L)
    # a fold the cap stopped says so: the cap, not the grid, may be the cause
    capped = (
        f"; fold stopped at the evaluation cap after {folds} "
        f"period{'s' if folds > 1 else ''} (ringing bound {ringing:.3e})"
        if cap_hit else ""
    )
    mass_defect = abs(1.0 - float(values.sum() * (2 * L / len(values))))
    if not mass_defect < _MASS_DEFECT_LIMIT:
        raise GridError(f"grid under-resolved: mass defect {mass_defect:.3e}{capped}")
    min_value = float(values.min())
    if not min_value >= -_NEGATIVE_CLIP:
        raise GridError(
            f"inversion produced negative density {min_value:.3e} at n={n}; "
            f"grid under-resolved{capped}"
        )
    # clip in place: a fresh N-point array per kept grid lets malloc trim the
    # inversion's working set and fault it in again on the next grid
    np.maximum(values, 0.0, out=values)
    return DensityGrid(L, N, values, spectrum, n, mass_defect, min_value,
                       folds, cap_hit, ringing)


def lr_integral(grid: DensityGrid, r: float) -> float:
    """int p**r over the grid's samples by composite Simpson quadrature
    (r >= 1)."""
    if not r >= 1:
        raise ValueError("r must be >= 1")
    return _simpson(_on_positive(np.power, grid, r), dx=grid._step)


def renyi_entropy(grid: DensityGrid, r: float) -> float:
    """h_r = -log(int p**r)/(r-1) for 1 < r < inf, with its limits: the
    Shannon entropy -int p log p at r = 1 and -log sup p at r = inf.

    Raises ``ValueError`` when the integral or the sup-norm is not positive,
    naming the cause: p**r underflowing at a huge r, or a grid with no
    positive sample.
    """
    if not r >= 1:
        raise ValueError("r must be at least 1")
    if r == 1:
        return shannon_entropy(grid)
    if r == math.inf:
        peak = sup_norm(grid)
        if not peak > 0:
            raise ValueError("non-positive sup-norm; grid is degenerate")
        return -math.log(peak)
    integral = lr_integral(grid, r)
    if not integral > 0:
        if grid._samples.max() > 0:
            raise ValueError(
                f"int p**r underflows to 0 at r={r:g}; h_r is not representable"
            )
        raise ValueError("non-positive L^r integral; grid is degenerate")
    return -math.log(integral) / (r - 1)


def entropy_power(grid: DensityGrid, r: float) -> float:
    """N_r = exp(2 h_r)."""
    return math.exp(2.0 * renyi_entropy(grid, r))


def shannon_entropy(grid: DensityGrid) -> float:
    """h = -int p log p with 0 log 0 = 0."""
    integrand = _on_positive(np.log, grid)
    integrand *= grid._samples
    return -_simpson(integrand, dx=grid._step)


def _on_positive(ufunc, grid: DensityGrid, *args) -> np.ndarray:
    """``ufunc(samples, *args)`` where positive, else 0; unmasked if min_value > 0."""
    v = grid._samples
    if grid.min_value > 0:
        return ufunc(v, *args)
    return ufunc(v, *args, out=np.zeros_like(v), where=v > 0)


def sup_norm(grid: DensityGrid) -> float:
    """Maximum of the density, refined from the largest sample.

    On a band grid the density is the trigonometric polynomial
    p(x) = Re sum_m w_m f_n(m dt) exp(-i m dt x) / (2 extent), w_0 = 1 and
    w_m = 2 otherwise, so a few Newton steps on p' from the sample argmax
    find its maximum to rounding.  Elsewhere the maximum is that of the
    parabola through the argmax and its neighbours.
    """
    v = grid._samples
    j = int(np.argmax(v))
    if grid._spectrum is not None:
        return _band_peak(grid, grid.x0 + grid._step * j)
    if j == 0 or j == len(v) - 1:
        return float(v[j])
    a = 0.5 * (v[j + 1] + v[j - 1]) - v[j]
    b = 0.5 * (v[j + 1] - v[j - 1])
    if a >= 0:
        return float(v[j])
    return float(v[j] - b * b / (4 * a))


def _band_peak(grid: DensityGrid, x: float) -> float:
    """The band polynomial's local maximum near x, by Newton on p'."""
    span = grid.h * len(grid)
    theta = (2 * math.pi / span) * np.arange(grid.band)
    weighted = grid._spectrum * np.where(theta > 0, 2.0, 1.0) / span
    phase, square = -1j * theta, theta * theta
    for _ in range(8):
        terms = weighted * np.exp(phase * x)
        slope = float((theta @ terms).imag)
        curvature = -float((square @ terms).real)
        if not curvature < 0:
            break
        step = slope / curvature
        x -= step
        if abs(step) < 1e-12:
            break
    return float(np.real(weighted @ np.exp(phase * x)))
