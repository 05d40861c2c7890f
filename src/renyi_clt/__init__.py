"""Edgeworth expansions and Renyi entropy asymptotics along the CLT.

A library for the asymptotics of normalized i.i.d. sums
Z_n = (X_1 + ... + X_n)/sqrt(n):

* exact rational polynomial algebra and Chebyshev-Hermite polynomials
  (:mod:`renyi_clt.exactpoly`),
* moment/cumulant conversion as the log and exp of exponential generating
  series (:mod:`renyi_clt.cumulants`),
* Edgeworth corrections of the normal density (:mod:`renyi_clt.edgeworth`),
* expansion coefficients for L^r norms, Renyi entropies and entropy powers
  at every index 1 <= r <= inf, with eventual-monotonicity verdicts, and the
  Gaussian mass int phi**r they scale by (:mod:`renyi_clt.expansion`),
* actual densities of Z_n by characteristic-function powering and Fourier
  inversion, with entropies computed on the resulting grids
  (:mod:`renyi_clt.numerics` and :mod:`renyi_clt.distributions`),
* a CLI harness tying predictions to measurements (:mod:`renyi_clt.harness`).

The exact route runs without numpy: numpy loads on the first numeric call
(an array or density operation), so ``import renyi_clt`` and
``renyi-clt coeffs`` do not pay for it.  On Python 3.10 and 3.11 two threads
making that first call together may see a half-loaded numpy; a threaded
program should import numpy first (:mod:`renyi_clt._lazy`).
"""

from .cumulants import (
    CumulantVector,
    MomentVector,
    cumulants_from_moments,
    moments_from_cumulants,
    standard_cumulants,
)
from .distributions import (
    DistributionSpec,
    GaussianMixture,
    GridDensity,
    StandardizedGamma,
    TwoSidedExponential,
    Uniform,
    from_name,
)
from .edgeworth import (
    EdgeworthModel,
    correction_polynomial,
    normal_pdf,
)
from .exactpoly import Poly, hermite
from .expansion import (
    DECREASING,
    INCREASING,
    INDETERMINATE,
    ExpansionCoefficients,
    a1_closed_form,
    a2_from_integrals,
    a_coefficient,
    b_coefficient,
    entropy_expansion,
    gauss_power_mass,
    limit_expansion,
    gaussian_entropy_power,
    gaussian_renyi_entropy,
    monotonicity_prediction,
    sign_change_threshold,
)
from .numerics import (
    DensityGrid,
    GridError,
    density_of_normalized_sum,
    entropy_power,
    lr_integral,
    renyi_entropy,
    shannon_entropy,
    sup_norm,
)

__version__ = "0.1.0"
