"""Asymptotic expansion coefficients for L^r norms and Renyi entropies of
normalized sums.

Everything here is organized around the expansion, valid when the base law
has enough moments (s >= 2, m = [s]):

    int p_n(x)**r dx = int phi(x)**r dx * (1 + sum_{j<=J} a_j n**(-j))
                       + o(n**(-(s-2)/2)),        J = [(m-2)/2],

with coefficients from one generating function: with U = sum_k Q_k s**k,

    a_j * int phi**r = int [s**(2j)] (1 + U)**r phi**r dx
                     = sum_k (r)_k / k! * int [s**(2j)] U**k phi**r dx,

where (r)_k = r (r-1) ... (r-k+1) is the falling factorial and s stands for
n**(-1/2).  Odd half-powers drop out by parity, so the series runs over
integer powers of 1/n.

Dividing by int phi**r turns each integral into moments of N(0, 1/r), and
int x**(2i) phi**r / int phi**r = (2i-1)!! r**(-i).  With the polynomial
P_k = [s**(2j)] U**k / k!, a truncated power of one series,

    a_j(r) = sum_k (r)_k sum_i c_{k,i} r**(-i),   c_{k,i} = coeff_{2i}(P_k) (2i-1)!!,

a Laurent polynomial in r with i <= 3j.  Every a_j of a law, j up to the
largest J = [(m-2)/2] that its order-m cumulants allow, comes from one
cached build, from the Q_k of the
:func:`~renyi_clt.edgeworth.correction_polynomial` cache, in Python ints:
each N_j = D_j r**(3j) a_j(r) is a list of integer coefficients over one
integer D_j.  Evaluating it at an index r = p/q costs one integer Horner
pass and one ``Fraction``.  Results are exact (``Fraction``) when r is an
int or Fraction and every cumulant is rational, and floats, rounded once,
otherwise.

The entropy and entropy-power expansions

    h_r(Z_n) = h_r(Z) + sum b_j n**(-j) + o(n**(-(s-2)/2)),
    N_r(Z_n) = N_r(Z) * (1 + sum c_j n**(-j)) + o(n**(-(s-2)/2))

follow from b-series = -1/(r-1) * log(a-series) and c-series =
exp(2 * b-series).  With v = 1/(n r**3) the a-series is
1 + sum_j (N_j(r)/D_j) v**j, a series in v with polynomial coefficients, so
its logarithm is sum_j L_j(r) v**j with every L_j an exact polynomial in r,
built once per law, as integers over one denominator, by the graded-integer
log of :mod:`renyi_clt.exactpoly`, and

    b_j(r) = -L_j(r) / ((r-1) r**(3j))                  (1 < r < inf),
    b_j(1) = -L_j'(1)                   (L_j(1) = 0, as int p_n = 1),
    b_j(inf) = -[r**(3j+1)] L_j         (L_j has degree at most 3j + 1).

So one route serves every r in [1, inf], r = 1 (Shannon) and r = inf
(-log sup p_n) included.  The c-series is taken as exp(2 * b-series), not
as (a-series)**(-2/(r-1)), because only that form has a limit at r = 1, so
c_1 = 2 b_1.  The log, the exp and the powers are the exact truncated
power series of :mod:`renyi_clt.exactpoly`.  At a rational r = p/q each b_j
is one integer Horner pass over L_j and one ``Fraction``.

The first coefficient b(r) = b_1(r), whose sign decides the eventual
monotonicity of N_r(Z_n), is linear in r over r, so L_1 = (r-1) r**2
(l_4 r - l_2), and :func:`sign_change_threshold` reads its root r_0 = l_2/l_4
off L_1; the closed form in gamma_3 and gamma_4 is a test oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .cumulants import CumulantVector, double_factorial
from .edgeworth import correction_polynomial
from .exactpoly import Poly, _addmul, _exp_series, _graded_log, _horner, _truncated_product

__all__ = [
    "falling_factorial",
    "gauss_power_mass",
    "a_coefficient",
    "a1_closed_form",
    "a2_from_integrals",
    "b_coefficient",
    "ExpansionCoefficients",
    "entropy_expansion",
    "limit_expansion",
    "sign_change_threshold",
    "monotonicity_prediction",
    "gaussian_renyi_entropy",
    "gaussian_entropy_power",
    "INCREASING",
    "DECREASING",
    "INDETERMINATE",
]

INCREASING = "eventually_increasing"
DECREASING = "eventually_decreasing"
INDETERMINATE = "indeterminate"


def falling_factorial(r, k: int):
    """(r)_k = r (r-1) ... (r-k+1), with (r)_0 = 1."""
    out = 1
    for i in range(k):
        out = out * (r - i)
    return out


def gauss_power_mass(r: float) -> float:
    """int phi(x)**r dx = (2*pi)**(-(r-1)/2) / sqrt(r) for r > 0, taken in
    log space so that large r underflows instead of overflowing."""
    if not r > 0:
        raise ValueError(f"power r must be positive, got {r}")
    return math.exp(-0.5 * (r - 1) * math.log(2 * math.pi) - 0.5 * math.log(r))


def _require_r(r) -> None:
    if not r > 1:
        raise ValueError(f"index r must exceed 1, got {r}")


def _check_index(r) -> None:
    """The entropy index's one rule, 1 <= r <= inf, NaN refused."""
    if not r >= 1:
        raise ValueError(f"index r must be >= 1 (or inf), got {r}")


def _is_exact(r, cumulants: CumulantVector) -> bool:
    """Whether r and every cumulant are int or Fraction: results stay exact.
    r = inf counts as exact, as its coefficients are read off, not evaluated."""
    index = () if r == math.inf else (r,)
    return all(isinstance(v, (int, Fraction)) for v in (*index, *cumulants.values))


@lru_cache(maxsize=64)
def _laurent_numerators(cumulants: CumulantVector) -> tuple:
    """((N_1, D_1), ..., (N_J, D_J)), J = [(m-2)/2] for order-m cumulants:
    a_j(r) = N_j(r) / (D_j r**(3j)), with N_j a list of integer
    coefficients (low degree first) and D_j a positive integer.

    With U = sum_{i<=2J} Q_i s**i, the n**(-j) term of (1 + U)**r is
    sum_k (r)_k [s**(2j)] U**k / k!.  With d the common denominator of the
    Q_i (from the :func:`correction_polynomial` cache), Y = d U is a series
    of integer polynomials, and one run of its truncated powers Y**k,
    k <= 2J, gives every P_{j,k} = [s**(2j)] Y**k / (k! d**k).  Each
    P_{j,k}, of degree at most 6j, contributes (r)_k sum_i c_{k,i}
    r**(3j-i), c_{k,i} = coeff_{2i}(P_{j,k}) (2i-1)!!, all over the
    denominator (2j)! d**(2j), and each pair is reduced once.  The Q_i are
    exact, float cumulants entering at their binary values, so the build is
    exact for every law, keeps the identities a_j(1) = 0 and
    deg L_j <= 3j + 1 that the limits rely on, and depends only on the
    values: 1/2 and 0.5 share it.
    """
    terms = (cumulants.order - 2) // 2
    qs = [correction_polynomial(i, cumulants)._integer_form() for i in range(1, 2 * terms + 1)]
    d = math.lcm(*(den for _, den in qs))
    y = [[0]] + [[v * (d // den) for v in nums] for nums, den in qs]
    power = [[1]] + [[0]] * (2 * terms)
    falling = [1]
    numerators = [[0] for _ in range(terms)]
    for k in range(1, 2 * terms + 1):
        power = _truncated_product(power, y)  # Y**k
        falling = _addmul([0], falling, [1 - k, 1], 1)  # (r)_k
        for j in range((k + 1) // 2, terms + 1):  # P_{j,k} = 0 for 2j < k
            row = power[2 * j]
            moments = [  # r**e carries c_{k,i} with i = 3j - e
                row[2 * i] * double_factorial(2 * i - 1) if 2 * i < len(row) else 0
                for i in range(3 * j, -1, -1)
            ]
            weight = factorial(2 * j) // factorial(k) * d ** (2 * j - k)
            _addmul(numerators[j - 1], falling, moments, weight)
    out = []
    for j, num in enumerate(numerators, start=1):
        den = factorial(2 * j) * d ** (2 * j)
        g = math.gcd(den, *num)
        out.append(([v // g for v in num], den // g))
    return tuple(out)


def _laurent_at(nums: list, shift: int, x: Fraction):
    """(u, v) in ints with sum_k nums[k] x**(k - shift) = u / v at x = p/q
    > 0: one integer Horner pass."""
    p, q = x.numerator, x.denominator
    top = len(nums) - 1
    value = _horner(nums, p, q)  # q**top times the polynomial at x
    if shift >= top:
        return value * q ** (shift - top), p**shift
    return value, q ** (top - shift) * p**shift


def a_coefficient(j: int, r, cumulants: CumulantVector):
    """Normalized coefficient a_j of n**(-j) in the L^r-norm expansion:

        a_j(r) = sum_k (r)_k sum_{i<=3j} c_{k,i} r**(-i),

    the Laurent polynomial of the module docstring.  It is built once per
    law and cached, then evaluated at Fraction(r) exactly; int
    phi**r never enters, so a_j stays exact where it underflows (r above
    about 770).  The result is a ``Fraction`` when r is an int or Fraction
    and every cumulant is rational; otherwise it is rounded once to a
    float, and a value beyond the float range gives +-inf.
    """
    if j < 1:
        raise ValueError("coefficient index must be positive")
    _require_r(r)
    cumulants.require_order(2 * j + 2)
    try:
        x = Fraction(r)
    except (OverflowError, ValueError):
        raise ValueError(f"index r must be finite, got {r}") from None
    num, den = _laurent_numerators(cumulants)[j - 1]
    u, v = _laurent_at(num, 3 * j, x)
    total = Fraction(u, den * v)
    if _is_exact(r, cumulants):
        return total
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def a1_closed_form(r: float, cumulants: CumulantVector) -> float:
    """Closed form for A_1 = a_1 * int phi**r, the n**(-1) term of int p_n**r:

        A_1(r) = (r-1) / ((2 pi)**((r-1)/2) r**(3/2))
                 * [ (2-r)/12 * gamma_3**2 + (r-1)/8 * gamma_4 ].

    Raises ``ValueError`` when the value is below the normal float range
    while the bracket is not 0: from r of about 775 the int phi**r prefactor
    is subnormal and has lost digits (17 % at r = 800), and from about 810 it
    is 0.  An exactly zero bracket gives 0.

    No library path uses it: ``coeffs`` takes A_1 from the cached
    :func:`a_coefficient`, and this hand formula is an independent
    cross-check for the benchmark and the tests.
    """
    _require_r(r)
    cumulants.require_order(4)
    g3 = float(cumulants.gamma(3))
    g4 = float(cumulants.gamma(4))
    bracket = (2 - r) / 12 * g3**2 + (r - 1) / 8 * g4
    pref = math.exp(-0.5 * (r - 1) * math.log(2 * math.pi) - 1.5 * math.log(r))
    value = (r - 1) * pref * bracket
    if abs(value) < sys.float_info.min and bracket != 0:
        raise ValueError(f"int phi**r underflows at r={r:g}; A_1 is not representable")
    return value


def a2_from_integrals(r: float, cumulants: CumulantVector) -> float:
    """A_2 = a_2 * int phi**r assembled term by term:

        A_2 = r int Q_4 phi**r + (r)_2/2 int (Q_2**2 + 2 Q_1 Q_3) phi**r
              + (r)_3/2 int Q_1**2 Q_2 phi**r + (r)_4/24 int Q_1**4 phi**r.

    Raises ``ValueError`` when the sum is not finite (for r above about 1e77 the
    falling factorials overflow while the integrals underflow), and when it
    is below the normal float range, because int phi**r underflows (r above
    about 780), while a_2 is not 0.

    No library path uses it: ``coeffs`` takes A_2 from the cached
    :func:`a_coefficient`, and this term-by-term assembly is an independent
    cross-check for the benchmark and the tests.
    """
    _require_r(r)
    cumulants.require_order(6)
    if r == math.inf:
        raise ValueError(f"power r must be finite, got {r}")
    q1, q2, q3, q4 = (correction_polynomial(k, cumulants) for k in range(1, 5))
    terms = (
        (r, q4),
        (falling_factorial(r, 2) / 2, q2 * q2 + 2 * q1 * q3),
        (falling_factorial(r, 3) / 2, q1 * q1 * q2),
        (falling_factorial(r, 4) / 24, q1**4),
    )
    x = Fraction(r)
    a2 = 0
    for weight, poly in terms:  # every P here is even
        # int P phi**r / int phi**r = sum_i coeff_2i(P) (2i-1)!! r**(-i), exactly
        evens = enumerate(poly.coeffs[::2])
        ratio = sum(c * double_factorial(2 * i - 1) / x**i for i, c in evens if c != 0)
        a2 += weight * float(ratio)
    total = a2 * gauss_power_mass(r)
    if not math.isfinite(total):
        raise ValueError(
            f"A_2 is not finite at r={r:g}: (r)_k overflows while the Gaussian "
            "integrals underflow"
        )
    if abs(total) < sys.float_info.min and a2 != 0:
        raise ValueError(f"int phi**r underflows at r={r:g}; A_2 is not representable")
    return total


@lru_cache(maxsize=64)
def _all_log_polynomials(cumulants: CumulantVector) -> tuple:
    """(L_1, ..., L_J), J = [(m-2)/2] for order-m cumulants: the exact
    polynomials of the module docstring, with
    log(1 + sum_j a_j n**(-j)) = sum_j L_j(r) v**j, v = 1/(n r**3).  The
    a-series [1, N_1/D_1, ..., N_J/D_J] in v, slot j holding v**j, enters
    :func:`~renyi_clt.exactpoly._graded_log` with c = lcm(D_j) and
    A_j = c**j N_j / D_j, and L_j = Lambda_j / (j! c**j) keeps that integer
    form for evaluation.
    """
    numerators = _laurent_numerators(cumulants)
    c = math.lcm(*(den for _, den in numerators))
    series = [[1]] + [
        [v * (c**j // den) for v in num] for j, (num, den) in enumerate(numerators, start=1)
    ]
    logs = _graded_log(series)[1:]
    return tuple(Poly._over(lj, factorial(j) * c**j) for j, lj in enumerate(logs, start=1))


def _log_polynomials(terms: int, cumulants: CumulantVector) -> tuple:
    """(L_1, ..., L_terms), read off the law's one build."""
    cumulants.require_order(2 * terms + 2)
    return _all_log_polynomials(cumulants)[:terms] if terms else ()


def _b_coefficients(terms: int, r, cumulants: CumulantVector) -> list:
    """The exact b_1..b_terms (``Fraction``) at any 1 <= r <= inf from the
    cached L_j = nums / den: b_j(r) = -L_j(r) / ((r - 1) r**(3j)), one
    integer Horner pass and one ``Fraction`` at r = p/q, with its limits at
    r = 1 (-L_j'(1)) and r = inf (minus the r**(3j+1) coefficient)."""
    polys = _log_polynomials(terms, cumulants)
    if r == math.inf:
        return [-Fraction(lj.coeff(3 * j + 1)) for j, lj in enumerate(polys, start=1)]
    forms = [lj._integer_form() for lj in polys]
    if r == 1:
        return [Fraction(-sum(k * v for k, v in enumerate(nums)), den) for nums, den in forms]
    x = Fraction(r)
    p, q = x.numerator, x.denominator
    out = []
    for j, (nums, den) in enumerate(forms, start=1):
        u, v = _laurent_at(nums, 3 * j, x)
        out.append(Fraction(-u * q, den * v * (p - q)))  # 1/(r - 1) = q/(p - q)
    return out


def _entropy_coefficients(terms: int, r, cumulants: CumulantVector):
    """(b, c) through order ``terms`` at any 1 <= r <= inf: the b_j of
    :func:`_b_coefficients` and the c-series = exp(2 * b-series) taken
    exactly.  Each b_j and c_j is a ``Fraction`` when r is an int, a
    Fraction or inf and every cumulant is rational, and otherwise a float
    rounded once from the exact value.
    """
    b = _b_coefficients(terms, r, cumulants)
    c = _exp_series([0, *(bj * 2 for bj in b)])[1:]
    rounding = Fraction if _is_exact(r, cumulants) else float
    return tuple(map(rounding, b)), tuple(map(rounding, c))


def b_coefficient(r, cumulants: CumulantVector):
    """First-order entropy coefficient b(r) = b_1(r) at any 1 <= r <= inf,
    from :func:`_b_coefficients`, the route of every b_j, at the law's own
    cumulants.  Its type follows the rule of every b_j
    (:func:`entropy_expansion`, :func:`limit_expansion`): a ``Fraction``
    when r is an int, a Fraction or inf and every cumulant is rational, and
    otherwise a float rounded once from the exact value.
    """
    cumulants.require_order(4)
    _check_index(r)
    b = _b_coefficients(1, r, cumulants)[0]
    return b if _is_exact(r, cumulants) else float(b)


@dataclass(frozen=True)
class ExpansionCoefficients:
    """b_j, c_j up to J = [(m-2)/2] for a given index r, with a_j for
    1 < r < inf and no a_j at r = 1 and r = inf (a_j(1) = 0, and a_j(r)
    grows without bound as r -> inf).

    The c-series satisfies 1 + sum c_j n**(-j) = exp(2 sum b_j n**(-j))
    truncated at order J; in particular c_1 = 2 b_1.
    """

    a: tuple
    b: tuple
    c: tuple

    @property
    def terms(self) -> int:
        return len(self.b)

    def entropy_offset(self, n: int) -> float:
        """sum_j b_j n**(-j): the predicted h_r(Z_n) - h_r(Z)."""
        return sum(bj * n ** -(j + 1) for j, bj in enumerate(self.b))

    def entropy_power_factor(self, n: int) -> float:
        """1 + sum_j c_j n**(-j): the predicted N_r(Z_n) / N_r(Z)."""
        return 1.0 + sum(cj * n ** -(j + 1) for j, cj in enumerate(self.c))


def _expansion(m: int, r, cumulants: CumulantVector, least: int, with_a: bool):
    """The coefficients through J = [(m-2)/2] terms, the a_j only when
    ``with_a``, at a moment order m of at least ``least``."""
    if m < least:
        raise ValueError(f"the r = {r} expansion needs moment order m >= {least}, got {m}")
    terms = (m - 2) // 2
    a = tuple(a_coefficient(j, r, cumulants) for j in range(1, terms + 1)) if with_a else ()
    b, c = _entropy_coefficients(terms, r, cumulants)
    return ExpansionCoefficients(a=a, b=b, c=c)


def entropy_expansion(m: int, r, cumulants: CumulantVector) -> ExpansionCoefficients:
    """Entropy and entropy-power expansion coefficients through order
    J = [(m-2)/2] at a finite index r > 1, where m is the available
    (integer) moment order.

    For m <= 3 the coefficient lists are empty.  Like :func:`a_coefficient`,
    the coefficients are exact (``Fraction``) when r is an int or Fraction
    and every cumulant is rational, and floats, each rounded once from the
    exact value, otherwise.  :func:`limit_expansion` serves r = 1 and
    r = inf.
    """
    _require_r(r)
    return _expansion(m, r, cumulants, 2, with_a=True)


def limit_expansion(m: int, r, cumulants: CumulantVector) -> ExpansionCoefficients:
    """The b_j and c_j of :func:`entropy_expansion` at r = 1 (Shannon
    entropy) or r = inf (-log of the sup-norm), as limits of the same exact
    polynomials L_j; ``a`` is empty.  Exact when every cumulant is rational
    and r is the int 1 or inf.

    The moment order m must be at least 4 at r = 1, where b_1 reads
    gamma_4, and at least 6 at r = inf; a lower m is a ``ValueError``.
    """
    if not (r == 1 or r == math.inf):
        raise ValueError(f"limit_expansion takes r = 1 or r = inf, got {r}")
    return _expansion(m, r, cumulants, 4 if r == 1 else 6, with_a=False)


def sign_change_threshold(cumulants: CumulantVector):
    """r_0 = l_2/l_4, the root in r > 1 of b(r) = b_1(r), above which
    b(r) > 0, read off the cached L_1 = (r-1) r**2 (l_4 r - l_2).  A
    ``Fraction`` when every cumulant is rational, and otherwise a float
    rounded once; None when l_4 = 0 or r_0 <= 1 (b keeps one sign).
    """
    l1 = _log_polynomials(1, cumulants)[0]
    l2, l4 = l1.coeff(2), l1.coeff(4)
    if l4 == 0 or not l2 / l4 > 1:
        return None
    r0 = l2 / l4
    return r0 if _is_exact(1, cumulants) else float(r0)


def monotonicity_prediction(r, cumulants: CumulantVector) -> str:
    """Eventual monotonicity of N_r(Z_n), decided by the sign of b(r):
    increasing when b(r) < 0, decreasing when b(r) > 0, indeterminate at 0.
    Accepts 1 <= r <= inf.
    """
    b = b_coefficient(r, cumulants)
    if b < 0:
        return INCREASING
    if b > 0:
        return DECREASING
    return INDETERMINATE


def gaussian_renyi_entropy(r) -> float:
    """h_r of the standard normal: (1/2) log(2 pi) + log(r)/(2(r-1)),
    with the limits (1/2) log(2 pi e) at r = 1 and (1/2) log(2 pi) at r = inf.
    """
    if r == 1:
        return 0.5 * math.log(2 * math.pi * math.e)
    if r == math.inf:
        return 0.5 * math.log(2 * math.pi)
    _require_r(r)
    return 0.5 * math.log(2 * math.pi) + math.log(r) / (2 * (r - 1))


def gaussian_entropy_power(r) -> float:
    """N_r of the standard normal: 2 pi r**(1/(r-1)) (2 pi e at r=1, 2 pi at inf)."""
    return math.exp(2 * gaussian_renyi_entropy(r))
