"""Catalog of single-hop fading models on the instantaneous-SNR axis.

Every model exposes the same surface: ``pdf``, ``cdf``, ``sample``,
``with_mean_snr`` and a ``mean`` property equal to E[gamma].  pdf/cdf
accept scalars or numpy arrays and are 0 for gamma <= 0.  They run on
three evaluators: Exponential, Gamma, Weibull and GeneralizedGamma on
one generalized-Gamma law, which also gives their ``to_h`` density
kappa * H(delta * gamma); WeibullGamma and DoubleGeneralizedGamma on one
two-factor product, integrated over a fixed grid of its second factor
(their ``to_h`` raises ``UnsupportedHForm``); GammaGamma, Malaga and
GenericH on the H kernel in :mod:`.foxh`.  The samplers follow the
constitutive random-variable recipes instead, so Monte Carlo stays an
independent route end to end; they too run per parent law (one
generalized-Gamma draw, one product of two), and each builds its draw
in one array.  At integer shapes up to ``_ERLANG_MAX_SHAPE`` the
incomplete gamma functions of the generalized-Gamma law (its CDF, and
the quantiles that bound the product laws' grid) take their Erlang
closed forms; ``scipy.special`` is imported only for the other shapes,
by Gamma, GeneralizedGamma and the product laws' factors.  Exponential,
Weibull, the H kernel and every shipped config never load scipy.

Each family declares once which fields must be positive
(``_POSITIVE``) and which field is its mean (``_MEAN``); the mean only
rescales the law, every other field sets its shape.  Construction
evaluates no density: total probability is checked in closed form, and
only Malaga's truncated series and GenericH's user rows can miss 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property

import numpy as np

from . import foxh
from .errors import (
    ConfigError, DivergentIntegral, IntegrandOverflow, InvalidOrder,
    NormalizationError, UnsupportedHForm, check_number,
)
from .foxh import ContourSpec, HParams
# integrate_semi_infinite stays bound here for bench/selftest.py's checks
from .quadrature import integrate_semi_infinite, quantile_search  # noqa: F401

_NORM_TOL = 1e-6
_LOG_FLOAT_MAX = 709.782712893384  # log of the largest float


def _apply(g, fn):
    """Run a vectorised function over scalar or array input."""
    arr = np.asarray(g, dtype=float)
    out = fn(np.atleast_1d(arr).ravel())
    if arr.ndim == 0:
        return float(out[0])
    return np.asarray(out).reshape(arr.shape)


# math.lgamma over an array; the H-kernel laws keep scipy.special unloaded
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _positive_part(gamma, fn):
    """``_apply`` of ``fn`` to the entries gamma > 0; 0 elsewhere."""
    def f(g):
        out = np.zeros_like(g)
        pos = g > 0
        out[pos] = fn(g[pos])
        return out

    return _apply(gamma, f)


@dataclass(frozen=True)
class HRepresentation:
    """Density written as kappa * H(delta * gamma)."""

    kappa: float
    delta: float
    params: HParams


class FadingModel:
    """Construction check and mean scaling of every model.

    ``_POSITIVE`` names the fields that must be positive finite numbers
    (not booleans), ``_MEAN`` the field equal to E[gamma]; the other
    init fields set the shape.  ``_mass`` is the total probability.
    """

    _POSITIVE: tuple[str, ...] = ()
    _MEAN: str | None = "mean_snr"
    _mass = 1.0

    def __post_init__(self):
        order = getattr(self, "detection_order", 1)
        if isinstance(order, bool) or order not in (1, 2):
            raise ValueError("detection_order must be 1 or 2")
        for name in self._POSITIVE:
            check_number(name, getattr(self, name))
        self._verify_normalized()

    def pdf(self, gamma):
        raise NotImplementedError

    def cdf(self, gamma):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def to_h(self):
        raise UnsupportedHForm(
            f"{type(self).__name__} exposes no single H-function density")

    def with_mean_snr(self, mean_snr: float) -> "FadingModel":
        return replace(self, **{self._MEAN: mean_snr})

    @property
    def mean(self) -> float:
        return getattr(self, self._MEAN)

    def _mass_error(self) -> str:
        return (f"{type(self).__name__} has total probability "
                f"{self._mass!r}; check parameters")

    def _verify_normalized(self) -> None:
        """Total probability within _NORM_TOL of 1, read from ``_mass``."""
        if abs(self._mass - 1.0) > _NORM_TOL:
            raise NormalizationError(self._mass_error())


def _gen_gamma_pdf(x: np.ndarray, shape: float, power: float,
                   scale: float) -> np.ndarray:
    """Density of scale * G**(1/power), G ~ Gamma(shape, 1), at x > 0;
    z**(shape*power - 1) is left out where it is 1, so z = 0 reads its limit."""
    z = x / scale
    if shape * power == 1.0:
        log_f = -z ** power - math.lgamma(shape)
    else:
        with np.errstate(divide="ignore"):
            log_f = ((shape * power - 1.0) * np.log(z) - z ** power
                     - math.lgamma(shape))
    return np.exp(log_f) * power / scale


# Integer shapes up to this one run on the Erlang closed forms below:
# tests/test_fading.py::TestErlangClosedForms holds P and Q to 1e-13 of
# mpmath at every one of them, from P = 1e-300 to Q = 1e-300.  At shape
# 144 the series' z**m overflows on its upper end, z = m - 1.
_ERLANG_MAX_SHAPE = 143


def _erlang_shape(shape: float) -> int:
    """``shape`` as an int if the Erlang closed forms take it, else 0."""
    if shape == int(shape) and 1 <= shape <= _ERLANG_MAX_SHAPE:
        return int(shape)
    return 0


@cache
def _erlang_terms(m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """1/k! for k <= m, and the coefficients m!/(m + j)! of P(m, z)'s
    series up to the first that adds less than 2**-56 at z = m - 1; each
    correctly rounded (int / int)."""
    inverse = tuple(1 / math.factorial(k) for k in range(m + 1))
    series = [1.0]
    while series[-1] * (m - 1.0) ** len(series) >= 2.0 ** -56:
        series.append(math.factorial(m) / math.factorial(m + len(series)))
    return inverse, tuple(series)


def _horner(z: np.ndarray, coefs) -> np.ndarray:
    """sum_k coefs[k] * z**k; every term is positive, so no digit cancels."""
    s = np.zeros_like(z)
    for c in reversed(coefs):
        s *= z
        s += c
    return s


def _erlang_q(m: int, z: np.ndarray) -> np.ndarray:
    """Q(m, z) = e^-z sum_{k<m} z^k/k! (A&S 6.5.13) at integer m and
    z >= m - 1; e^(-z/2) taken twice keeps it normal down to 1e-300."""
    h = np.exp(-0.5 * z)
    return h * _horner(z, _erlang_terms(m)[0][:m]) * h


def _erlang_p(m: int, z: np.ndarray) -> np.ndarray:
    """P(m, z) = 1 - Q(m, z) at integer m, to its relative digits.

    At z >= m - 1, where P > 1/4, it is -expm1(-z) less the terms
    k = 1 .. m-1 of Q, so shape 1 is -expm1(-z) bit for bit; those terms
    are taken at z <= 1000, where z**k stays finite, as Q < 1e-250 beyond
    at every Erlang shape.  Below m - 1 it is the positive series
    e^-z z^m/m! sum_j z^j m!/(m + j)!.  Built in place, in the order of
    the plain expressions, so it keeps their bits with fewer arrays."""
    inverse, series = _erlang_terms(m)
    p = np.negative(z)
    np.expm1(p, out=p)
    np.negative(p, out=p)
    zc = np.minimum(z, 1e3)
    terms = _horner(zc, inverse[1:m])
    terms *= zc
    np.negative(zc, out=zc)
    terms *= np.exp(zc, out=zc)
    p -= terms
    low = z < m - 1
    if low.any():
        zl = z[low]
        head = _horner(zl, series)
        e = np.negative(zl)
        head *= np.exp(e, out=e)
        zl **= m
        zl *= inverse[m]
        head *= zl
        p[low] = head
    return p


def _gen_gamma_cdf(x: np.ndarray, shape: float, power: float,
                   scale: float) -> np.ndarray:
    """CDF of scale * G**(1/power), G ~ Gamma(shape, 1), at x > 0; only
    shapes off the Erlang closed forms need scipy's incomplete gamma."""
    z = (x / scale) ** power
    m = _erlang_shape(shape)
    if m:
        return _erlang_p(m, z)
    from scipy import special as sp
    return sp.gammainc(shape, z)


def _gen_gamma_draws(rng: np.random.Generator, n: int, shape: float,
                     power: float, scale: float) -> np.ndarray:
    """n draws of scale * G**(1/power), G ~ Gamma(shape, 1), built in one
    array."""
    g = rng.gamma(shape, 1.0, n)
    g **= 1.0 / power
    g *= scale
    return g


class _GenGammaLaw(FadingModel):
    """pdf, cdf, draws and H-form of scale * G**(1/power), G ~ Gamma(shape, 1).

    Subclasses supply ``_law = (shape, power, scale)``.
    """

    def sample(self, rng, n):
        return _gen_gamma_draws(rng, n, *self._law)

    def pdf(self, gamma):
        return _positive_part(gamma, lambda g: _gen_gamma_pdf(g, *self._law))

    def cdf(self, gamma):
        return _positive_part(gamma, lambda g: _gen_gamma_cdf(g, *self._law))

    def to_h(self) -> HRepresentation:
        m, xi, scale = self._law
        r = 1.0 / scale
        if math.lgamma(m) > _LOG_FLOAT_MAX:
            raise UnsupportedHForm(f"{type(self).__name__}'s H form divides "
                                   f"by Gamma({m!r}), beyond the float range")
        return HRepresentation(
            kappa=r / math.gamma(m), delta=r,
            params=HParams(m=1, n=0, lower=((m - 1.0 / xi, 1.0 / xi),)),
        )


@dataclass(frozen=True)
class Exponential(_GenGammaLaw):
    """Rayleigh-faded SNR: exponential with the given mean."""

    mean_snr: float = 1.0

    _POSITIVE = ("mean_snr",)

    @property
    def _law(self):
        return 1.0, 1.0, self.mean_snr


@dataclass(frozen=True)
class Gamma(_GenGammaLaw):
    """Nakagami-m power fading: Gamma-distributed SNR."""

    shape: float
    mean_snr: float = 1.0

    _POSITIVE = ("shape", "mean_snr")

    @property
    def _law(self):
        return self.shape, 1.0, self.mean_snr / self.shape


@dataclass(frozen=True)
class Weibull(_GenGammaLaw):
    """Weibull-distributed SNR, parameterised by its mean.

    The scale is mean_snr / Gamma(1 + 1/shape), so ``mean`` is exact.
    """

    shape: float
    mean_snr: float = 1.0

    _POSITIVE = ("shape", "mean_snr")

    @property
    def _law(self):
        return (1.0, self.shape,
                self.mean_snr / math.gamma(1.0 + 1.0 / self.shape))


@dataclass(frozen=True)
class GeneralizedGamma(_GenGammaLaw):
    """Stacy generalized-Gamma SNR, parameterised by its mean.

    ``gamma = scale * G**(1/power)`` with G ~ Gamma(shape, 1) and
    scale = mean_snr * Gamma(shape) / Gamma(shape + 1/power).
    """

    shape: float
    power: float
    mean_snr: float = 1.0

    _POSITIVE = ("shape", "power", "mean_snr")

    @property
    def _law(self):
        ratio = math.exp(math.lgamma(self.shape + 1.0 / self.power)
                         - math.lgamma(self.shape))
        return self.shape, self.power, self.mean_snr / ratio


def _erlang_quantile(m: int, target: float, upper: bool) -> float:
    """z with P(m, z) = target, or Q(m, z) = target if ``upper``, at
    integer m: Newton's method in ln z on ln P (ln Q), whose slope is
    +-e^-z z^m/(m - 1)! over P (Q), from the leading term's root, z^m/m!
    for P and e^-z z^(m-1)/(m-1)! for Q.  The residual is ln of the ratio
    to ``target``, not a difference of logs, so it converges to a few ulp."""
    if upper:
        fn, sign, z = _erlang_q, -1.0, float(m)
        for _ in range(3):
            z = max(m, (m - 1) * math.log(z) - math.lgamma(m)
                    - math.log(target))
    else:
        fn, sign = _erlang_p, 1.0
        z = math.exp((math.log(target) + math.lgamma(m + 1)) / m)
    for _ in range(50):
        v = float(fn(m, np.array([z]))[0])
        slope = sign * math.exp(m * math.log(z) - z - math.lgamma(m)) / v
        step = math.log(v / target) / slope
        z += z * math.expm1(-step)
        if abs(step) <= 2.0 ** -50:
            return z
    raise ArithmeticError(f"no Erlang quantile at shape {m}, target {target}")


def _gen_gamma_ends(shape: float, power: float, scale: float):
    """The 1e-12 and 1 - 1e-13 quantiles of scale * G**(1/power),
    G ~ Gamma(shape, 1): closed-form Newton at Erlang shapes, scipy's
    inverse incomplete gamma functions elsewhere."""
    m = _erlang_shape(shape)
    if m:
        ends = (_erlang_quantile(m, 1e-12, False),
                _erlang_quantile(m, 1e-13, True))
    else:
        from scipy import special as sp
        ends = sp.gammaincinv(shape, 1e-12), sp.gammainccinv(shape, 1e-13)
    return tuple(scale * e ** (1.0 / power) for e in ends)


def _gen_gamma_grid(shape: float, power: float, scale: float):
    """Log-space Gauss-Legendre mixing grid (48 panels of order 10) of
    scale * G**(1/power), G ~ Gamma(shape, 1), between its 1e-12 and
    1 - 1e-13 quantiles (``_gen_gamma_ends``), with the density folded
    into the weights.

    The weights are divided by their sum, so a mixture's CDF reaches 1:
    the mass cut off outside the quantiles would otherwise leave a
    survival floor of about 1e-12, which ora's (1 + g) weight turns
    into a term growing like log g at low SNR."""
    lo, hi = _gen_gamma_ends(shape, power, scale)
    gx, gw = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(math.log(lo), math.log(hi), 48 + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    u = np.exp((mid[:, None] + half[:, None] * gx[None, :]).ravel())
    w = (half[:, None] * gw[None, :]).ravel() * u * _gen_gamma_pdf(
        u, shape, power, scale)
    return u, w / w.sum()


class _ProductLaw(FadingModel):
    """pdf, cdf and draws of gamma = mean * I**r / E[I**r], where I = I1 * I2
    is a product of independent generalized-Gamma factors
    I_i = (omega_i / m_i)**(1/alpha_i) * G_i**(1/alpha_i), G_i ~ Gamma(m_i, 1).

    Subclasses supply ``_factors``, the (alpha_i, m_i, omega_i) of both
    factors, and ``_order``, the power r.  pdf/cdf integrate the first
    factor's law against a fixed log-space grid of the second; the
    sampler draws factor 0, then factor 1.  The grid is built at
    construction (scipy.special imported only for a factor off the Erlang
    shapes): a shape it cannot take fails then.
    """

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_factor2_grid",
                           _gen_gamma_grid(*self._factor_law(1)))

    def _product_moment(self, r: float) -> float:
        return math.prod(
            (om / m) ** (r / a)
            * math.exp(math.lgamma(m + r / a) - math.lgamma(m))
            for a, m, om in self._factors)

    def _y_of_gamma(self, g: np.ndarray) -> np.ndarray:
        """Map SNR to the product value y = I1 * I2."""
        r = self._order
        return (g * self._product_moment(r) / self.mean) ** (1.0 / r)

    def _factor_law(self, i: int) -> tuple[float, float, float]:
        """(shape, power, scale) of factor i as a generalized Gamma."""
        a, m, om = self._factors[i]
        return m, a, (om / m) ** (1.0 / a)

    def pdf(self, gamma):
        u, w = self._factor2_grid
        r, law = self._order, self._factor_law(0)

        def f(g):
            y = self._y_of_gamma(g)
            fy = (_gen_gamma_pdf(y[:, None] / u[None, :], *law)
                  / u[None, :]) @ w
            # dy/dgamma = y / (r * gamma)
            return fy * y / (r * g)

        return _positive_part(gamma, f)

    def cdf(self, gamma):
        u, w = self._factor2_grid
        law = self._factor_law(0)

        def f(g):
            y = self._y_of_gamma(g)
            return np.clip(
                _gen_gamma_cdf(y[:, None] / u[None, :], *law) @ w, 0.0, 1.0)

        return _positive_part(gamma, f)

    def sample(self, rng, n):
        r = self._order
        i = _gen_gamma_draws(rng, n, *self._factor_law(0))
        i *= _gen_gamma_draws(rng, n, *self._factor_law(1))
        i **= r
        i *= self.mean
        i /= self._product_moment(r)
        return i


@dataclass(frozen=True)
class WeibullGamma(_ProductLaw):
    """Weibull fading whose local-mean SNR is Gamma shadowed.

    Conditionally on the shadowing power S ~ Gamma(gamma_shape,
    mean_power / gamma_shape), the SNR is Weibull with shape
    ``weibull_shape`` and conditional mean S.  This is the double
    generalized Gamma with (alpha, m) = (weibull_shape, 1) and
    (1, gamma_shape) at r = 1; it is an H^{2,0}_{0,2} law, but pdf/cdf
    run through the two-factor product, not the H kernel.
    """

    weibull_shape: float
    gamma_shape: float
    mean_power: float = 1.0

    _POSITIVE = ("weibull_shape", "gamma_shape", "mean_power")
    _MEAN = "mean_power"
    _order = 1.0

    @property
    def _factors(self):
        return (self.weibull_shape, 1.0, 1.0), (1.0, self.gamma_shape, 1.0)


class _HKernel(FadingModel):
    """pdf/cdf of a density kappa * H(delta * gamma) through :mod:`.foxh`.

    Subclasses supply ``_canon``, that representation.  The contour memo
    (θ on each node grid, the truncation, each level's weights) is looked
    up by ``_canon.params``, so every SNR point and every instance of a
    shape share it: the mean only moves kappa and delta, and θ depends
    on the H rows alone.  Malaga, whose kernel is a fused series without
    a parameter block, supplies ``_kappa_delta``, ``_theta`` and both
    contours instead; its series coefficients include log delta, which
    moves with the mean, so it keeps one memo per instance.
    """

    @property
    def _kappa_delta(self) -> tuple[float, float]:
        return self._canon.kappa, self._canon.delta

    @property
    def _theta(self):
        # keyed on the rows θ is built from, so every mean shares it
        return foxh.shared_theta(self._canon.params)

    @cached_property
    def _pdf_contour(self) -> ContourSpec:
        return foxh.select_contour(self._canon.params)

    @cached_property
    def _cdf_contour(self) -> ContourSpec:
        # left of the CDF kernel's weight pole at 1
        return foxh.select_contour(self._canon.params, upper_bound=1.0)

    def pdf(self, gamma):
        kappa, delta = self._kappa_delta

        def f(g):
            v, _ = foxh.mellin_barnes(self._theta, self._pdf_contour, delta * g)
            return np.maximum(kappa * v, 0.0)

        return _positive_part(gamma, f)

    def cdf(self, gamma):
        kappa, delta = self._kappa_delta

        def f(g):
            v, _ = foxh.mellin_barnes(
                self._theta, self._cdf_contour, delta * g, weight_power=0.0,
            )
            return np.clip(self._cdf_from_kernel(v, kappa, delta), 0.0, 1.0)

        return _positive_part(gamma, f)

    def _cdf_from_kernel(self, v, kappa, delta):
        return kappa / delta * v


@dataclass(frozen=True)
class GammaGamma(_HKernel):
    """Gamma-Gamma turbulence with zero-boresight pointing error.

    Irradiance I = Ia * Ip with Ia a unit-mean product of two Gamma
    variates (alpha, beta) and Ip = U**(1/xi^2) on (0, 1]; the SNR is
    gamma = mean_snr * I**r / E[I**r] for detection order r in {1, 2}.
    The analytic pdf/cdf run through a single H kernel; ``pointing_h``
    and ``mu_r`` expose the usual derived constants.
    """

    alpha: float
    beta: float
    xi: float
    detection_order: int = 1
    mean_snr: float = 1.0

    _POSITIVE = ("alpha", "beta", "xi", "mean_snr")

    def __post_init__(self):
        super().__post_init__()
        # to_h's kappa divides by Gamma(alpha) * Gamma(beta)
        check_number("lgamma(alpha) + lgamma(beta)", math.lgamma(self.alpha)
                     + math.lgamma(self.beta), -math.inf, _LOG_FLOAT_MAX, "(]")

    @property
    def pointing_h(self) -> float:
        x2 = self.xi ** 2
        return x2 / (x2 + 1.0)

    @property
    def mu_r(self) -> float:
        r = float(self.detection_order)
        return self.mean_snr * self.pointing_h ** r / self._moment_irradiance(r)

    def _moment_irradiance(self, r: float) -> float:
        """E[I**r] of the constitutive irradiance."""
        a, b, x2 = self.alpha, self.beta, self.xi ** 2
        m_ia = math.exp(
            math.lgamma(a + r) + math.lgamma(b + r)
            - math.lgamma(a) - math.lgamma(b)
        ) / (a * b) ** r
        return m_ia * x2 / (x2 + r)

    def to_h(self) -> HRepresentation:
        # kappa * gamma^-1 * H(delta * gamma) with the 1/gamma folded in
        a, b, x2 = self.alpha, self.beta, self.xi ** 2
        r = float(self.detection_order)
        delta = (self.pointing_h * a * b) ** r / self.mu_r
        kappa = x2 / math.exp(math.lgamma(a) + math.lgamma(b))
        return HRepresentation(
            kappa=kappa * delta, delta=delta,
            params=HParams(
                m=3, n=0,
                upper=((x2 + 1.0 - r, r),),
                lower=((x2 - r, r), (a - r, r), (b - r, r)),
            ),
        )

    @cached_property
    def _canon(self) -> HRepresentation:
        return self.to_h()

    def sample(self, rng, n):
        a, b, x2 = self.alpha, self.beta, self.xi ** 2
        irr = rng.gamma(a, 1.0 / a, n)
        irr *= rng.gamma(b, 1.0 / b, n)
        ip = rng.random(n)
        ip **= 1.0 / x2
        irr *= ip
        r = float(self.detection_order)
        irr **= r
        irr *= self.mean_snr
        irr /= self._moment_irradiance(r)
        return irr


@dataclass(frozen=True)
class DoubleGeneralizedGamma(_ProductLaw):
    """Product of two generalized-Gamma irradiance factors.

    I = I1 * I2 with I_i generalized-Gamma (alpha_i, m_i, omega_i);
    gamma = mean_snr * I**r / E[I**r], so a deterministic path loss
    would cancel and none is taken.
    """

    alpha1: float
    alpha2: float
    m1: float
    m2: float
    omega1: float = 1.0
    omega2: float = 1.0
    detection_order: int = 1
    mean_snr: float = 1.0

    _POSITIVE = ("alpha1", "alpha2", "m1", "m2", "omega1", "omega2",
                 "mean_snr")

    @property
    def _factors(self):
        return ((self.alpha1, self.m1, self.omega1),
                (self.alpha2, self.m2, self.omega2))

    @property
    def _order(self) -> float:
        return float(self.detection_order)


@dataclass(frozen=True)
class Malaga(_HKernel):
    """Malaga atmospheric-turbulence irradiance with shadowed line of sight.

    Constitutive recipe: I = X * Z where X ~ Gamma(alpha, 1/alpha) is
    large-scale turbulence and Z is the power of a circular Gaussian of
    variance g = 2 b0 (1 - rho) around a line-of-sight amplitude whose
    power Omega' + 2 b0 rho is Gamma(beta) shadowed.  Z is an exact
    discrete mixture of Erlangs: binomial weights (beta integer, beta
    terms) or negative-binomial weights (any beta, truncated at
    ``series_terms``, at most ``MAX_SERIES_TERMS``, with an exact tail
    bound, which the normalization check rejects above 1e-6).  The SNR
    axis is scaled so that E[gamma] = mean_irradiance.
    """

    alpha: float
    beta: float
    omega_prime: float
    b0: float
    rho: float
    mean_irradiance: float = 1.0
    series_terms: int = 40

    _POSITIVE = ("alpha", "beta", "b0", "mean_irradiance")
    _MEAN = "mean_irradiance"
    # fig2_malaga's hop takes about 0.45 s for its first density value at
    # 30,000 terms on 2 cores; the time is linear in the terms
    MAX_SERIES_TERMS = 30_000

    def __post_init__(self):
        check_number("omega_prime", self.omega_prime, 0.0, ends="[)")
        check_number("rho", self.rho, 0.0, 1.0, ends="[)")
        check_number("series_terms", self.series_terms, 1,
                     self.MAX_SERIES_TERMS, ends="[]", integer=True)
        super().__post_init__()

    @property
    def scatter_power(self) -> float:
        return 2.0 * self.b0 * (1.0 - self.rho)

    @property
    def los_power(self) -> float:
        return self.omega_prime + 2.0 * self.b0 * self.rho

    @property
    def _beta_integer(self) -> bool:
        return abs(self.beta - round(self.beta)) < 1e-12

    @property
    def _mix_x(self) -> float:
        g, om = self.scatter_power, self.los_power
        return om / (self.beta * g + om)

    @property
    def _snr_scale(self) -> float:
        return self.mean_irradiance / (self.scatter_power + self.los_power)

    @cached_property
    def _series(self):
        """(erlang_scale, log_weights) of the Z mixture, SNR units."""
        g, x = self.scatter_power, self._mix_x
        b = self.beta
        if self._beta_integer:
            nb = int(round(b))
            k = np.arange(nb)
            if x == 0.0:
                lw = np.where(k == 0, 0.0, -np.inf)
            else:
                lw = (
                    math.lgamma(nb) - _lgamma(k + 1.0) - _lgamma(nb - k + 0.0)
                    + k * math.log(x)
                    + (nb - 1 - k) * math.log1p(-x)
                )
            erl_scale = (g * b + self.los_power) / b
        else:
            k = np.arange(self.series_terms)
            if x == 0.0:
                lw = np.where(k == 0, 0.0, -np.inf)
            else:
                lw = (
                    _lgamma(b + k) - math.lgamma(b) - _lgamma(k + 1.0)
                    + k * math.log(x) + b * math.log1p(-x)
                )
            erl_scale = g
        return erl_scale * self._snr_scale, lw

    @property
    def _mass(self) -> float:
        return 1.0 - self.series_tail

    def _mass_error(self) -> str:
        return (f"series truncation leaves {self.series_tail:.2e} probability"
                f" mass; raise series_terms above {self.series_terms}")

    @property
    def series_tail(self) -> float:
        """Probability mass beyond the truncated mixture (exact)."""
        b, x, k = self.beta, self._mix_x, self.series_terms
        if self._beta_integer or x == 0.0:
            return 0.0
        # P(K >= N) for K ~ NegBinomial(beta, 1 - x).  A tail above 1/2
        # is 1 minus the N kept weights, to rounding; a term-by-term sum
        # would take about 40/(1 - x) terms as x nears 1.  A smaller tail
        # is the pmf at N, then each next term (b + k)/(k + 1) * x times
        # the last.  The ratios tend monotonically to x, so once the
        # larger of the last ratio and x is below 1, the rest is at most
        # term / (1 - that).
        head = float(np.exp(self._series[1]).sum())
        if head < 0.5:
            return 1.0 - head
        term = math.exp(math.lgamma(b + k) - math.lgamma(b)
                        - math.lgamma(k + 1.0)
                        + k * math.log(x) + b * math.log1p(-x))
        total = 0.0
        while term > 0.0:
            total += term
            ratio = (b + k) / (k + 1.0) * x
            term *= ratio
            k += 1
            worst = max(ratio, x)
            if worst < 1.0 and term <= 1e-17 * (1.0 - worst) * total:
                break
        return total

    @cached_property
    def _kernel(self):
        """delta and per-term log-coefficients of the fused H series."""
        erl_scale, lw = self._series
        a = self.alpha
        delta = a / erl_scale
        # pdf = sum_k w_k / (Gamma(a) k!) * gamma^-1 H(delta g | (a,1),(k+1,1));
        # folding the 1/gamma in multiplies each coefficient by delta.
        lk = lw - math.lgamma(a) - _lgamma(np.arange(len(lw)) + 1.0) \
            + math.log(delta)
        return delta, lk

    @cached_property
    def _theta(self):
        delta, lk = self._kernel
        return foxh.cached_theta(
            foxh.fused_series_theta(((self.alpha - 1.0, 1.0),), lk)
        )

    @property
    def _kappa_delta(self) -> tuple[float, float]:
        # the series coefficients already carry kappa
        return 1.0, self._kernel[0]

    @property
    def _left_edge(self) -> float:
        return max(0.0, 1.0 - self.alpha)

    @cached_property
    def _pdf_contour(self) -> ContourSpec:
        return ContourSpec(c=self._left_edge + 1.0)

    @cached_property
    def _cdf_contour(self) -> ContourSpec:
        return ContourSpec(c=0.5 * (self._left_edge + 1.0))

    def _cdf_from_kernel(self, v, kappa, delta):
        # v / delta rounds differently from 1.0 / delta * v; the shipped
        # outputs were computed with this form
        return v / delta

    def sample(self, rng, n):
        g, om = self.scatter_power, self.los_power
        x = rng.gamma(self.alpha, 1.0 / self.alpha, n)
        # z = (sqrt(w * om) + re)**2 + im**2, built in place as its
        # normal parts are drawn
        z = rng.gamma(self.beta, 1.0 / self.beta, n)
        z *= om
        np.sqrt(z, out=z)
        z += rng.normal(0.0, math.sqrt(g / 2.0), n)
        np.square(z, out=z)
        im = rng.normal(0.0, math.sqrt(g / 2.0), n)
        z += np.square(im, out=im)
        x *= self._snr_scale
        x *= z
        return x


@dataclass(frozen=True)
class GenericH(_HKernel):
    """User-supplied density kappa * H(delta * gamma | params).

    Total probability, the rows' Mellin transform at s = 1, is checked
    at construction; the moment validates the rows first.
    Sampling inverts the CDF on a precomputed monotone grid.  No single
    field is the mean: kappa and delta both scale with it.
    """

    kappa: float
    delta: float
    params: HParams

    _POSITIVE = ("kappa", "delta")
    _MEAN = None

    @cached_property
    def _canon(self) -> HRepresentation:
        return HRepresentation(kappa=self.kappa, delta=self.delta,
                               params=self.params)

    @cached_property
    def _inverse_grid(self):
        lo = quantile_search(lambda x: self.cdf(x), 1e-9, start=self.mean)
        hi = quantile_search(lambda x: self.cdf(x), 1.0 - 1e-9, start=self.mean)
        grid = np.geomspace(max(lo * 0.5, 1e-300), hi * 2.0, 4097)
        probs = np.maximum.accumulate(self.cdf(grid))
        keep = np.concatenate([[True], np.diff(probs) > 0])
        return probs[keep], np.log(grid[keep])

    def sample(self, rng, n):
        probs, lng = self._inverse_grid
        lg = np.interp(rng.uniform(probs[0], probs[-1], n), probs, lng)
        return np.exp(lg, out=lg)

    def with_mean_snr(self, mean_snr):
        ratio = self.mean / mean_snr
        return replace(self, kappa=self.kappa * ratio, delta=self.delta * ratio)

    @property
    def mean(self):
        return foxh.mellin_moment(self.params, self.kappa, self.delta, 1.0)

    @property
    def _mass(self) -> float:
        try:
            return foxh.mellin_moment(self.params, self.kappa, self.delta, 0)
        except (DivergentIntegral, IntegrandOverflow) as exc:
            raise NormalizationError(f"GenericH mass diverges: {exc}") from exc


FAMILIES: dict[str, type] = {
    "exponential": Exponential,
    "gamma": Gamma,
    "weibull": Weibull,
    "generalized_gamma": GeneralizedGamma,
    "weibull_gamma": WeibullGamma,
    "gamma_gamma": GammaGamma,
    "double_generalized_gamma": DoubleGeneralizedGamma,
    "malaga": Malaga,
    "generic_h": GenericH,
}


def model_from_config(spec: dict) -> FadingModel:
    """Build a hop model from a config mapping with a ``family`` key."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("hop model must be a mapping with a 'family' key")
    family = spec["family"]
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ConfigError(
            f"unknown fading family {family!r}; expected one of "
            f"{sorted(FAMILIES)}"
        )
    kwargs = {k: v for k, v in spec.items() if k != "family"}
    if cls is GenericH:
        try:
            h = kwargs.pop("h")
            unknown = set(h) - {"m", "n", "upper", "lower"}
            if unknown:
                raise ConfigError(
                    f"unknown key(s) {sorted(unknown)} in the generic_h block"
                )
            for order in ("m", "n"):
                if isinstance(h[order], bool) or not isinstance(h[order], int):
                    raise ConfigError(
                        f"generic_h order {order!r} must be an integer, "
                        f"got {h[order]!r}"
                    )
            kwargs["params"] = HParams(
                m=h["m"], n=h["n"],
                upper=tuple((float(a), float(aa)) for a, aa in h.get("upper", [])),
                lower=tuple((float(b), float(bb)) for b, bb in h.get("lower", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad generic_h parameter block: {exc}") from exc
    allowed = {f.name for f in fields(cls) if f.init}
    unknown = set(kwargs) - allowed
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {sorted(unknown)} for family {family!r}"
        )
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, InvalidOrder) as exc:
        raise ConfigError(f"bad parameters for family {family!r}: {exc}") from exc
