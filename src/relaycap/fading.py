"""Catalog of single-hop fading models on the instantaneous-SNR axis.

Every model exposes the same surface: ``pdf``, ``cdf``, ``sample``,
``with_mean_snr`` and a ``mean`` property equal to E[gamma].  pdf/cdf
accept scalars or numpy arrays.  ``to_h`` returns the H-function
density of Exponential, Gamma, Weibull, GeneralizedGamma and
GammaGamma; the other families raise ``UnsupportedHForm``.
GammaGamma, Malaga and GenericH evaluate pdf/cdf through one H kernel
in :mod:`.foxh`; the samplers are built from the constitutive
random-variable recipes instead, so Monte Carlo stays an independent
route end to end.

Total probability of each distinct shape is checked once, at first
construction, by an adaptive quadrature that does not share code with
the analytic kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
from scipy import special as sp

from . import foxh
from .errors import NormalizationError, UnsupportedHForm
from .foxh import ContourSpec, HParams
from .quadrature import integrate_semi_infinite

_NORM_TOL = 1e-6
_norm_checked: dict[tuple, bool] = {}


def _apply(g, fn):
    """Run a vectorised function over scalar or array input."""
    arr = np.asarray(g, dtype=float)
    out = fn(np.atleast_1d(arr).ravel())
    if arr.ndim == 0:
        return float(out[0])
    return np.asarray(out).reshape(arr.shape)


@dataclass(frozen=True)
class HRepresentation:
    """Density written as kappa * gamma^gamma_power * H(delta * gamma).

    ``gamma_power`` keeps catalog rows that carry a bare 1/gamma factor
    outside the H kernel representable without rewriting them;
    :meth:`canonical` absorbs the power into the kernel rows.
    """

    kappa: float
    delta: float
    params: HParams
    gamma_power: float = 0.0

    def canonical(self) -> "HRepresentation":
        """Equivalent representation with gamma_power = 0."""
        s = self.gamma_power
        if s == 0.0:
            return self
        upper = tuple((a + s * aa, aa) for a, aa in self.params.upper)
        lower = tuple((b + s * bb, bb) for b, bb in self.params.lower)
        return HRepresentation(
            kappa=self.kappa * self.delta ** (-s),
            delta=self.delta,
            params=HParams(m=self.params.m, n=self.params.n,
                           upper=upper, lower=lower),
            gamma_power=0.0,
        )


class FadingModel:
    """Shared checks for the concrete per-hop models.

    ``with_mean_snr`` and ``mean`` serve the families that scale through
    a ``mean_snr`` field; the others override both.
    """

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
        return replace(self, mean_snr=mean_snr)

    @property
    def mean(self) -> float:
        return self.mean_snr

    def _shape_key(self) -> tuple:
        raise NotImplementedError

    def _verify_normalized(self) -> None:
        """Quadrature check of total probability, once per shape."""
        key = self._shape_key()
        if _norm_checked.get(key) is not None:
            return
        _norm_checked[key] = False  # re-entrancy guard for the unit copy
        try:
            unit = self.with_mean_snr(1.0)
            total, err = integrate_semi_infinite(
                lambda g: unit.pdf(g), scale=0.5,
                rel_tol=1e-9, abs_tol=1e-12,
            )
            deficit = getattr(unit, "series_tail", 0.0)
            if abs(total + deficit - 1.0) > max(_NORM_TOL, 10.0 * err):
                raise NormalizationError(
                    f"{type(self).__name__} density integrates to {total!r} "
                    f"(series tail {deficit:.2e}); check parameters"
                )
        except Exception:
            _norm_checked.pop(key, None)
            raise
        _norm_checked[key] = True


def _positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class Exponential(FadingModel):
    """Rayleigh-faded SNR: exponential with the given mean."""

    mean_snr: float = 1.0

    def __post_init__(self):
        _positive("mean_snr", self.mean_snr)
        self._verify_normalized()

    def pdf(self, gamma):
        r = 1.0 / self.mean_snr

        def f(g):
            out = np.zeros_like(g)
            pos = g >= 0
            out[pos] = r * np.exp(-r * g[pos])
            return out

        return _apply(gamma, f)

    def cdf(self, gamma):
        r = 1.0 / self.mean_snr

        def f(g):
            out = np.zeros_like(g)
            pos = g > 0
            out[pos] = -np.expm1(-r * g[pos])
            return out

        return _apply(gamma, f)

    def sample(self, rng, n):
        return rng.exponential(self.mean_snr, n)

    def to_h(self) -> HRepresentation:
        r = 1.0 / self.mean_snr
        return HRepresentation(
            kappa=r, delta=r,
            params=HParams(m=1, n=0, lower=((0.0, 1.0),)),
        )

    def _shape_key(self):
        return ("exponential",)


@dataclass(frozen=True)
class Gamma(FadingModel):
    """Nakagami-m power fading: Gamma-distributed SNR."""

    shape: float
    mean_snr: float = 1.0

    def __post_init__(self):
        _positive("shape", self.shape)
        _positive("mean_snr", self.mean_snr)
        self._verify_normalized()

    def pdf(self, gamma):
        m, rate = self.shape, self.shape / self.mean_snr

        def f(g):
            out = np.zeros_like(g)
            pos = g > 0
            gp = g[pos]
            out[pos] = np.exp(
                m * np.log(rate) + (m - 1.0) * np.log(gp) - rate * gp
                - sp.gammaln(m)
            )
            return out

        return _apply(gamma, f)

    def cdf(self, gamma):
        m, rate = self.shape, self.shape / self.mean_snr
        return _apply(gamma, lambda g: np.where(g > 0, sp.gammainc(m, rate * np.maximum(g, 0.0)), 0.0))

    def sample(self, rng, n):
        return rng.gamma(self.shape, self.mean_snr / self.shape, n)

    def to_h(self) -> HRepresentation:
        m, rate = self.shape, self.shape / self.mean_snr
        return HRepresentation(
            kappa=rate / math.gamma(m), delta=rate,
            params=HParams(m=1, n=0, lower=((m - 1.0, 1.0),)),
        )

    def _shape_key(self):
        return ("gamma", self.shape)


@dataclass(frozen=True)
class Weibull(FadingModel):
    """Weibull-distributed SNR, parameterised by its mean.

    The scale is mean_snr / Gamma(1 + 1/shape), so ``mean`` is exact.
    """

    shape: float
    mean_snr: float = 1.0

    def __post_init__(self):
        _positive("shape", self.shape)
        _positive("mean_snr", self.mean_snr)
        self._verify_normalized()

    @property
    def _scale(self) -> float:
        return self.mean_snr / math.gamma(1.0 + 1.0 / self.shape)

    def pdf(self, gamma):
        k, lam = self.shape, self._scale

        def f(g):
            out = np.zeros_like(g)
            pos = g > 0
            z = g[pos] / lam
            out[pos] = (k / lam) * z ** (k - 1.0) * np.exp(-(z ** k))
            return out

        return _apply(gamma, f)

    def cdf(self, gamma):
        k, lam = self.shape, self._scale
        return _apply(gamma, lambda g: np.where(
            g > 0, -np.expm1(-((np.maximum(g, 0.0) / lam) ** k)), 0.0))

    def sample(self, rng, n):
        return self._scale * rng.weibull(self.shape, n)

    def to_h(self) -> HRepresentation:
        k = self.shape
        r = 1.0 / self._scale
        return HRepresentation(
            kappa=r, delta=r,
            params=HParams(m=1, n=0, lower=((1.0 - 1.0 / k, 1.0 / k),)),
        )

    def _shape_key(self):
        return ("weibull", self.shape)


@dataclass(frozen=True)
class GeneralizedGamma(FadingModel):
    """Stacy generalized-Gamma SNR, parameterised by its mean.

    ``gamma = scale * G**(1/power)`` with G ~ Gamma(shape, 1) and
    scale = mean_snr * Gamma(shape) / Gamma(shape + 1/power).
    """

    shape: float
    power: float
    mean_snr: float = 1.0

    def __post_init__(self):
        _positive("shape", self.shape)
        _positive("power", self.power)
        _positive("mean_snr", self.mean_snr)
        self._verify_normalized()

    @property
    def _scale(self) -> float:
        ratio = math.exp(sp.gammaln(self.shape + 1.0 / self.power)
                         - sp.gammaln(self.shape))
        return self.mean_snr / ratio

    def pdf(self, gamma):
        m, xi, a = self.shape, self.power, self._scale

        def f(g):
            out = np.zeros_like(g)
            pos = g > 0
            z = g[pos] / a
            out[pos] = np.exp(
                np.log(xi / a) + (m * xi - 1.0) * np.log(z) - z ** xi
                - sp.gammaln(m)
            )
            return out

        return _apply(gamma, f)

    def cdf(self, gamma):
        m, xi, a = self.shape, self.power, self._scale
        return _apply(gamma, lambda g: np.where(
            g > 0, sp.gammainc(m, (np.maximum(g, 0.0) / a) ** xi), 0.0))

    def sample(self, rng, n):
        return self._scale * rng.gamma(self.shape, 1.0, n) ** (1.0 / self.power)

    def to_h(self) -> HRepresentation:
        m, xi = self.shape, self.power
        r = 1.0 / self._scale
        return HRepresentation(
            kappa=r / math.gamma(m), delta=r,
            params=HParams(m=1, n=0, lower=((m - 1.0 / xi, 1.0 / xi),)),
        )

    def _shape_key(self):
        return ("generalized_gamma", self.shape, self.power)


def _log_gl_grid(lo: float, hi: float, panels: int = 40, order: int = 10):
    """Composite Gauss-Legendre nodes/weights for integrals over [lo, hi]
    taken in log space, returned in the original coordinates."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(math.log(lo), math.log(hi), panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    v = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w = (half[:, None] * gw[None, :]).ravel()
    u = np.exp(v)
    return u, w * u


@dataclass(frozen=True)
class WeibullGamma(FadingModel):
    """Weibull fading whose local-mean SNR is Gamma shadowed.

    Conditionally on the shadowing power S ~ Gamma(gamma_shape,
    mean_power / gamma_shape), the SNR is Weibull with shape
    ``weibull_shape`` and conditional mean S.  No closed H-form exists
    for this compound; pdf/cdf integrate the conditional laws over a
    fixed log-space Gauss-Legendre grid of the shadowing density.
    """

    weibull_shape: float
    gamma_shape: float
    mean_power: float = 1.0

    def __post_init__(self):
        _positive("weibull_shape", self.weibull_shape)
        _positive("gamma_shape", self.gamma_shape)
        _positive("mean_power", self.mean_power)
        self._verify_normalized()

    @cached_property
    def _shadow_grid(self):
        a = self.gamma_shape
        scale = self.mean_power / a
        lo = scale * sp.gammaincinv(a, 1e-12)
        hi = scale * sp.gammainccinv(a, 1e-13)
        u, w = _log_gl_grid(lo, hi, panels=48, order=10)
        dens = np.exp((a - 1.0) * np.log(u / scale) - u / scale
                      - sp.gammaln(a)) / scale
        return u, w * dens

    def _conditional_scale(self, s: np.ndarray) -> np.ndarray:
        return s / math.gamma(1.0 + 1.0 / self.weibull_shape)

    def pdf(self, gamma):
        k = self.weibull_shape
        s, w = self._shadow_grid
        lam = self._conditional_scale(s)

        def f(g):
            out = np.zeros_like(g)
            pos = g > 0
            z = g[pos, None] / lam[None, :]
            cond = (k / lam[None, :]) * z ** (k - 1.0) * np.exp(-(z ** k))
            out[pos] = cond @ w
            return out

        return _apply(gamma, f)

    def cdf(self, gamma):
        k = self.weibull_shape
        s, w = self._shadow_grid
        lam = self._conditional_scale(s)

        def f(g):
            out = np.zeros_like(g)
            pos = g > 0
            z = g[pos, None] / lam[None, :]
            cond = -np.expm1(-(z ** k))
            out[pos] = cond @ w
            return out

        return _apply(gamma, f)

    def sample(self, rng, n):
        s = rng.gamma(self.gamma_shape, self.mean_power / self.gamma_shape, n)
        return self._conditional_scale(s) * rng.weibull(self.weibull_shape, n)

    def to_h(self):
        raise UnsupportedHForm(
            "the Weibull-Gamma compound has no valid H-function kernel; "
            "use the quadrature pdf/cdf or the sampler"
        )

    def with_mean_snr(self, mean_snr):
        return replace(self, mean_power=mean_snr)

    @property
    def mean(self):
        return self.mean_power

    def _shape_key(self):
        return ("weibull_gamma", self.weibull_shape, self.gamma_shape)


class _HKernel(FadingModel):
    """pdf/cdf of a density kappa * H(delta * gamma) through :mod:`.foxh`.

    Subclasses supply ``_canon``, the representation with gamma_power 0.
    Malaga, whose kernel is a fused series without a parameter block,
    supplies ``_kappa_delta``, ``_theta`` and both contours instead.
    """

    @property
    def _kappa_delta(self) -> tuple[float, float]:
        return self._canon.kappa, self._canon.delta

    @cached_property
    def _theta(self):
        return foxh.cached_theta(foxh.log_theta(self._canon.params))

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
            out = np.zeros_like(g)
            pos = g > 0
            v, _ = foxh.mellin_barnes(
                self._theta, self._pdf_contour, delta * g[pos]
            )
            out[pos] = kappa * v
            return np.maximum(out, 0.0)

        return _apply(gamma, f)

    def cdf(self, gamma):
        kappa, delta = self._kappa_delta

        def f(g):
            out = np.zeros_like(g)
            pos = g > 0
            v, _ = foxh.mellin_barnes(
                self._theta, self._cdf_contour, delta * g[pos],
                weight_power=0.0,
            )
            out[pos] = self._cdf_from_kernel(v, kappa, delta)
            return np.clip(out, 0.0, 1.0)

        return _apply(gamma, f)

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
    pointing_h: float = field(init=False, repr=False)
    mu_r: float = field(init=False, repr=False)

    def __post_init__(self):
        _positive("alpha", self.alpha)
        _positive("beta", self.beta)
        _positive("xi", self.xi)
        _positive("mean_snr", self.mean_snr)
        if self.detection_order not in (1, 2):
            raise ValueError("detection_order must be 1 or 2")
        x2 = self.xi ** 2
        object.__setattr__(self, "pointing_h", x2 / (x2 + 1.0))
        r = float(self.detection_order)
        object.__setattr__(
            self, "mu_r",
            self.mean_snr * self.pointing_h ** r / self._moment_irradiance(r),
        )
        self._verify_normalized()

    def _moment_irradiance(self, r: float) -> float:
        """E[I**r] of the constitutive irradiance."""
        a, b, x2 = self.alpha, self.beta, self.xi ** 2
        m_ia = math.exp(
            sp.gammaln(a + r) + sp.gammaln(b + r)
            - sp.gammaln(a) - sp.gammaln(b)
        ) / (a * b) ** r
        return m_ia * x2 / (x2 + r)

    def to_h(self) -> HRepresentation:
        a, b, x2 = self.alpha, self.beta, self.xi ** 2
        r = float(self.detection_order)
        delta = (self.pointing_h * a * b) ** r / self.mu_r
        kappa = x2 / math.exp(sp.gammaln(a) + sp.gammaln(b))
        return HRepresentation(
            kappa=kappa, delta=delta,
            params=HParams(
                m=3, n=0,
                upper=((x2 + 1.0, r),),
                lower=((x2, r), (a, r), (b, r)),
            ),
            gamma_power=-1.0,
        )

    @cached_property
    def _canon(self) -> HRepresentation:
        return self.to_h().canonical()

    def sample(self, rng, n):
        a, b, x2 = self.alpha, self.beta, self.xi ** 2
        ia = rng.gamma(a, 1.0 / a, n) * rng.gamma(b, 1.0 / b, n)
        ip = rng.random(n) ** (1.0 / x2)
        irr = ia * ip
        r = float(self.detection_order)
        return self.mean_snr * irr ** r / self._moment_irradiance(r)

    def _shape_key(self):
        return ("gamma_gamma", self.alpha, self.beta, self.xi,
                self.detection_order)


@dataclass(frozen=True)
class DoubleGeneralizedGamma(FadingModel):
    """Product of two generalized-Gamma irradiance factors.

    I = path_loss * I1 * I2 with I_i generalized-Gamma (alpha_i, m_i,
    omega_i); gamma = mean_snr * I**r / E[I**r], so the deterministic
    path loss cancels and is kept only for interface completeness.
    pdf/cdf integrate one factor against the other over a fixed
    log-space grid; the sampler multiplies constitutive draws.
    """

    alpha1: float
    alpha2: float
    m1: float
    m2: float
    omega1: float = 1.0
    omega2: float = 1.0
    detection_order: int = 1
    mean_snr: float = 1.0
    path_loss: float = 1.0

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "m1", "m2", "omega1", "omega2",
                     "path_loss", "mean_snr"):
            _positive(name, getattr(self, name))
        if self.detection_order not in (1, 2):
            raise ValueError("detection_order must be 1 or 2")
        self._verify_normalized()

    def _factor_moment(self, which: int, r: float) -> float:
        a = self.alpha1 if which == 1 else self.alpha2
        m = self.m1 if which == 1 else self.m2
        om = self.omega1 if which == 1 else self.omega2
        return (om / m) ** (r / a) * math.exp(sp.gammaln(m + r / a) - sp.gammaln(m))

    def _product_moment(self, r: float) -> float:
        return self._factor_moment(1, r) * self._factor_moment(2, r)

    def _y_of_gamma(self, g: np.ndarray) -> np.ndarray:
        """Map SNR to the product value y = I1 * I2."""
        r = float(self.detection_order)
        return (g * self._product_moment(r) / self.mean_snr) ** (1.0 / r)

    @cached_property
    def _factor2_grid(self):
        a, m, om = self.alpha2, self.m2, self.omega2
        scale = (om / m) ** (1.0 / a)
        lo = scale * sp.gammaincinv(m, 1e-12) ** (1.0 / a)
        hi = scale * sp.gammainccinv(m, 1e-13) ** (1.0 / a)
        u, w = _log_gl_grid(lo, hi, panels=48, order=10)
        z = (u / scale) ** a
        dens = np.exp((m * a - 1.0) * np.log(u / scale) - z - sp.gammaln(m)) \
            * a / scale
        return u, w * dens

    def _factor1_pdf(self, x: np.ndarray) -> np.ndarray:
        a, m, om = self.alpha1, self.m1, self.omega1
        scale = (om / m) ** (1.0 / a)
        z = x / scale
        return np.exp((m * a - 1.0) * np.log(z) - z ** a - sp.gammaln(m)) \
            * a / scale

    def _factor1_cdf(self, x: np.ndarray) -> np.ndarray:
        a, m, om = self.alpha1, self.m1, self.omega1
        scale = (om / m) ** (1.0 / a)
        return sp.gammainc(m, (x / scale) ** a)

    def pdf(self, gamma):
        u, w = self._factor2_grid
        r = float(self.detection_order)

        def f(g):
            out = np.zeros_like(g)
            pos = g > 0
            y = self._y_of_gamma(g[pos])
            fy = (self._factor1_pdf(y[:, None] / u[None, :]) / u[None, :]) @ w
            # dy/dgamma = y / (r * gamma)
            out[pos] = fy * y / (r * g[pos])
            return out

        return _apply(gamma, f)

    def cdf(self, gamma):
        u, w = self._factor2_grid

        def f(g):
            out = np.zeros_like(g)
            pos = g > 0
            y = self._y_of_gamma(g[pos])
            out[pos] = self._factor1_cdf(y[:, None] / u[None, :]) @ w
            return np.clip(out, 0.0, 1.0)

        return _apply(gamma, f)

    def sample(self, rng, n):
        i1 = (self.omega1 / self.m1) ** (1.0 / self.alpha1) \
            * rng.gamma(self.m1, 1.0, n) ** (1.0 / self.alpha1)
        i2 = (self.omega2 / self.m2) ** (1.0 / self.alpha2) \
            * rng.gamma(self.m2, 1.0, n) ** (1.0 / self.alpha2)
        r = float(self.detection_order)
        return self.mean_snr * (i1 * i2) ** r / self._product_moment(r)

    def to_h(self):
        raise UnsupportedHForm(
            "the double generalized-Gamma product is evaluated by factor "
            "quadrature here; no H-form is wired up"
        )

    def _shape_key(self):
        return ("double_generalized_gamma", self.alpha1, self.alpha2,
                self.m1, self.m2, self.omega1, self.omega2,
                self.detection_order)


@dataclass(frozen=True)
class Malaga(_HKernel):
    """Malaga atmospheric-turbulence irradiance with shadowed line of sight.

    Constitutive recipe: I = X * Z where X ~ Gamma(alpha, 1/alpha) is
    large-scale turbulence and Z is the power of a circular Gaussian of
    variance g = 2 b0 (1 - rho) around a line-of-sight amplitude whose
    power Omega' + 2 b0 rho is Gamma(beta) shadowed.  Z is an exact
    discrete mixture of Erlangs: binomial weights (beta integer, beta
    terms) or negative-binomial weights (any beta, truncated at
    ``series_terms`` with an exact tail bound).  The SNR axis is scaled
    so that E[gamma] = mean_irradiance.
    """

    alpha: float
    beta: float
    omega_prime: float
    b0: float
    rho: float
    mean_irradiance: float = 1.0
    series_terms: int = 40

    def __post_init__(self):
        _positive("alpha", self.alpha)
        _positive("beta", self.beta)
        _positive("b0", self.b0)
        if self.omega_prime < 0.0:
            raise ValueError("omega_prime must be non-negative")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        _positive("mean_irradiance", self.mean_irradiance)
        if self.series_terms < 1:
            raise ValueError("series_terms must be at least 1")
        if self.series_tail > 1e-6:
            raise NormalizationError(
                f"series truncation leaves {self.series_tail:.2e} probability "
                f"mass; raise series_terms above {self.series_terms}"
            )
        self._verify_normalized()

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
                    sp.gammaln(nb) - sp.gammaln(k + 1.0) - sp.gammaln(nb - k + 0.0)
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
                    sp.gammaln(b + k) - sp.gammaln(b) - sp.gammaln(k + 1.0)
                    + k * math.log(x) + b * math.log1p(-x)
                )
            erl_scale = g
        return erl_scale * self._snr_scale, lw

    @property
    def series_tail(self) -> float:
        """Probability mass beyond the truncated mixture (exact)."""
        if self._beta_integer:
            return 0.0
        from scipy.stats import nbinom
        return float(nbinom.sf(self.series_terms - 1, self.beta, 1.0 - self._mix_x))

    @cached_property
    def _kernel(self):
        """delta and per-term log-coefficients of the fused H series."""
        erl_scale, lw = self._series
        a = self.alpha
        delta = a / erl_scale
        # pdf = sum_k w_k / (Gamma(a) k!) * gamma^-1 H(delta g | (a,1),(k+1,1));
        # canonical absorption multiplies each coefficient by delta.
        lk = lw - sp.gammaln(a) - sp.gammaln(np.arange(len(lw)) + 1.0) \
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
        w = rng.gamma(self.beta, 1.0 / self.beta, n)
        re = rng.normal(0.0, math.sqrt(g / 2.0), n)
        im = rng.normal(0.0, math.sqrt(g / 2.0), n)
        z = (np.sqrt(w * om) + re) ** 2 + im ** 2
        return self._snr_scale * x * z

    def with_mean_snr(self, mean_snr):
        return replace(self, mean_irradiance=mean_snr)

    @property
    def mean(self):
        return self.mean_irradiance

    def _shape_key(self):
        return ("malaga", self.alpha, self.beta, self.omega_prime,
                self.b0, self.rho, self.series_terms)


@dataclass(frozen=True)
class GenericH(_HKernel):
    """User-supplied density kappa * H(delta * gamma | params).

    Normalization of the supplied triple is checked at construction.
    Sampling inverts the CDF on a precomputed monotone grid.
    """

    kappa: float
    delta: float
    params: HParams

    def __post_init__(self):
        _positive("kappa", self.kappa)
        _positive("delta", self.delta)
        foxh.validate(self.params)
        self._verify_normalized()

    @cached_property
    def _canon(self) -> HRepresentation:
        return HRepresentation(kappa=self.kappa, delta=self.delta,
                               params=self.params)

    @cached_property
    def _inverse_grid(self):
        from .quadrature import quantile_search
        lo = quantile_search(lambda x: self.cdf(x), 1e-9, start=self.mean)
        hi = quantile_search(lambda x: self.cdf(x), 1.0 - 1e-9, start=self.mean)
        grid = np.geomspace(max(lo * 0.5, 1e-300), hi * 2.0, 4097)
        probs = np.maximum.accumulate(self.cdf(grid))
        keep = np.concatenate([[True], np.diff(probs) > 0])
        return probs[keep], np.log(grid[keep])

    def sample(self, rng, n):
        probs, lng = self._inverse_grid
        u = rng.uniform(probs[0], probs[-1], n)
        return np.exp(np.interp(u, probs, lng))

    def with_mean_snr(self, mean_snr):
        ratio = self.mean / mean_snr
        return replace(self, kappa=self.kappa * ratio, delta=self.delta * ratio)

    @property
    def mean(self):
        return foxh.mellin_moment(self.params, self.kappa, self.delta, 1.0)

    def _shape_key(self):
        return ("generic_h", self.params,
                round(math.log(self.kappa / self.delta), 9))


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
    from .errors import ConfigError

    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("hop model must be a mapping with a 'family' key")
    family = spec["family"]
    cls = FAMILIES.get(family)
    if cls is None:
        raise ConfigError(
            f"unknown fading family {family!r}; expected one of "
            f"{sorted(FAMILIES)}"
        )
    kwargs = {k: v for k, v in spec.items() if k != "family"}
    if cls is GenericH:
        try:
            h = kwargs.pop("h")
            kwargs["params"] = HParams(
                m=int(h["m"]), n=int(h["n"]),
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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for family {family!r}: {exc}") from exc
