"""Contour evaluation against closed forms and an external gamma oracle."""

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycap import foxh
from relaycap.errors import (
    ContourAbscissaTooLarge,
    EmptyContourGap,
    InvalidOrder,
    NonPositiveScale,
    PoleAtNonPositiveInteger,
)
from relaycap.foxh import HParams

# mpmath.loggamma reference points, frozen
LOGGAMMA_2_3J = -2.0928517530927335 + 2.302396543466868j
LOGGAMMA_NEG_HALF = 1.2655121234846454 - 3.141592653589793j
LOGGAMMA_HALF_M7J = -10.076635754359604 - 6.627330556992139j
# 2 * K_{1/2}(2), mpmath
TWO_K_HALF_2 = 0.2398755439361229

EXP_KERNEL = HParams(m=1, n=0, lower=((0.0, 1.0),))


class TestLogGamma:
    def test_pinned_points(self):
        z = np.array([2 + 3j, -0.5 + 0j, 0.5 - 7j])
        got = foxh.log_gamma_complex(z)
        want = np.array([LOGGAMMA_2_3J, LOGGAMMA_NEG_HALF, LOGGAMMA_HALF_M7J])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_against_scipy_grid(self):
        re = np.linspace(-4.3, 6.0, 23)
        im = np.linspace(-40.0, 40.0, 21)
        z = (re[:, None] + 1j * im[None, :]).ravel()
        # keep clear of the poles on the negative real axis
        z = z[np.abs(z.imag) + np.abs(z.real - np.round(z.real)) > 1e-3]
        got = foxh.log_gamma_complex(z)
        np.testing.assert_allclose(got, sp.loggamma(z), rtol=0, atol=5e-12)

    def test_real_positive_matches_gammaln(self):
        x = np.array([0.25, 1.0, 2.5, 40.0, 140.0])
        got = foxh.log_gamma_complex(x.astype(complex))
        np.testing.assert_allclose(got.real, sp.gammaln(x), rtol=1e-13,
                                   atol=1e-14)
        assert np.all(np.abs(got.imag) < 1e-15)

    def test_pole_raises(self):
        with pytest.raises(PoleAtNonPositiveInteger):
            foxh.log_gamma_complex(np.array([-3.0 + 0j]))


class TestValidate:
    def test_bad_orders(self):
        with pytest.raises(InvalidOrder):
            foxh.validate(HParams(m=2, n=0, lower=((0.0, 1.0),)))
        with pytest.raises(InvalidOrder):
            foxh.validate(HParams(m=1, n=1, lower=((0.0, 1.0),)))

    def test_nonpositive_scale(self):
        with pytest.raises(NonPositiveScale):
            foxh.validate(HParams(m=1, n=0, lower=((0.0, -1.0),)))

    def test_empty_gap(self):
        # left poles reach s = -b/bb = 2; right poles start at (1-a)/aa = 1
        bad = HParams(m=1, n=1, upper=((0.0, 1.0),), lower=((-2.0, 1.0),))
        with pytest.raises(EmptyContourGap):
            foxh.validate(bad)

    def test_kernel_weight_pole_conflict(self):
        # left pole family reaching s = 2 leaves no room left of s = 1
        params = HParams(m=1, n=0, lower=((-2.0, 1.0),))
        with pytest.raises(ContourAbscissaTooLarge):
            foxh.eval_h_cdf_kernel(params, 1.0)


class TestIdentities:
    """H^{1,0}_{0,1} and H^{2,0}_{0,2} reductions to elementary forms."""

    xs = np.logspace(np.log10(0.01), np.log10(20.0), 40)

    def test_exponential(self):
        v, err = foxh.eval_h(EXP_KERNEL, self.xs)
        want = np.exp(-self.xs)
        np.testing.assert_allclose(v, want, rtol=1e-8)
        assert np.all(np.abs(v - want) <= np.maximum(err, 1e-13))

    def test_power_weighted_exponential(self):
        for m in (1.7, 3.3, 6.0):
            v, _ = foxh.eval_h(
                HParams(m=1, n=0, lower=((m - 1.0, 1.0),)), self.xs
            )
            np.testing.assert_allclose(
                v, self.xs ** (m - 1.0) * np.exp(-self.xs), rtol=1e-8
            )

    def test_bessel_k_reduction(self):
        # H^{2,0}_{0,2}[z | (v1,1),(v2,1)] = 2 z^{(v1+v2)/2} K_{v1-v2}(2 sqrt z)
        v, _ = foxh.eval_h(
            HParams(m=2, n=0, lower=((0.25, 1.0), (-0.25, 1.0))), 1.0
        )
        assert v == pytest.approx(TWO_K_HALF_2, abs=1e-10)

    def test_gamma_gamma_density_form(self):
        a, b = 2.902, 2.51
        params = HParams(m=2, n=0, lower=((a - 1.0, 1.0), (b - 1.0, 1.0)))
        v, _ = foxh.eval_h(params, self.xs)
        want = (
            2.0
            * self.xs ** ((a + b) / 2.0 - 1.0)
            * sp.kv(a - b, 2.0 * np.sqrt(self.xs))
        )
        np.testing.assert_allclose(v, want, rtol=1e-6)

    def test_scalar_input_returns_scalar(self):
        v, err = foxh.eval_h(EXP_KERNEL, 1.0)
        assert np.ndim(v) == 0 and np.ndim(err) == 0
        assert v == pytest.approx(np.exp(-1.0), rel=1e-10)


class TestCdfKernel:
    xs = np.logspace(-2, np.log10(20.0), 25)

    def test_exponential_running_integral(self):
        v, err = foxh.eval_h_cdf_kernel(EXP_KERNEL, self.xs)
        np.testing.assert_allclose(v, 1.0 - np.exp(-self.xs), atol=1e-10)

    def test_weighted_running_integral(self):
        # int_0^x t * t^{0.5} e^-t dt against scipy's incomplete gamma
        params = HParams(m=1, n=0, lower=((0.5, 1.0),))
        v, _ = foxh.eval_h_cdf_kernel(params, self.xs, gamma_power=1.0)
        want = sp.gammainc(2.5, self.xs) * sp.gamma(2.5)
        np.testing.assert_allclose(v, want, rtol=1e-8, atol=1e-12)

    def test_explicit_contour_must_clear_weight_pole(self):
        contour = foxh.select_contour(EXP_KERNEL)
        bad = foxh.ContourSpec(
            c=1.5,
            half_length=contour.half_length,
            max_points=contour.max_points,
            rel_tol=contour.rel_tol,
        )
        with pytest.raises(ContourAbscissaTooLarge):
            foxh.eval_h_cdf_kernel(EXP_KERNEL, 1.0, bad)


class TestMellinMoment:
    def test_exponential_moments(self):
        # kappa e^{-delta g}: E[g^r] = Gamma(1+r) / delta^r for kappa = delta
        for r in (0.5, 1.0, 2.0, 3.5):
            got = foxh.mellin_moment(EXP_KERNEL, 2.0, 2.0, r)
            assert got == pytest.approx(sp.gamma(1.0 + r) / 2.0 ** r, rel=1e-12)

    def test_matches_numerical_integral(self):
        params = HParams(m=1, n=0, lower=((1.3, 1.0),))
        kappa, delta = 0.7, 1.4
        got = foxh.mellin_moment(params, kappa, delta, 2.0)
        ln_g = np.linspace(np.log(1e-7), np.log(90.0), 6001)
        g = np.exp(ln_g)
        f, _ = foxh.eval_h(params, delta * g)
        want = np.trapezoid(kappa * f * g ** 3, ln_g)
        assert got == pytest.approx(want, rel=1e-6)


@st.composite
def gamma_like_params(draw):
    """Random 1..2-row left-family kernels with a usable contour strip."""
    rows = draw(st.integers(min_value=1, max_value=2))
    lower = tuple(
        (
            draw(st.floats(min_value=-0.4, max_value=5.0)),
            draw(st.floats(min_value=0.3, max_value=2.0)),
        )
        for _ in range(rows)
    )
    return HParams(m=rows, n=0, lower=lower)


# dyadic scales and abscissae keep every row argument exact in floats,
# so a non-positive integer argument lands exactly on the Gamma pole
_DYADIC_SCALES = (0.5, 1.0, 1.5, 2.0)


@st.composite
def denominator_rows(draw):
    """Kernel with one numerator row and 1..3 denominator rows.

    Each denominator row is solved from the Gamma argument it should
    have at the moment abscissa: positive, a negative non-integer
    (sign -1 for an odd pole count) or a non-positive integer (1/Gamma
    vanishes, so the moment is 0).
    """
    s0 = draw(st.integers(min_value=1, max_value=24)) / 8.0
    b0 = draw(st.floats(min_value=0.1, max_value=3.0))
    upper, lower = [], [(b0, draw(st.sampled_from(_DYADIC_SCALES)))]
    args = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        z = draw(st.one_of(
            st.floats(min_value=0.2, max_value=4.0),
            st.builds(lambda k, f: -k - f, st.integers(0, 5),
                      st.floats(min_value=0.05, max_value=0.95)),
            st.integers(min_value=-5, max_value=0).map(float),
        ))
        scale = draw(st.sampled_from(_DYADIC_SCALES))
        if draw(st.booleans()):
            upper.append((z - scale * s0, scale))      # Gamma(a + A s)
        else:
            lower.append((1.0 - z - scale * s0, scale))  # Gamma(1 - b - B s)
        args.append(z)
    params = HParams(m=1, n=0, upper=tuple(upper), lower=tuple(lower))
    return params, s0, args


class TestMellinMomentOracle:
    @given(denominator_rows(), st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_mpmath_gamma_ratio(self, case, kappa, delta):
        params, s0, args = case
        got = foxh.mellin_moment(params, kappa, delta, s0 - 1.0)
        (b0, bb0), = params.lower[:1]
        with mpmath.workdps(30):
            want = (mpmath.mpf(kappa) * mpmath.mpf(delta) ** -s0
                    * mpmath.gamma(mpmath.mpf(b0) + bb0 * s0))
            for a, aa in params.upper:
                want *= mpmath.rgamma(mpmath.mpf(a) + aa * s0)
            for b, bb in params.lower[1:]:
                want *= mpmath.rgamma(1 - mpmath.mpf(b) - bb * s0)
        if any(z <= 0.0 and z == int(z) for z in args):
            assert got == 0.0
        else:
            assert got == pytest.approx(float(want), rel=1e-11)


class TestContourSelection:
    @given(gamma_like_params())
    @settings(max_examples=60, deadline=None)
    def test_abscissa_inside_pole_gap(self, params):
        left, right = foxh.pole_gap(params)
        contour = foxh.select_contour(params)
        assert left < contour.c < right

    @given(gamma_like_params())
    @settings(max_examples=30, deadline=None)
    def test_upper_bound_respected(self, params):
        left, _ = foxh.pole_gap(params)
        bound = left + 0.75
        contour = foxh.select_contour(params, upper_bound=bound)
        assert left < contour.c < bound


class TestThetaCache:
    def test_cached_theta_reuses_values(self):
        calls = []

        def theta(s):
            calls.append(s.size)
            return np.zeros_like(s)

        cached = foxh.cached_theta(theta)
        s = np.linspace(0.5 - 1j, 0.5 + 1j, 129)
        cached(s)
        cached(s)
        assert calls == [129]
