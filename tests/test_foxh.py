"""Contour evaluation against closed forms and an external gamma oracle."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaycap import foxh
from relaycap.errors import (
    ContourAbscissaTooLarge,
    ContourNotConverged,
    EmptyContourGap,
    InvalidOrder,
    NonPositiveScale,
    PoleAtNonPositiveInteger,
)
from relaycap.fading import Malaga
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
    # GammaGamma-like block (fig1's alpha, beta, xi at r = 1)
    PARAMS = HParams(m=3, n=0, upper=((2.21, 1.0),),
                     lower=((1.21, 1.0), (1.902, 1.0), (1.51, 1.0)))
    BATCHES = (np.array([0.3]), np.geomspace(1e-3, 40.0, 57),
               np.linspace(0.05, 9.0, 200))

    def test_shared_memo_is_bitwise_a_fresh_one(self):
        """pdf then cdf kernels, three batches, the block at three means
        (delta scales the argument): the shared memo, warm from earlier
        calls, returns exactly what an empty memo returns."""
        foxh.shared_theta.cache_clear()
        pdf_c = foxh.select_contour(self.PARAMS)
        cdf_c = foxh.select_contour(self.PARAMS, upper_bound=1.0)
        for delta in (0.7, 7.0, 70.0):
            for contour, power in ((pdf_c, None), (cdf_c, 0.0)):
                for batch in self.BATCHES:
                    fresh = foxh.cached_theta(foxh.log_theta(self.PARAMS))
                    want = foxh.mellin_barnes(fresh, contour, delta * batch,
                                              weight_power=power)
                    got = foxh.mellin_barnes(foxh.shared_theta(self.PARAMS),
                                             contour, delta * batch,
                                             weight_power=power)
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g, w)
        got = foxh.eval_h(self.PARAMS, self.BATCHES[1])
        want = foxh.mellin_barnes(foxh.log_theta(self.PARAMS), pdf_c,
                                  self.BATCHES[1])
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_eval_h_routes_through_the_shared_memo(self):
        foxh.shared_theta.cache_clear()
        foxh.eval_h(self.PARAMS, 1.0)
        foxh.eval_h_cdf_kernel(self.PARAMS, 1.0)
        memo = foxh.shared_theta(self.PARAMS)
        assert len(memo._halves) == 2  # one truncation per kernel
        assert memo._levels

    def test_memoised_arrays_are_read_only(self):
        memo = foxh.cached_theta(foxh.log_theta(self.PARAMS))
        contour = foxh.select_contour(self.PARAMS)
        foxh.mellin_barnes(memo, contour, self.BATCHES[1])
        t, _, w, _ = next(iter(memo._levels.values()))
        for arr in (t, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_unconverged_truncation_is_not_cached(self):
        # a flat integrand never dies in its tails
        memo = foxh.cached_theta(np.zeros_like)
        contour = foxh.ContourSpec(c=0.5)
        for _ in range(2):
            with pytest.raises(ContourNotConverged, match="nats above"):
                foxh.mellin_barnes(memo, contour, 1.0)
        assert memo._halves == {}

    def test_unconverged_refinement_raises_on_every_call(self):
        contour = foxh.ContourSpec(c=foxh.select_contour(self.PARAMS).c,
                                   max_points=1024)
        memo = foxh.shared_theta(self.PARAMS)
        for _ in range(2):
            with pytest.raises(ContourNotConverged, match="1024 contour"):
                foxh.mellin_barnes(memo, contour, self.BATCHES[1])

    def test_threads_sharing_the_memo_agree_with_a_fresh_one(self):
        """Monte Carlo workers may fill the shared memo concurrently (a
        GenericH sampler builds its inverse grid through the cdf)."""
        foxh.shared_theta.cache_clear()
        jobs = [(kernel, batch) for kernel in (foxh.eval_h,
                                               foxh.eval_h_cdf_kernel)
                for batch in self.BATCHES] * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(kernel, self.PARAMS, batch)
                           for kernel, batch in jobs]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        pdf_c = foxh.select_contour(self.PARAMS)
        cdf_c = foxh.select_contour(self.PARAMS, upper_bound=1.0)
        for (kernel, batch), result in zip(jobs, got):
            contour, power = ((pdf_c, None) if kernel is foxh.eval_h
                              else (cdf_c, 0.0))
            want = foxh.mellin_barnes(foxh.log_theta(self.PARAMS), contour,
                                      batch, weight_power=power)
            for g, w in zip(result, want):
                np.testing.assert_array_equal(g, w)

    def test_memo_stays_within_its_bounds(self):
        foxh.shared_theta.cache_clear()
        for k in range(200):
            foxh.shared_theta(HParams(m=1, n=0, lower=((0.01 * k, 1.0),)))
        assert foxh.shared_theta.cache_info().currsize <= foxh._SHARED_MEMOS
        memo = foxh.cached_theta(lambda s: -(s * s.conj()))  # dies as -t^2
        for k in range(200):
            contour = foxh.ContourSpec(c=0.01 * k)
            memo.level(contour, None, memo.truncation(contour, None), 3 + k)
        for store in (memo._halves, memo._levels):
            assert 0 < len(store) <= foxh._GRID_ENTRIES


def dense_oscillatory_sums(w, t, ln_x):
    """The trapezoid sum written out: one phase per node and argument.

    An odd-length ``t`` holds the centre node t = 0, shared by both
    half-lines; an even-length one has none.
    """
    half = len(t) // 2
    w_pos = w[half:].copy()
    w_neg = w[len(t) - half - 1::-1].copy()
    if len(t) % 2:
        w_pos[0] *= 0.5
        w_neg[0] *= 0.5
    vals, resid = [], []
    for lx in np.array_split(ln_x, max(1, len(ln_x) // 1000)):
        phase = np.exp(-1j * np.outer(t[half:], lx))
        total = phase.T @ w_pos + np.conj(phase).T @ w_neg
        vals.append(total.real)
        resid.append(total.imag)
    return np.concatenate(vals), np.concatenate(resid)


LONG_DOUBLE_WIDER = np.finfo(np.longdouble).eps < np.finfo(float).eps


def extended_phase_sums(t, w, ln_x):
    """Re and Im of sum_k w_k exp(-i t_k ln x) from float64 t, w and ln x,
    summed in extended precision: long double arrays, or lists of mpmath
    numbers at 30 digits where long double is no wider than float64 (use
    them inside ``mpmath.workdps(30)``)."""
    if LONG_DOUBLE_WIDER:
        ld = np.longdouble
        arg = np.outer(t.astype(ld), ln_x.astype(ld))
        cos, sin = np.cos(arg), np.sin(arg)
        wr, wi = w.real.astype(ld), w.imag.astype(ld)
        return wr @ cos + wi @ sin, wi @ cos - wr @ sin
    with mpmath.workdps(30):
        re, im = [], []
        for lx in map(mpmath.mpf, ln_x):
            terms = [(mpmath.mpf(wk.real), mpmath.mpf(wk.imag),
                      mpmath.cos(mpmath.mpf(tk) * lx),
                      mpmath.sin(mpmath.mpf(tk) * lx))
                     for tk, wk in zip(t, w)]
            re.append(mpmath.fsum(a * c + b * s for a, b, c, s in terms))
            im.append(mpmath.fsum(b * c - a * s for a, b, c, s in terms))
        return re, im


def extended_level_value(t, w, ln_x, half, re_max, c, power):
    """The value of one trapezoid level from its float64 t, w and ln x,
    step 2 half/(n - 1) and scale exp(re_max - c ln x (+ (power + 1) ln x)),
    summed in extended precision (``extended_phase_sums``).  A float64 sum
    would carry rounding of the size of the evaluator's own error bound."""
    n = len(t)
    if LONG_DOUBLE_WIDER:
        ld = np.longdouble
        lx = ln_x.astype(ld)
        sums, _ = extended_phase_sums(t, w, ln_x)
        expo = ld(re_max) - ld(c) * lx
        if power is not None:
            expo += (ld(power) + 1) * lx
        step = 2 * ld(half) / (n - 1)
        return sums * step / (8 * np.arctan(ld(1))) * np.exp(expo)
    with mpmath.workdps(30):
        sums, _ = extended_phase_sums(t, w, ln_x)
        out = []
        for total, lx in zip(sums, map(mpmath.mpf, ln_x)):
            expo = mpmath.mpf(re_max) - mpmath.mpf(c) * lx
            if power is not None:
                expo += (mpmath.mpf(power) + 1) * lx
            out.append(float(total * 2 * mpmath.mpf(half) / (n - 1)
                             / (2 * mpmath.pi) * mpmath.exp(expo)))
        return np.array(out)


class TestOscillatorySums:
    """The blocked phase sum against the dense one it replaces."""

    # 25,000 arguments exceed one chunk at every node count below
    # (2e6 / (3 * 17 + 32) = 24,096 at 1025 nodes, fewer above)
    batches = {
        "one_argument": np.array([math.log(2.5)]),
        "several_chunks": np.linspace(math.log(1e-6), math.log(1e6), 25_000),
    }

    @staticmethod
    def weights(n, symmetric):
        params = HParams(m=3, n=0,
                         lower=((0.0, 1.0), (1.9, 1.0), (1.5, 1.0)))
        t = np.linspace(-60.0, 60.0, n)
        lg = foxh.log_theta(params)(1.0 + 1j * t)
        w = np.exp(lg - lg.real.max())
        w[0] *= 0.5
        w[-1] *= 0.5
        if not symmetric:
            rng = np.random.default_rng(n)
            w = w * (1.0 + 0.3j * np.sin(0.7 * t)
                     + 0.2 * rng.standard_normal(n))
        return w, t

    @pytest.mark.parametrize("n", [1025, 2049, 4097])
    @pytest.mark.parametrize("batch", sorted(batches))
    @pytest.mark.parametrize("symmetric", [True, False],
                             ids=["conjugate_symmetric", "asymmetric"])
    def test_matches_dense_sum(self, n, batch, symmetric):
        assert ((n - 1) // 2 + 1) % foxh._PHASE_BLOCK != 0
        self.check(*self.weights(n, symmetric), self.batches[batch],
                   symmetric)

    # a refinement level's new odd nodes: 2 * half nodes, no centre;
    # half = 240 leaves a ragged last block of 16, half = 1024 takes two
    # chunks of the 25,000 arguments
    @pytest.mark.parametrize("half", [512, 1024, 240])
    @pytest.mark.parametrize("batch", sorted(batches))
    @pytest.mark.parametrize("symmetric", [True, False],
                             ids=["conjugate_symmetric", "asymmetric"])
    def test_no_centre_node_matches_dense_sum(self, half, batch, symmetric):
        w, t = self.weights(4 * half + 1, symmetric)
        w, t = w[1::2], t[1::2]
        assert len(t) == 2 * half and np.all(t[half:] > 0.0)
        self.check(w, t, self.batches[batch], symmetric)

    @pytest.mark.parametrize("nodes", ["level", "odd_nodes"])
    def test_wide_phases_match_extended_sum(self, nodes):
        """|t ln x| up to 960 * 50: each phase may err by about
        eps |t ln x|, as exp(-i t ln x) does by rounding t ln x.  The
        weights are phase-locked to two arguments, where a phase error
        that drifts along the nodes adds up instead of averaging out, and
        their envelope is one-sided, so that an error odd in t does not
        cancel between the half-lines."""
        t = np.linspace(-960.0, 960.0, 4097)  # the truncation cap
        ln_x = np.linspace(-50.0, 50.0, 97)
        rng = np.random.default_rng(7)
        w = np.exp(-((t - 320.0) / 320.0) ** 2) * (
            np.exp(1j * t * ln_x[-1]) + 0.5 * np.exp(1j * t * ln_x[10])
            + 0.3j * np.sin(0.7 * t) + 0.2 * rng.standard_normal(len(t)))
        w[0] *= 0.5
        w[-1] *= 0.5
        if nodes == "odd_nodes":
            w, t = w[1::2], t[1::2]
        vals, resid = foxh._oscillatory_sums(w, t, ln_x)
        want_vals, want_resid = extended_phase_sums(t, w, ln_x)
        with mpmath.workdps(30):
            vals_err = max(abs(g - v) for g, v in zip(vals, want_vals))
            resid_err = max(abs(g - v) for g, v in zip(resid, want_resid))
        tol = (np.finfo(float).eps * np.max(np.abs(t)) * np.max(np.abs(ln_x))
               * float(np.sum(np.abs(w))))
        assert vals_err <= tol
        assert resid_err <= tol

    @staticmethod
    def check(w, t, ln_x, symmetric):
        vals, resid = foxh._oscillatory_sums(w, t, ln_x)
        want_vals, want_resid = dense_oscillatory_sums(w, t, ln_x)
        tol = 4e-15 * float(np.sum(np.abs(w)))
        assert np.max(np.abs(vals - want_vals)) <= tol
        assert np.max(np.abs(resid - want_resid)) <= tol
        if symmetric:
            assert np.max(np.abs(resid)) <= tol


class TestNestedRefinement:
    """Level 2n - 1 reuses level n's nodes and sums only its new ones."""

    GG = TestThetaCache.PARAMS
    MALAGA = Malaga(alpha=2.296, beta=1.822, omega_prime=1.3265, b0=0.1079,
                    rho=0.596, series_terms=320)
    BATCH = np.geomspace(1e-3, 40.0, 57)

    @classmethod
    def kernels(cls):
        """(memo factory, contour, weight_power, arguments) per kernel."""
        m = cls.MALAGA
        delta, lk = m._kernel

        def gg():
            return foxh.cached_theta(foxh.log_theta(cls.GG))

        def malaga():
            return foxh.cached_theta(
                foxh.fused_series_theta(((m.alpha - 1.0, 1.0),), lk))

        def two_peaks():
            # peaks at t = +-(-60 + 1195 * 120 / 2048), odd nodes of the
            # 2,049-node level: each finer level raises the peak, so the
            # coarse sum is rescaled
            t0 = -60.0 + 1195 * 120.0 / 2048
            return foxh.cached_theta(
                lambda s: (-1e-3 * (s.imag ** 2 - t0 ** 2) ** 2) + 0j)

        return {
            "gamma_gamma_pdf": (gg, foxh.select_contour(cls.GG), None,
                                cls.BATCH),
            "gamma_gamma_cdf": (gg, foxh.select_contour(cls.GG,
                                                        upper_bound=1.0),
                                0.0, cls.BATCH),
            "malaga_pdf": (malaga, m._pdf_contour, None, delta * cls.BATCH),
            "malaga_cdf": (malaga, m._cdf_contour, 0.0, delta * cls.BATCH),
            "two_peaks": (two_peaks, foxh.ContourSpec(c=0.5), None,
                          cls.BATCH),
        }

    @pytest.mark.parametrize("half", [0.7, 37.3, 60.0, 120.0, 960.0])
    def test_even_nodes_are_the_coarse_level(self, half):
        n = 1025
        while n <= 65537:
            fine = np.linspace(-half, half, 2 * n - 1)
            np.testing.assert_array_equal(fine[::2],
                                          np.linspace(-half, half, n))
            n = 2 * n - 1

    def test_theta_evaluated_once_per_node(self):
        m = self.MALAGA
        fused = foxh.fused_series_theta(((m.alpha - 1.0, 1.0),), m._kernel[1])
        sizes = []

        def counted(s):
            sizes.append(np.size(s))
            return fused(s)

        memo = foxh.cached_theta(counted)
        contour = m._pdf_contour
        half = memo.truncation(contour, None)
        for n in (1025, 2049, 4097, 8193):
            memo.level(contour, None, half, n)
        assert sum(sizes) == 129 + 8193  # 15,493 when every level was full

    @pytest.mark.parametrize("kernel", ["gamma_gamma_pdf", "gamma_gamma_cdf",
                                        "malaga_pdf", "malaga_cdf",
                                        "two_peaks"])
    def test_matches_dense_sum_at_converged_level(self, kernel):
        make, contour, power, x = self.kernels()[kernel]
        memo = make()
        value, err = foxh.mellin_barnes(memo, contour, x, weight_power=power)
        half, n = max(key[2:] for key in memo._levels)
        t, re_max, w, _ = memo.level(contour, power, half, n)
        want = extended_level_value(t, w, np.log(x), half, re_max,
                                    contour.c, power)
        assert n > 1025
        assert np.all(np.abs(value - want) <= err)

    @pytest.mark.parametrize("evict", ["small_stores", "coarse_logs_lost"])
    def test_memo_eviction_changes_no_bit(self, monkeypatch, evict):
        """Fresh memos per call against memos shared by every call and
        evicted: stores of one entry, or every coarse log-integrand lost
        between calls, so that a finer level the second Malaga CDF call
        needs (4,097 nodes, against 2,049 for the first) is built from
        every node."""
        kernels = self.kernels()
        make, contour, power, x = kernels["malaga_cdf"]
        calls = [kernels[k] for k in sorted(kernels)]
        calls = [(make, contour, power, x[-1:])] + calls + calls
        want = [foxh.mellin_barnes(make(), contour, x, weight_power=power)
                for make, contour, power, x in calls]
        if evict == "small_stores":
            monkeypatch.setattr(foxh, "_GRID_ENTRIES", 1)
        memos = {}
        for (make, contour, power, x), expected in zip(calls, want):
            memo = memos.setdefault(make, make())
            if evict == "coarse_logs_lost":
                memo._logs.clear()
            got = foxh.mellin_barnes(memo, contour, x, weight_power=power)
            for g, w in zip(got, expected):
                np.testing.assert_array_equal(g, w)


def dense_series_theta(base_rows, log_weights):
    """The fused series as a log-sum-exp written out: the Gamma(k + s)
    ladder by complex logs, and every term held at once."""
    lw = np.asarray(log_weights, dtype=float)

    def fn(s):
        acc = np.zeros_like(s)
        for b, bb in base_rows:
            acc = acc + foxh.log_gamma_complex(b + bb * s)
        ladder = foxh.log_gamma_complex(s)
        terms = np.empty((len(lw),) + s.shape, dtype=complex)
        for k in range(len(lw)):
            terms[k] = lw[k] + ladder
            ladder = ladder + np.log(k + s)
        m = terms.real.max(axis=0)
        return acc + np.log(np.sum(np.exp(terms - m), axis=0)) + m

    return fn


class TestFusedSeries:
    """fig2's Malaga hop: 320 terms on 8,193 nodes out to the truncation
    cap |Im s| = 960."""

    MALAGA = TestNestedRefinement.MALAGA
    T = np.linspace(-960.0, 960.0, 8193)

    def series(self):
        lk = self.MALAGA._kernel[1]
        assert len(lk) == 320
        return ((self.MALAGA.alpha - 1.0, 1.0),), lk

    @pytest.mark.parametrize("contour", ["pdf", "cdf"])
    def test_matches_dense_log_sum_exp(self, contour):
        c = getattr(self.MALAGA, f"_{contour}_contour").c
        s = c + 1j * self.T
        got = foxh.fused_series_theta(*self.series())(s)
        want = dense_series_theta(*self.series())(s)
        top = want.real.max()
        assert np.max(np.abs(np.exp(got - top) - np.exp(want - top))) <= 1e-14

    def test_memory_stays_node_length(self):
        """A few node-length arrays, not one per term (the dense form's
        320 x 8,193 buffer is 42 MB)."""
        s = self.MALAGA._pdf_contour.c + 1j * self.T
        fn = foxh.fused_series_theta(*self.series())
        tracemalloc.start()
        try:
            fn(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * s.nbytes


@st.composite
def meijer_rows(draw):
    """Unit-scale rows (A_j = B_j = 1): the H-function is a Meijer G.

    Orders H^{2,0}_{0,2}, H^{3,0}_{1,3} and H^{1,1}_{1,1}; every lower
    row keeps b > -1/2 so the running integral from 0 converges.
    """
    m, n, p, q = draw(st.sampled_from([(2, 0, 0, 2), (3, 0, 1, 3),
                                       (1, 1, 1, 1)]))
    b = [draw(st.floats(min_value=-0.5, max_value=3.0)) for _ in range(q)]
    if n:  # the right poles 1 - a must clear the left poles -b
        a = [1.0 + min(b[:m]) - draw(st.floats(min_value=0.3,
                                               max_value=3.0))]
    else:
        a = [draw(st.floats(min_value=0.5, max_value=4.0)) for _ in range(p)]
    params = HParams(m=m, n=n, upper=tuple((v, 1.0) for v in a),
                     lower=tuple((v, 1.0) for v in b))
    return params, a, b


def oracle_rows(v):
    """Row values as mpmath's ``meijerg`` gets them: a value within 1e-300
    of an integer is moved onto it.  mpmath fails to converge on a pole
    gap that small (hypercomb raises ``ValueError`` at x = 50 for lower
    rows 0, 0 and the subnormal 2.2e-309), where G is continuous in its
    rows and the same rows with an exact zero gap evaluate.  Between row
    values in [-1/2, 4] only such a value can leave a gap below 1e-300;
    foxh still gets the rows as drawn."""
    return [float(round(x)) if abs(x - round(x)) < 1e-300 else x for x in v]


# lower rows whose subnormal pole gap mpmath cannot resolve unaided
SUBNORMAL_GAP = (HParams(m=3, n=0, upper=((3.5, 1.0),),
                         lower=((0.0, 1.0), (0.0, 1.0),
                                (2.225073858507203e-309, 1.0))),
                 [3.5], [0.0, 0.0, 2.225073858507203e-309])


class TestMeijerGOracle:
    x = np.geomspace(1e-3, 50.0, 7)

    @given(meijer_rows())
    @example(SUBNORMAL_GAP)
    @settings(max_examples=25, deadline=None)
    def test_eval_h_matches_mpmath(self, case):
        params, a, b = case
        got, err = foxh.eval_h(params, self.x)
        n, m = params.n, params.m
        a, b = oracle_rows(a), oracle_rows(b)
        with mpmath.workdps(30):
            want = [float(mpmath.meijerg([a[:n], a[n:]], [b[:m], b[m:]], x))
                    for x in self.x]
        assert np.all(np.abs(got - want) <= err + 1e-12 * np.abs(want))

    @given(meijer_rows())
    @example(SUBNORMAL_GAP)
    @settings(max_examples=25, deadline=None)
    def test_cdf_kernel_matches_mpmath(self, case):
        # int_0^x G^{m,n}_{p,q}(t) dt = x G^{m,n+1}_{p+1,q+1}(x | 0, a; b, -1)
        params, a, b = case
        got, err = foxh.eval_h_cdf_kernel(params, self.x)
        n, m = params.n, params.m
        a, b = oracle_rows(a), oracle_rows(b)
        with mpmath.workdps(30):
            want = [float(x * mpmath.meijerg([[0] + a[:n], a[n:]],
                                             [b[:m], b[m:] + [-1]], x))
                    for x in self.x]
        assert np.all(np.abs(got - want) <= err + 1e-12 * np.abs(want))
