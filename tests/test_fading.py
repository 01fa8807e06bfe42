"""Hop models against scipy closed forms, compound-law quadrature oracles,
and their own physical samplers."""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st
from scipy.integrate import quad

from relaycap import fading, foxh
from relaycap.errors import NormalizationError, UnsupportedHForm
from relaycap.fading import (
    DoubleGeneralizedGamma,
    Exponential,
    Gamma,
    GammaGamma,
    GenericH,
    Malaga,
    Weibull,
    WeibullGamma,
    model_from_config,
)
from relaycap.foxh import HParams
from relaycap.quadrature import integrate_semi_infinite

KS_SEED = 7
KS_DRAWS = 20_000
KS_MIN_P = 1e-3  # a wrong law collapses the p-value to ~0

MALAGA_KW = dict(alpha=2.296, beta=1.822, omega_prime=1.3265, b0=0.1079,
                 rho=0.596)

GRID = np.array([0.05, 0.2, 0.7, 1.4, 3.0, 6.5])


def h_route_pdf(model, x):
    """Density through the model's own H representation."""
    rep = model.to_h()
    v, _ = foxh.eval_h(rep.params, rep.delta * np.asarray(x, dtype=float))
    return rep.kappa * v


class TestElementaryFamilies:
    """pdf/cdf against scipy and against the H route."""

    cases = [
        (Exponential(mean_snr=1.3), st.expon(scale=1.3)),
        (Gamma(shape=2.7, mean_snr=0.8), st.gamma(2.7, scale=0.8 / 2.7)),
        (Weibull(shape=1.9, mean_snr=1.4),
         st.weibull_min(1.9, scale=1.4 / sp.gamma(1.0 + 1.0 / 1.9))),
        (fading.GeneralizedGamma(shape=1.6, power=0.9, mean_snr=1.1),
         st.gengamma(1.6, 0.9,
                     scale=1.1 * sp.gamma(1.6) / sp.gamma(1.6 + 1.0 / 0.9))),
    ]

    @pytest.mark.parametrize("model,ref", cases,
                             ids=[type(m).__name__ for m, _ in cases])
    def test_pdf_cdf_match_scipy(self, model, ref):
        np.testing.assert_allclose(model.pdf(GRID), ref.pdf(GRID), rtol=1e-12)
        np.testing.assert_allclose(model.cdf(GRID), ref.cdf(GRID), rtol=1e-12)

    @pytest.mark.parametrize("model,ref", cases,
                             ids=[type(m).__name__ for m, _ in cases])
    def test_h_route_agrees(self, model, ref):
        np.testing.assert_allclose(
            h_route_pdf(model, GRID), model.pdf(GRID), rtol=1e-8
        )

    @pytest.mark.parametrize("model,ref", cases,
                             ids=[type(m).__name__ for m, _ in cases])
    def test_mean_property(self, model, ref):
        assert model.mean == pytest.approx(ref.mean(), rel=1e-12)


class TestUnderflowedArguments:
    """A positive argument whose ratio to the scale underflows to 0 reads
    the density's limit at 0, with no warning from log 0."""

    unit_exponent = [
        Exponential(mean_snr=10.0),
        Gamma(shape=1.0, mean_snr=10.0),
        Weibull(shape=1.0, mean_snr=10.0),
        fading.GeneralizedGamma(shape=1.0, power=1.0, mean_snr=10.0),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", unit_exponent,
                             ids=[type(m).__name__ for m in unit_exponent])
    @pytest.mark.parametrize("g", [5e-324, 1e-310])
    def test_exponential_presets_read_one_over_mean(self, model, g):
        assert model.pdf(g) == pytest.approx(0.1, rel=1e-15)
        np.testing.assert_allclose(model.pdf(np.array([g, 1.0])),
                                   [0.1, 0.1 * math.exp(-0.1)], rtol=1e-15)
        assert model.cdf(g) == pytest.approx(g / 10.0, rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model,limit", [
        (Gamma(shape=2.7, mean_snr=10.0), 0.0),
        (Weibull(shape=0.5, mean_snr=10.0), math.inf),
    ], ids=["vanishing", "diverging"])
    def test_other_exponents_reach_their_limit(self, model, limit):
        assert model.pdf(5e-324) == limit


class TestGammaGamma:
    def test_pdf_against_compound_quadrature(self):
        """Bessel product law times the power-of-uniform pointing factor."""
        a, b, xi, mu = 2.902, 2.51, 1.1, 1.3
        x2 = xi * xi
        model = GammaGamma(alpha=a, beta=b, xi=xi, mean_snr=mu)

        def f_product(z):
            return (2.0 * (a * b) ** ((a + b) / 2)
                    / (sp.gamma(a) * sp.gamma(b))
                    * z ** ((a + b) / 2 - 1.0)
                    * sp.kv(a - b, 2.0 * np.sqrt(a * b * z)))

        def f_irr(i):
            tail, _ = quad(lambda z: f_product(z) * z ** (-x2), i, np.inf,
                           limit=200)
            return x2 * i ** (x2 - 1.0) * tail

        mean_irr = (sp.gamma(a + 1) * sp.gamma(b + 1)
                    / (sp.gamma(a) * sp.gamma(b) * a * b)) * x2 / (x2 + 1.0)
        c = mu / mean_irr
        for g in (0.05, 0.4, 1.1, 3.0, 8.0):
            assert float(model.pdf(g)) == pytest.approx(
                f_irr(g / c) / c, rel=1e-8
            )

    def test_cdf_consistent_with_pdf(self):
        model = GammaGamma(alpha=2.902, beta=2.51, xi=1.1)
        for x in (0.3, 1.0, 2.5):
            mass, err = integrate_semi_infinite(
                lambda g: model.pdf(g), scale=0.4, rel_tol=1e-10
            )
            below = mass - integrate_semi_infinite(
                lambda g: model.pdf(g), x, scale=0.4, rel_tol=1e-10
            )[0]
            assert float(model.cdf(x)) == pytest.approx(below, abs=1e-8)

    @pytest.mark.parametrize("order", [1, 2])
    def test_h_route_agrees(self, order):
        model = GammaGamma(alpha=2.902, beta=2.51, xi=1.1,
                           detection_order=order, mean_snr=1.3)
        np.testing.assert_allclose(
            h_route_pdf(model, GRID), model.pdf(GRID), rtol=1e-8
        )

    def test_detection_order_two_is_squared_irradiance(self):
        lin = GammaGamma(alpha=2.902, beta=2.51, xi=1.1, detection_order=1)
        sq = GammaGamma(alpha=2.902, beta=2.51, xi=1.1, detection_order=2)
        rng1 = np.random.Generator(np.random.Philox(KS_SEED))
        rng2 = np.random.Generator(np.random.Philox(KS_SEED))
        d1 = lin.sample(rng1, 5000)
        d2 = sq.sample(rng2, 5000)
        # same irradiance stream, squared and renormalised to unit mean
        ratio = d2 / (d1 ** 2)
        assert np.allclose(ratio, ratio[0])


class TestDoubleGeneralizedGamma:
    def test_pdf_against_product_quadrature(self):
        a1, a2, m1, m2, r, mu = 3.0, 1.5, 2.0, 2.0, 2, 0.9
        model = DoubleGeneralizedGamma(alpha1=a1, alpha2=a2, m1=m1, m2=m2,
                                       detection_order=r, mean_snr=mu)
        f1 = st.gengamma(m1, a1, scale=(1.0 / m1) ** (1.0 / a1))
        f2 = st.gengamma(m2, a2, scale=(1.0 / m2) ** (1.0 / a2))

        def f_product(p):
            val, _ = quad(
                lambda u: f1.pdf(np.exp(u)) * f2.pdf(p * np.exp(-u)),
                -12.0, 12.0, limit=300,
            )
            return val

        def factor_moment(mk, ak):
            return (1.0 / mk) ** (r / ak) * sp.gamma(mk + r / ak) / sp.gamma(mk)

        c = mu / (factor_moment(m1, a1) * factor_moment(m2, a2))
        for g in (0.05, 0.4, 1.1, 3.0):
            p = (g / c) ** (1.0 / r)
            assert float(model.pdf(g)) == pytest.approx(
                f_product(p) * p / (r * g), rel=1e-8
            )

    def test_no_h_form(self):
        model = DoubleGeneralizedGamma(alpha1=3.0, alpha2=1.5, m1=2.0, m2=2.0)
        with pytest.raises(UnsupportedHForm):
            model.to_h()


class TestWeibullGamma:
    def test_mean_pinned_by_quadrature(self):
        model = WeibullGamma(weibull_shape=2.2, gamma_shape=3.1,
                             mean_power=0.9)
        mean, err = integrate_semi_infinite(
            lambda g: g * model.pdf(g), scale=0.5, rel_tol=1e-9
        )
        assert mean == pytest.approx(0.9, abs=max(1e-8, 10 * err))

    def test_no_h_form(self):
        with pytest.raises(UnsupportedHForm):
            WeibullGamma(weibull_shape=2.2, gamma_shape=3.1).to_h()

    @pytest.mark.parametrize("k,a,mean", [(2.2, 3.1, 0.9), (3.0, 5.0, 1.0),
                                          (0.7, 1.5, 2.0)])
    def test_pdf_cdf_against_shadow_quadrature(self, k, a, mean):
        """Weibull conditional law integrated over the Gamma shadow."""
        model = WeibullGamma(weibull_shape=k, gamma_shape=a, mean_power=mean)
        shadow = st.gamma(a, scale=mean / a)
        lo, hi = np.log(shadow.ppf(1e-16)), np.log(shadow.isf(1e-16))

        def mix(conditional, g):
            def f(t):
                s = np.exp(t)
                law = st.weibull_min(k, scale=s / sp.gamma(1.0 + 1.0 / k))
                return conditional(law, g) * shadow.pdf(s) * s
            val, _ = quad(f, lo, hi, limit=300, epsabs=0.0, epsrel=1e-12)
            return val

        for g in GRID:
            assert float(model.pdf(g)) == pytest.approx(
                mix(lambda law, x: law.pdf(x), g), rel=1e-8)
            assert float(model.cdf(g)) == pytest.approx(
                mix(lambda law, x: law.cdf(x), g), rel=1e-8)


class TestMalaga:
    def test_series_tail_shrinks_with_terms(self):
        tails = [Malaga(series_terms=t, **MALAGA_KW).series_tail
                 for t in (200, 240, 320)]
        assert tails[0] > tails[1] > tails[2]
        assert tails[2] < 1e-12

    def test_undersized_series_rejected(self):
        with pytest.raises(NormalizationError):
            Malaga(series_terms=40, **MALAGA_KW)

    def test_near_one_mix_rejected_at_once(self):
        # rho = 1 - 1e-8 puts the mixing probability x within 2.6e-9 of
        # 1: the tail is all but the kept weights, which a term-by-term
        # sum from series_terms up would reach after about 1.6e10 terms
        with pytest.raises(NormalizationError, match=r"leaves 1\.00e\+00"):
            Malaga(**dict(MALAGA_KW, rho=1.0 - 1e-8))

    @pytest.mark.parametrize("beta,rho", [(1.822, 0.596), (4.5, 0.596),
                                          (0.7, 0.2)])
    @pytest.mark.parametrize("terms", [200, 240, 320])
    def test_series_tail_is_the_negative_binomial_tail(self, beta, rho,
                                                        terms):
        model = Malaga(series_terms=terms, **dict(MALAGA_KW, beta=beta,
                                                  rho=rho))
        want = st.nbinom.sf(terms - 1, beta, 1.0 - model._mix_x)
        assert model.series_tail == pytest.approx(want, rel=1e-12)

    def test_integer_beta_has_no_tail(self):
        assert Malaga(**dict(MALAGA_KW, beta=2.0)).series_tail == 0.0

    def test_mean_is_exact(self):
        model = Malaga(series_terms=320, mean_irradiance=1.7, **MALAGA_KW)
        mean, err = integrate_semi_infinite(
            lambda g: g * model.pdf(g), scale=0.8, rel_tol=1e-9
        )
        assert mean == pytest.approx(1.7, abs=1e-6)

    def test_each_mean_keeps_its_own_contour_memo(self):
        # the fused-series coefficients carry log delta, which moves with
        # the mean, so a memo keyed on the shape would serve wrong values
        low, high = (Malaga(series_terms=320, mean_irradiance=m, **MALAGA_KW)
                     for m in (1.0, 10.0))
        s = low._pdf_contour.c + 1j * np.linspace(-60.0, 60.0, 129)
        assert low._theta is not high._theta
        assert not np.array_equal(low._theta(s), high._theta(s))
        g = np.array([0.1, 1.0, 4.0])
        np.testing.assert_allclose(high.cdf(10.0 * g), low.cdf(g), rtol=1e-8)


class TestSharedContourMemo:
    def test_theta_built_once_per_grid_across_means(self, monkeypatch):
        """One GammaGamma shape at 7 means builds θ once per node grid."""
        grids = []
        log_theta = foxh.log_theta

        def counted(params):
            fn = log_theta(params)

            def theta(s):
                grids.append((complex(s[0]), complex(s[-1]), s.size))
                return fn(s)

            return theta

        monkeypatch.setattr(foxh, "log_theta", counted)
        foxh.shared_theta.cache_clear()
        shape = GammaGamma(alpha=2.413, beta=1.887, xi=0.97)
        g = np.geomspace(0.01, 5.0, 9)
        for db in range(0, 35, 5):
            model = shape.with_mean_snr(10.0 ** (db / 10.0))
            model.pdf(g * model.mean)
            model.cdf(g * model.mean)
        foxh.shared_theta.cache_clear()
        assert grids
        assert len(grids) == len(set(grids))


class TestSamplers:
    """Physical samplers against the quadrature cdf; fixed stream."""

    models = {
        "exponential": Exponential(1.3),
        "gamma": Gamma(shape=2.7, mean_snr=0.8),
        "weibull": Weibull(shape=1.9, mean_snr=1.4),
        "generalized_gamma": fading.GeneralizedGamma(shape=1.6, power=0.9,
                                                     mean_snr=1.1),
        "weibull_gamma": WeibullGamma(weibull_shape=2.2, gamma_shape=3.1,
                                      mean_power=0.9),
        "gamma_gamma": GammaGamma(alpha=2.902, beta=2.51, xi=1.1,
                                  mean_snr=1.2),
        "double_generalized_gamma": DoubleGeneralizedGamma(
            alpha1=3.0, alpha2=1.5, m1=2.0, m2=2.0, detection_order=2,
            mean_snr=0.9),
        "malaga": Malaga(series_terms=320, mean_irradiance=1.1, **MALAGA_KW),
        "generic_h": GenericH(kappa=1.0, delta=1.0,
                              params=HParams(m=1, n=0, lower=((0.0, 1.0),))),
    }

    @pytest.mark.parametrize("name", sorted(models))
    def test_kolmogorov_smirnov(self, name):
        model = self.models[name]
        rng = np.random.Generator(np.random.Philox(KS_SEED))
        draws = model.sample(rng, KS_DRAWS)
        assert np.all(draws > 0.0)
        res = st.kstest(draws, lambda v: np.asarray(model.cdf(v)))
        assert res.pvalue > KS_MIN_P, res

    @pytest.mark.parametrize("name", sorted(models))
    def test_sample_mean_matches_model_mean(self, name):
        model = self.models[name]
        rng = np.random.Generator(np.random.Philox(KS_SEED + 1))
        draws = model.sample(rng, 200_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - model.mean) < 5.0 * se


class TestMeanScaling:
    @pytest.mark.parametrize("name", sorted(TestSamplers.models))
    def test_cdf_is_scale_family(self, name):
        base = TestSamplers.models[name].with_mean_snr(1.0)
        scaled = base.with_mean_snr(3.7)
        np.testing.assert_allclose(
            scaled.cdf(GRID), base.cdf(GRID / 3.7), rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            scaled.pdf(GRID), base.pdf(GRID / 3.7) / 3.7,
            rtol=1e-9, atol=1e-12,
        )
        assert scaled.mean == pytest.approx(3.7, rel=1e-9)


class TestCatalogSkeleton:
    """What FadingModel does with each family's declarations."""

    # a second shape of each family; an exponential has only one
    other_shape = {
        "gamma": {"shape": 1.5},
        "weibull": {"shape": 1.2},
        "generalized_gamma": {"power": 1.4},
        "weibull_gamma": {"gamma_shape": 2.0},
        "gamma_gamma": {"xi": 1.6},
        "double_generalized_gamma": {"m1": 3.0},
        "malaga": {"alpha": 3.1},
        "generic_h": {"params": HParams(m=1, n=0, lower=((1.0, 1.0),))},
    }

    @pytest.mark.parametrize("name", sorted(TestSamplers.models))
    def test_zero_off_the_positive_axis(self, name):
        model = TestSamplers.models[name]
        for g in (0.0, -1.0):
            assert model.pdf(g) == 0.0 and model.cdf(g) == 0.0
        np.testing.assert_array_equal(model.pdf(np.array([0.0, -1.0])), 0.0)
        np.testing.assert_array_equal(model.cdf(np.array([0.0, -1.0])), 0.0)

    @pytest.mark.parametrize("name", sorted(TestSamplers.models))
    def test_each_positive_field_rejects_zero(self, name):
        model = TestSamplers.models[name]
        assert model._POSITIVE
        for field in model._POSITIVE:
            with pytest.raises(ValueError, match=f"^{field} must be a positive"):
                replace(model, **{field: 0.0})

    @pytest.mark.parametrize("name", sorted(TestSamplers.models))
    def test_each_positive_field_rejects_a_boolean(self, name):
        model = TestSamplers.models[name]
        for field in model._POSITIVE:
            with pytest.raises(ValueError, match=f"^{field} must be a positive"):
                replace(model, **{field: True})

    @pytest.mark.parametrize("name", ["gamma_gamma",
                                      "double_generalized_gamma"])
    @pytest.mark.parametrize("order", [True, False, 0, 3])
    def test_detection_order_is_one_or_two(self, name, order):
        with pytest.raises(ValueError, match="^detection_order must be 1 or 2"):
            replace(TestSamplers.models[name], detection_order=order)

    @pytest.mark.parametrize("name", sorted(TestSamplers.models))
    def test_normalization_checked_once_per_shape(self, name, monkeypatch):
        calls = []
        quad_check = fading.integrate_semi_infinite

        def counted(*args, **kwargs):
            calls.append(args)
            return quad_check(*args, **kwargs)

        monkeypatch.setattr(fading, "integrate_semi_infinite", counted)
        monkeypatch.setattr(fading, "_norm_checked", {})
        model = TestSamplers.models[name]
        model.with_mean_snr(2.0)
        model.with_mean_snr(5.0)
        assert len(calls) == 1
        if name in self.other_shape:
            replace(model, **self.other_shape[name])
            assert len(calls) == 2


def _bench_tracer():
    """A fresh ``Tracer`` from bench/spans.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


class TestBenchTracerHooks:
    """The bench tracer wraps pdf/cdf by the class that defines them; a
    refactor that moves them out of its sight zeroes the fading counts."""

    def test_every_family_counted_and_restored(self):
        tracer = _bench_tracer()
        try:
            tracer.install()
            for name, model in TestSamplers.models.items():
                for kind in ("cdf", "pdf"):
                    key = f"fading.{kind}_calls"
                    before = tracer.counts[key]
                    getattr(model, kind)(GRID)
                    assert tracer.counts[key] == before + 1, (name, kind)
        finally:
            tracer.uninstall()
        for model in TestSamplers.models.values():
            for kind in ("cdf", "pdf"):
                assert not hasattr(getattr(type(model), kind), "__wrapped__")

    def test_cutoff_evals_counted_once_per_solve(self):
        # sweep reaches opra through a private path, not the traced
        # opra or evaluate, so each solve's iterations count once
        from relaycap import capacity
        from relaycap.topology import Serial, end_to_end

        def factory(mean):
            hop = Exponential(mean)
            return end_to_end(Serial(hops=(hop, hop)))

        tracer = _bench_tracer()
        try:
            tracer.install()
            rows = capacity.sweep(factory, ["opra", "tcifr"], [0.0, 10.0])
        finally:
            tracer.uninstall()
        assert all(r.error is None for r in rows)
        iterations = sum(r.result.iterations for r in rows
                         if r.policy == "opra")
        assert iterations > 0
        assert tracer.counts["capacity.cutoff_evals"] == iterations


class TestModelFromConfig:
    def test_round_trip(self):
        m = model_from_config({"family": "gamma", "shape": 2.0,
                               "mean_snr": 0.5})
        assert m == Gamma(shape=2.0, mean_snr=0.5)

    def test_generic_h_block(self):
        m = model_from_config({
            "family": "generic_h", "kappa": 1.0, "delta": 1.0,
            "h": {"m": 1, "n": 0, "lower": [[0.0, 1.0]]},
        })
        assert m.params == HParams(m=1, n=0, lower=((0.0, 1.0),))

    @pytest.mark.parametrize("order", [1.7, 1.0, True, "1", None])
    def test_generic_h_order_must_be_an_integer(self, order):
        from relaycap.errors import ConfigError
        with pytest.raises(ConfigError, match="order 'm' must be an integer"):
            model_from_config({
                "family": "generic_h", "kappa": 1.0, "delta": 1.0,
                "h": {"m": order, "n": 0, "lower": [[0.0, 1.0]]},
            })
        with pytest.raises(ConfigError, match="order 'n' must be an integer"):
            model_from_config({
                "family": "generic_h", "kappa": 1.0, "delta": 1.0,
                "h": {"m": 1, "n": order, "lower": [[0.0, 1.0]]},
            })

    def test_generic_h_unknown_key(self):
        from relaycap.errors import ConfigError
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['q'\]"):
            model_from_config({
                "family": "generic_h", "kappa": 1.0, "delta": 1.0,
                "h": {"m": 1, "n": 0, "q": 1.5, "lower": [[0.0, 1.0]]},
            })

    def test_generic_h_order_out_of_range(self):
        from relaycap.errors import ConfigError
        with pytest.raises(ConfigError, match="bad parameters"):
            model_from_config({
                "family": "generic_h", "kappa": 1.0, "delta": 1.0,
                "h": {"m": 2, "n": 0, "lower": [[0.0, 1.0]]},
            })

    def test_unknown_family(self):
        from relaycap.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown fading family"):
            model_from_config({"family": "rice"})

    def test_unknown_parameter(self):
        from relaycap.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown parameter"):
            model_from_config({"family": "gamma", "shape": 2.0, "rate": 1.0})

    def test_bad_value(self):
        from relaycap.errors import ConfigError
        with pytest.raises(ConfigError):
            model_from_config({"family": "gamma", "shape": -2.0})

    def test_missing_family(self):
        from relaycap.errors import ConfigError
        with pytest.raises(ConfigError):
            model_from_config({"shape": 2.0})


class TestInterning:
    def test_equal_models_compare_equal(self):
        a = GammaGamma(alpha=2.902, beta=2.51, xi=1.1)
        b = GammaGamma(alpha=2.902, beta=2.51, xi=1.1)
        assert a == b and a is not b

    def test_replace_keeps_shape_identity(self):
        a = Gamma(shape=2.0, mean_snr=1.0)
        b = replace(a, mean_snr=2.0)
        assert b.shape == a.shape and b.mean == 2.0
