"""Release gate: eight numbered end-to-end checks.

Each check prints exactly one PASS/FAIL verdict line outside pytest's
capture so the verdicts survive into piped logs, then asserts.
Expected constants were computed with mpmath and
scipy oracles before the library code existed; the closed forms are
stated next to each use.

The capacity checks share one evaluation matrix: every catalog family
under each of the three topologies at mean SNRs of 0, 10, 20 and
30 dB (108 channel points).  Building it takes about a minute, so it
is a module-scoped fixture.

One unnumbered check rides along: each family of the matrix is a scale
family in mean SNR, which the CLI relies on when it rescales one
unit-mean all-active grid law to every SNR point.
"""

import math
import time

import numpy as np
import pytest
import scipy.special as sp

from relaycap import capacity, cli, foxh
from relaycap.capacity import PolicySpec
from relaycap.fading import (
    DoubleGeneralizedGamma,
    Exponential,
    Gamma,
    GammaGamma,
    GeneralizedGamma,
    GenericH,
    Malaga,
    Weibull,
    WeibullGamma,
)
from relaycap.foxh import HParams
from relaycap.montecarlo import SimConfig, simulate
from relaycap.quadrature import integrate_semi_infinite, quantile_search
from relaycap.topology import AllActive, Selective, Serial, end_to_end

LN2 = math.log(2.0)

# Root of exp(-x)/x - E1(x) - 1 = 0 (single Exp(1) hop cutoff), mpmath
OPRA_CUTOFF_EXP1 = 0.39377384504511836

# One representative parameter set per family for the topology matrix;
# the optical families reuse the shipped sweep configurations.
MODELS = {
    "exponential": Exponential(),
    "gamma": Gamma(shape=2.0),
    "weibull": Weibull(shape=2.2),
    "generalized_gamma": GeneralizedGamma(shape=1.7, power=1.1),
    "weibull_gamma": WeibullGamma(weibull_shape=2.2, gamma_shape=3.1),
    "gamma_gamma": GammaGamma(alpha=2.902, beta=2.51, xi=1.1),
    "double_generalized_gamma": DoubleGeneralizedGamma(
        alpha1=3.0, alpha2=1.5, m1=2.0, m2=2.0, detection_order=2
    ),
    "malaga": Malaga(
        alpha=2.296, beta=1.822, omega_prime=1.3265, b0=0.1079,
        rho=0.596, series_terms=320,
    ),
    "generic_h": GenericH(
        kappa=1.0, delta=1.0,
        params=HParams(m=1, n=0, lower=((0.0, 1.0),)),
    ),
}

SNRS_DB = (0.0, 10.0, 20.0, 30.0)


@pytest.mark.parametrize("family", sorted(MODELS))
@pytest.mark.parametrize("gamma", (10.0 ** 0.5, 100.0, 1000.0))
def test_mean_snr_is_a_scale_parameter(family, gamma):
    """X at mean gamma has the law of gamma * X at unit mean."""
    unit = MODELS[family].with_mean_snr(1.0)
    model = MODELS[family].with_mean_snr(gamma)
    t = gamma * np.logspace(-2.0, np.log10(20.0), 25)
    np.testing.assert_allclose(model.cdf(t), unit.cdf(t / gamma),
                               rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(model.pdf(t), unit.pdf(t / gamma) / gamma,
                               rtol=1e-10, atol=0.0)


# Three parameter sets per family for the normalization sweep; the
# first set of each optical family is the shipped sweep configuration.
NORMALIZATION_SETS = [
    Exponential(mean_snr=1.0),
    Exponential(mean_snr=0.3),
    Exponential(mean_snr=4.0),
    Gamma(shape=0.8),
    Gamma(shape=2.0),
    Gamma(shape=5.5),
    Weibull(shape=0.9),
    Weibull(shape=2.2),
    Weibull(shape=3.5),
    GeneralizedGamma(shape=1.7, power=1.1),
    GeneralizedGamma(shape=0.9, power=0.6),
    GeneralizedGamma(shape=2.5, power=2.0),
    WeibullGamma(weibull_shape=2.2, gamma_shape=3.1),
    WeibullGamma(weibull_shape=1.4, gamma_shape=2.0),
    WeibullGamma(weibull_shape=3.0, gamma_shape=5.0),
    GammaGamma(alpha=2.902, beta=2.51, xi=1.1),
    GammaGamma(alpha=4.2, beta=3.0, xi=2.5, detection_order=2),
    GammaGamma(alpha=2.1, beta=1.5, xi=0.9),
    DoubleGeneralizedGamma(alpha1=3.0, alpha2=1.5, m1=2.0, m2=2.0,
                           detection_order=2),
    DoubleGeneralizedGamma(alpha1=2.0, alpha2=2.0, m1=1.0, m2=3.0),
    DoubleGeneralizedGamma(alpha1=1.5, alpha2=1.2, m1=2.5, m2=1.5,
                           detection_order=2),
    Malaga(alpha=2.296, beta=1.822, omega_prime=1.3265, b0=0.1079,
           rho=0.596, series_terms=320),
    Malaga(alpha=2.5, beta=3.0, omega_prime=1.2, b0=0.25, rho=0.75,
           series_terms=120),
    Malaga(alpha=3.1, beta=1.3, omega_prime=1.0, b0=0.15, rho=0.35,
           series_terms=240),
    GenericH(kappa=1.0, delta=1.0,
             params=HParams(m=1, n=0, lower=((0.0, 1.0),))),
    GenericH(kappa=1.0, delta=1.0,
             params=HParams(m=1, n=0, lower=((1.0, 1.0),))),
    GenericH(kappa=1.0, delta=1.0,
             params=HParams(m=1, n=0, lower=((0.5, 0.5),))),
]

FIGURE_CONFIGS = ("fig1_serial2", "fig2_malaga", "fig3_dgg")


@pytest.fixture
def verdict(capsys):
    """Print one PASS/FAIL line outside capture, then assert."""
    def _verdict(num: int, ok: bool, detail: str) -> None:
        line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def _topologies(hop):
    return {
        "serial": Serial((hop, hop)),
        "selective": Selective(((hop, hop), (hop, hop))),
        "all_active": AllActive(((hop, hop), (hop, hop))),
    }


def _ora_density_form(ch) -> tuple[float, float]:
    """ORA capacity integrated against the density instead of the CDF."""
    def integrand(g):
        f = np.maximum(np.asarray(ch.pdf(g), dtype=float), 0.0)
        return f * np.log1p(g)

    val, err = integrate_semi_infinite(
        integrand, 0.0, scale=max(quantile_search(ch.cdf, 1.0 - 1e-6), 1.0) / 3.0,
        rel_tol=1e-9,
    )
    cap = 0.5 / LN2 * val
    return cap, 0.5 / LN2 * err + ch.resolution_error * (1.0 + abs(cap))


@pytest.fixture(scope="module")
def matrix():
    """Policy results for every family x topology x SNR point."""
    points = {}
    for fam, model in MODELS.items():
        for topo_name, topo in _topologies(model).items():
            for snr_db in SNRS_DB:
                ch = end_to_end(topo.with_mean_snr(10.0 ** (snr_db / 10.0)))
                res = {
                    name: capacity.evaluate(ch, spec)
                    for name, spec in (
                        ("opra", PolicySpec(name="opra")),
                        ("ora", PolicySpec(name="ora")),
                        ("cifr", PolicySpec(name="cifr")),
                        ("effective",
                         PolicySpec(name="effective", qos_delta=1e-4)),
                    )
                }
                res["ora_density"] = _ora_density_form(ch)
                points[fam, topo_name, snr_db] = res
    return points


class TestAcceptance:
    def test_1_h_identity_suite(self, verdict):
        t0 = time.perf_counter()
        xs = np.logspace(np.log10(0.01), np.log10(20.0), 40)
        worst = 0.0
        # H^{1,0}_{0,1}[x | (m-1,1)] = x^{m-1} exp(-x); m = 1 is exp(-x)
        for m in (1.0, 2.0, 4.0):
            v, _ = foxh.eval_h(
                HParams(m=1, n=0, lower=((m - 1.0, 1.0),)), xs
            )
            want = xs ** (m - 1.0) * np.exp(-xs)
            worst = max(worst, float(np.max(np.abs(v / want - 1.0))))
        # H^{2,0}_{0,2}[z | (a-1,1),(b-1,1)] = 2 z^{(a+b)/2-1} K_{a-b}(2 sqrt z)
        a, b = 2.902, 2.51
        v, _ = foxh.eval_h(
            HParams(m=2, n=0, lower=((a - 1.0, 1.0), (b - 1.0, 1.0))), xs
        )
        want = (2.0 * xs ** ((a + b) / 2.0 - 1.0)
                * sp.kv(a - b, 2.0 * np.sqrt(xs)))
        worst_bessel = float(np.max(np.abs(v / want - 1.0)))
        dt = time.perf_counter() - t0
        verdict(
            1,
            worst <= 1e-8 and worst_bessel <= 1e-6 and dt < 10.0,
            f"H identities on 40 log points: exponential forms worst rel "
            f"{worst:.1e} (bound 1e-8), Bessel form {worst_bessel:.1e} "
            f"(bound 1e-6), {dt:.2f}s (limit 10s)",
        )

    def test_2_catalog_normalization(self, verdict):
        t0 = time.perf_counter()
        worst = 0.0
        for model in NORMALIZATION_SETS:
            val, _ = integrate_semi_infinite(
                model.pdf, 0.0, scale=0.5, rel_tol=1e-9, abs_tol=1e-12,
            )
            worst = max(worst, abs(val - 1.0))
        dt = time.perf_counter() - t0
        verdict(
            2,
            worst <= 1e-6 and dt < 60.0,
            f"{len(NORMALIZATION_SETS)} catalog models: worst "
            f"|integral - 1| = {worst:.1e} (bound 1e-6), {dt:.1f}s "
            f"(limit 60s)",
        )

    def test_3_monte_carlo_agreement(self, verdict, tmp_path):
        t0 = time.perf_counter()
        codes = {}
        for name in FIGURE_CONFIGS:
            out = tmp_path / f"{name}.txt"
            codes[name] = cli.main(
                ["validate", "--config", name, "--out", str(out)]
            )
        dt = time.perf_counter() - t0
        bad = {k: v for k, v in codes.items() if v != 0}
        verdict(
            3,
            not bad and dt < 600.0,
            f"shipped sweep configs validate against 1e6-sample Monte "
            f"Carlo within 3 standard errors: exit codes {codes}, "
            f"{dt:.0f}s (limit 600s)",
        )

    def test_4_opra_cutoff_interval(self, verdict, matrix):
        roots = {key: res["opra"].cutoff for key, res in matrix.items()}
        lo, hi = min(roots.values()), max(roots.values())
        in_interval = all(0.0 < r <= 1.0 for r in roots.values())
        single = end_to_end(Serial((Exponential(mean_snr=1.0),)))
        root = capacity.opra_cutoff(single)
        gap = abs(root - OPRA_CUTOFF_EXP1)
        verdict(
            4,
            in_interval and gap <= 1e-3,
            f"cutoff in (0, 1] at all {len(roots)} matrix points (range "
            f"[{lo:.4f}, {hi:.4f}]); single Exp(1) hop root {root:.9f} vs "
            f"closed form {OPRA_CUTOFF_EXP1:.9f}, gap {gap:.1e} "
            f"(bound 1e-3)",
        )

    def test_5_policy_ordering(self, verdict, matrix):
        worst_margin = math.inf
        worst_eff = 0.0
        for res in matrix.values():
            for hi, lo in (("opra", "ora"), ("ora", "cifr")):
                margin = (
                    res[hi].capacity - res[lo].capacity
                    + res[hi].quad_error + res[lo].quad_error
                )
                worst_margin = min(worst_margin, margin)
            worst_eff = max(
                worst_eff,
                abs(res["effective"].capacity - res["ora"].capacity),
            )
        verdict(
            5,
            worst_margin >= 0.0 and worst_eff <= 1e-3,
            f"opra >= ora >= cifr within combined quadrature error at all "
            f"{len(matrix)} points (tightest margin {worst_margin:+.1e}); "
            f"effective capacity at qos_delta=1e-4 within "
            f"{worst_eff:.1e} bits of ora (bound 1e-3)",
        )

    def test_6_selective_formula_arbitration(self, verdict):
        # For a single branch the hop-pair minimum has CDF 1 - exp(-2t)
        # under two Exp(1) hops; the branch-marginal product squares
        # the per-branch CDF instead.  The physical sampler decides.
        t0 = time.perf_counter()
        branches = ((Exponential(), Exponential()),)
        exact = float(end_to_end(Selective(branches)).cdf(1.0))
        marginal = float(
            end_to_end(Selective(branches, formula="marginal_product"))
            .cdf(1.0)
        )
        assert exact == pytest.approx(1.0 - math.exp(-2.0), rel=1e-9)
        assert marginal == pytest.approx(
            (1.0 - math.exp(-1.0)) ** 2, rel=1e-9
        )
        (report,) = simulate(
            Selective(branches),
            SimConfig(samples=10_000_000, seed=20260816),
            [1.0],
        )
        _, est, se = report.empirical_cdf[0]
        z_exact = (est - exact) / se
        z_marginal = (est - marginal) / se
        dt = time.perf_counter() - t0
        verdict(
            6,
            abs(z_exact) <= 3.0 and abs(z_marginal) > 100.0,
            f"1e7-sample selection outage arbitration: hop-minimum form "
            f"z = {z_exact:+.2f} (|z| <= 3), branch-marginal product form "
            f"z = {z_marginal:+.0f} (|z| > 100 required), {dt:.0f}s",
        )

    def test_7_by_parts_identities(self, verdict, matrix):
        worst_opra = 0.0
        worst_ora = 0.0
        opra_ok = True
        for res in matrix.values():
            o = res["opra"]
            worst_opra = max(worst_opra, abs(o.capacity - o.cross_check))
            if o.diagnostic is not None or (
                abs(o.capacity - o.cross_check) > o.quad_error
            ):
                opra_ok = False
            cap, _ = res["ora_density"]
            worst_ora = max(worst_ora, abs(res["ora"].capacity - cap))
        verdict(
            7,
            opra_ok and worst_ora <= 1e-4,
            f"opra survival vs density forms agree within reported "
            f"quadrature error at all {len(matrix)} points (worst gap "
            f"{worst_opra:.1e}); ora density vs cdf forms within "
            f"{worst_ora:.1e} absolute (bound 1e-4)",
        )

    def test_8_validate_determinism(self, verdict, tmp_path):
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        for out in (first, second):
            code = cli.main(
                ["validate", "--config", "fig1_serial2", "--out", str(out)]
            )
            assert code == 0
        a, b = first.read_bytes(), second.read_bytes()
        verdict(
            8,
            a == b,
            f"validate reruns with one seed are byte-identical "
            f"({len(a)} bytes)",
        )
