"""Simulation determinism, estimator agreement with closed forms, and the
heavy-tail instability flags."""

import math
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np
import pytest

from relaycap import montecarlo, topology
from relaycap.errors import InsufficientSamples
from relaycap.fading import (
    DoubleGeneralizedGamma,
    Exponential,
    Gamma,
    GenericH,
    Malaga,
)
from relaycap.foxh import HParams
from relaycap.montecarlo import (
    PolicyRequest,
    SimConfig,
    SimPoint,
    simulate,
)
from relaycap.topology import AllActive, Selective, Serial

# closed forms for Exp(1), prelog 1/2 (see test_capacity.py)
ORA_EXP1 = 0.43017369113544296
OPRA_EXP1 = 0.5142694626797389
OPRA_CUTOFF_EXP1 = 0.39377384504511836
TCIFR_EXP1_CUT1 = 0.4551814002826348
EFFECTIVE_EXP1_D1 = 0.38760796109766565

ALL_POLICIES = (
    PolicyRequest(name="ora"),
    PolicyRequest(name="opra", cutoff=OPRA_CUTOFF_EXP1),
    PolicyRequest(name="tcifr", cutoff=1.0),
    PolicyRequest(name="effective", qos_delta=1.0),
    PolicyRequest(name="cifr"),
)


def serial_pair() -> Serial:
    return Serial(hops=(Exponential(1.0), Exponential(1.0)))


class TestDeterminism:
    def test_same_seed_same_report(self):
        cfg = SimConfig(samples=200_000, seed=42, batch=1 << 15)
        points = [SimPoint(policies=ALL_POLICIES)]
        a = simulate(serial_pair(), cfg, [0.5, 1.0], points)
        b = simulate(serial_pair(), cfg, [0.5, 1.0], points)
        assert a == b

    def test_threaded_run_matches_sequential(self):
        cfg = SimConfig(samples=200_000, seed=42, batch=1 << 15)
        points = [SimPoint(policies=ALL_POLICIES)]
        seq = simulate(serial_pair(), cfg, [0.5, 1.0], points, jobs=1)
        par = simulate(serial_pair(), cfg, [0.5, 1.0], points, jobs=4)
        assert seq == par

    @pytest.mark.parametrize("jobs,hops,cpus,workers", [
        (None, 6, 2, 2), (None, 2, 4, 2), (1000, 3, 4, 3), (1000, 10, 4, 4),
        (2, 10, 4, 2), (1, 10, 4, None), (8, 1, 4, None), (8, 10, 1, None),
    ])
    def test_workers_bounded_by_hops_and_cpus(self, monkeypatch, jobs, hops,
                                              cpus, workers):
        # the hops of one batch draw in parallel and each worker holds
        # one hop's draws, so no more are started than there are hops to
        # draw or CPUs to draw them on; one worker runs without a pool
        import concurrent.futures

        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        chain = Serial(hops=(Exponential(1.0),) * hops)
        cfg = SimConfig(samples=3000, seed=1, batch=1000)
        simulate(chain, cfg, [1.0], jobs=jobs)
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_in_order_keeps_at_most_width_calls_ahead(self, width):
        # an extra worker holds one more hop draw, never a whole batch
        taken, ahead = [], []

        class LazyFuture:
            def __init__(self, fn, args):
                self.fn, self.args = fn, args

            def result(self):
                taken.append(self)
                return self.fn(*self.args)

        class Pool:
            submitted = 0

            def submit(self, fn, *args):
                self.submitted += 1
                ahead.append(self.submitted - len(taken))
                return LazyFuture(fn, args)

        calls = iter([(int, str(i)) for i in range(7)])
        got = list(montecarlo._in_order(calls, Pool(), width))
        assert got == list(range(7))
        assert max(ahead) == width

    def test_sampler_error_leaves_no_thread_running(self):
        @dataclass(frozen=True)
        class Broken(Exponential):
            def sample(self, rng, n):
                raise RuntimeError("sampler failed")

        chain = Serial(hops=(Exponential(1.0), Broken(2.0), Exponential(3.0)))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sampler failed"):
            simulate(chain, SimConfig(samples=4000, seed=3, batch=1000),
                     [1.0], jobs=2)
        assert threading.active_count() == before

    def test_different_seeds_differ(self):
        taus = [1.0]
        (a,) = simulate(serial_pair(), SimConfig(samples=10_000, seed=1), taus)
        (b,) = simulate(serial_pair(), SimConfig(samples=10_000, seed=2), taus)
        assert a.empirical_cdf != b.empirical_cdf


@pytest.fixture(scope="module")
def report():
    one = Serial(hops=(Exponential(1.0),))
    (rep,) = simulate(one, SimConfig(samples=400_000, seed=9), [1.0],
                      [SimPoint(policies=ALL_POLICIES)])
    return rep


class TestAgainstClosedForms:
    @pytest.mark.parametrize("label,want", [
        ("ora", ORA_EXP1),
        ("opra", OPRA_EXP1),
        ("tcifr", TCIFR_EXP1_CUT1),
        ("effective[delta=1]", EFFECTIVE_EXP1_D1),
    ])
    def test_capacity_estimates(self, report, label, want):
        est, se = report.capacity_estimates[label]
        assert abs(est - want) < 4.0 * se
        assert se < 0.01

    def test_outage_estimate(self, report):
        tau, est, se = report.empirical_cdf[0]
        assert tau == 1.0
        assert abs(est - (1.0 - math.exp(-1.0))) < 4.0 * se
        assert se == pytest.approx(math.sqrt(est * (1.0 - est) / 400_000))

    def test_sample_mean(self, report):
        assert abs(report.sample_mean - 1.0) < 0.01

    def test_inverse_moment_instability_is_flagged(self, report):
        # E[1/g] diverges for Exp(1); the estimator must say so
        assert "cifr" in report.diagnostics
        assert "unstable" in report.diagnostics["cifr"]

    def test_stable_estimates_carry_no_diagnostic(self, report):
        for label in ("ora", "opra", "tcifr", "effective[delta=1]"):
            assert label not in report.diagnostics


class TestInstabilityFlags:
    def test_qos_moment_share_flag(self):
        # delta=10 at 30 dB mean: (1+g)^-a concentrates on the smallest draws
        one = Serial(hops=(Exponential(1000.0),))
        (rep,) = simulate(one, SimConfig(samples=100_000, seed=5), [1.0],
                          [SimPoint(policies=(PolicyRequest(
                              name="effective", qos_delta=10.0),))])
        diag = rep.diagnostics.get("effective[delta=10]", "")
        assert "unstable" in diag and "has not converged" in diag

    def test_moderate_delta_is_stable(self):
        one = Serial(hops=(Gamma(shape=2.0),))
        (rep,) = simulate(one, SimConfig(samples=100_000, seed=5), [1.0],
                          [SimPoint(policies=(PolicyRequest(
                              name="effective", qos_delta=1.0),))])
        assert rep.diagnostics == {}

    def test_no_draws_above_the_cutoff(self):
        # Exp(1) exceeds 50 with probability e^-50: no draw reaches it
        one = Serial(hops=(Exponential(1.0),))
        (rep,) = simulate(one, SimConfig(samples=20_000, seed=1), [1.0],
                          [SimPoint(policies=(
                              PolicyRequest(name="opra", cutoff=50.0),
                              PolicyRequest(name="tcifr", cutoff=50.0)))])
        assert rep.capacity_estimates["opra"] == (0.0, 0.0)
        assert rep.diagnostics == {"opra": "no draws above the cutoff",
                                   "tcifr": "no draws above the cutoff"}


class TestValidation:
    def test_minimum_sample_budget(self):
        with pytest.raises(InsufficientSamples):
            SimConfig(samples=999, seed=1)

    def test_unsorted_taus(self):
        with pytest.raises(ValueError, match="sorted"):
            simulate(serial_pair(), SimConfig(samples=1000, seed=1),
                     [1.0, 0.5])

    def test_policy_request_rules(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicyRequest(name="waterfilling")
        with pytest.raises(ValueError, match="cutoff"):
            PolicyRequest(name="opra")
        with pytest.raises(ValueError, match="cutoff"):
            PolicyRequest(name="tcifr")
        with pytest.raises(ValueError, match="qos_delta"):
            PolicyRequest(name="effective")
        with pytest.raises(ValueError, match="does not apply"):
            PolicyRequest(name="ora", cutoff=1.0)

    def test_seed_range(self):
        # the 2**64 bound is printed exactly, not rounded to 15 digits
        with pytest.raises(ValueError) as exc:
            SimConfig(samples=1000, seed=-1)
        assert str(exc.value) == ("seed must be an integer in "
                                  "[0, 18446744073709551616), got -1")

    @pytest.mark.parametrize("kwargs", [
        {"samples": 2000.0}, {"samples": True}, {"seed": 1.5}, {"seed": True},
        {"batch": 2.0}, {"batch": True}, {"batch": 0},
    ], ids=["samples_float", "samples_true", "seed_float", "seed_true",
            "batch_float", "batch_true", "batch_zero"])
    def test_counts_are_integers(self, kwargs):
        key = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"^{key} must be "):
            SimConfig(**dict({"samples": 1000, "seed": 1}, **kwargs))


class TestMemory:
    """A batch holds a few arrays of its size, whatever the hop count."""

    @pytest.mark.parametrize("topo", [
        Serial(hops=(Exponential(1.0),) * 400),
        Selective(branches=((Exponential(1.0), Exponential(2.0)),) * 200),
    ], ids=["chain_400", "selective_200"])
    def test_simulate_peak_independent_of_hops(self, topo):
        import tracemalloc
        cfg = SimConfig(samples=1 << 14, seed=3, batch=1 << 14)
        tracemalloc.start()
        try:
            # each worker holds one more draw, so the bound needs a fixed
            # worker count, whatever the machine's CPUs
            simulate(topo, cfg, [1.0], jobs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 400 batch arrays of 128 KiB each would take 50 MiB
        assert peak < 4 * 2 ** 20


class TestEstimators:
    """Capacity estimates are sample means of the simulated draws."""

    CUTOFF = 0.4

    @pytest.fixture(scope="class")
    def single_batch(self):
        cfg = SimConfig(samples=20_000, seed=8)
        (rep,) = simulate(Serial(hops=(Exponential(1.0),)), cfg, [1.0], [
            SimPoint(policies=(PolicyRequest(name="ora"),
                               PolicyRequest(name="opra",
                                             cutoff=self.CUTOFF)))])
        draws = Exponential(1.0).sample(montecarlo._stream(8, 0, 0),
                                        cfg.samples)
        return rep, draws

    def test_ora_matches_direct_sample_mean(self, single_batch):
        rep, draws = single_batch
        est, se = rep.capacity_estimates["ora"]
        direct = 0.5 * np.log2(1.0 + draws)
        assert est == pytest.approx(direct.mean(), rel=1e-12)
        assert se == pytest.approx(direct.std(ddof=1) / math.sqrt(draws.size),
                                   rel=1e-9)

    def test_opra_truncates_below_cutoff(self, single_batch):
        rep, draws = single_batch
        est, _ = rep.capacity_estimates["opra"]
        direct = np.where(draws > self.CUTOFF,
                          0.5 * np.log2(draws / self.CUTOFF), 0.0)
        assert est == pytest.approx(direct.mean(), rel=1e-12)


class TestTopologyStreams:
    def test_selective_draws_follow_the_exact_law(self):
        sel = Selective(branches=(
            (Exponential(1.0), Exponential(1.0)),
            (Exponential(1.0), Exponential(1.0)),
        ))
        (rep,) = simulate(sel, SimConfig(samples=200_000, seed=12), [1.0])
        tau, est, se = rep.empirical_cdf[0]
        exact = (1.0 - math.exp(-2.0)) ** 2
        assert abs(est - exact) < 4.0 * se

    def test_all_active_draws_sum_branches(self):
        aa = topology.AllActive(branches=(
            (Exponential(1.0), Exponential(1.0)),
            (Exponential(1.0), Exponential(1.0)),
        ))
        (rep,) = simulate(aa, SimConfig(samples=200_000, seed=13), [1.0])
        tau, est, se = rep.empirical_cdf[0]
        # Erlang(2, rate 2) at 1
        exact = 1.0 - math.exp(-2.0) * 3.0
        assert abs(est - exact) < 4.0 * se


def hops_scaled(topo, c):
    """The topology with every hop's own mean multiplied by ``c``."""
    def one(hop):
        return hop.with_mean_snr(c * hop.mean)
    if isinstance(topo, Serial):
        return Serial(hops=tuple(one(h) for h in topo.hops))
    return replace(topo, branches=tuple((one(a), one(b))
                                        for a, b in topo.branches))


SWEEP_POLICIES = (
    PolicyRequest(name="ora"),
    PolicyRequest(name="opra", cutoff=0.3),
    PolicyRequest(name="tcifr", cutoff=0.8),
    PolicyRequest(name="effective", qos_delta=1.0),
    PolicyRequest(name="cifr"),
)


def _dgg_selective():
    # a DGG draw is a product of two generalized-Gamma draws from one stream
    dgg = [DoubleGeneralizedGamma(alpha1=3.0, alpha2=1.5, m1=2.0, m2=2.0,
                                  detection_order=2, mean_snr=m)
           for m in (1.0, 2.0, 0.5)]
    return Selective(branches=((dgg[0], dgg[1]), (dgg[2], dgg[0])))


def _generic_h_chain():
    # equal hops are one instance, so its lazily built inverse-CDF grid
    # is shared by all three draws of a batch
    hop = GenericH(kappa=1.0, delta=1.0,
                   params=HParams(m=1, n=0, lower=((1.0, 1.0),)))
    return Serial(hops=(hop, hop, hop))


def _malaga_all_active():
    kw = dict(alpha=2.296, beta=1.822, omega_prime=1.3265, b0=0.1079,
              rho=0.596, series_terms=320)
    a, b = Malaga(**kw), Malaga(mean_irradiance=2.0, **kw)
    return AllActive(branches=((a, b), (b, a), (a, a)))


class TestThreadedDraws:
    """Hops drawn on threads give the sequential report bit for bit."""

    CFG = SimConfig(samples=20_000, seed=21, batch=6000)
    POINTS = (SimPoint(scale=0.5, policies=SWEEP_POLICIES),
              SimPoint(scale=4.0, policies=SWEEP_POLICIES))

    @pytest.mark.parametrize("build", [
        _dgg_selective, _generic_h_chain, _malaga_all_active,
    ], ids=["dgg_selective", "generic_h_chain", "malaga_all_active"])
    def test_threads_match_sequential(self, monkeypatch, build):
        # more workers than cores, switching often, and a fresh topology
        # per run, so the threads race to build each hop's lazy state
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                            lambda pid: set(range(8)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [simulate(build(), self.CFG, [0.3, 1.0, 3.0], self.POINTS,
                             **jobs)
                    for jobs in ({"jobs": 2}, {}, {"jobs": 1})]
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]


class TestSecondMoment:
    """The policy term's sum of squares, summed pairwise without BLAS."""

    @pytest.mark.parametrize("req,term", [
        (PolicyRequest(name="ora"), lambda g: 0.5 * np.log2(1.0 + g)),
        (PolicyRequest(name="opra", cutoff=0.7),
         lambda g: 0.5 * np.log2(np.maximum(g, 0.7) / 0.7)),
        (PolicyRequest(name="effective", qos_delta=2.0),
         lambda g: (1.0 + g) ** (-2.0 * 0.5 / math.log(2.0))),
        (PolicyRequest(name="tcifr", cutoff=0.7),
         lambda g: np.where(g >= 0.7, 1.0 / g, 0.0)),
        (PolicyRequest(name="cifr"), lambda g: 1.0 / g),
    ], ids=["ora", "opra", "effective", "tcifr", "cifr"])
    def test_matches_exact_sum(self, req, term):
        g = Exponential(1.0).sample(np.random.default_rng(4), 50_000)
        want = math.fsum(term(g) ** 2)
        got = montecarlo._policy_batch(req, g)[1]
        assert got == pytest.approx(want, rel=1e-15)

    def test_cifr_at_zero_is_infinite(self):
        g = np.array([0.0, 0.5, 2.0])
        with np.errstate(divide="ignore"):
            want = math.fsum((1.0 / g) ** 2)
        assert want == math.inf
        assert montecarlo._policy_batch(PolicyRequest(name="cifr"), g)[1] \
            == math.inf


class TestSweepPoints:
    """One draw per batch, rescaled to every point, equals a run on the
    topology whose hop means carry the point's scale."""

    CFG = SimConfig(samples=60_000, seed=31, batch=1 << 14)
    TAUS = [0.05, 0.5, 2.0, 20.0]
    SCALES = (0.1, 1.0, 31.6)

    @pytest.mark.parametrize("topo", [
        Serial(hops=(Exponential(2.0), Gamma(shape=2.0, mean_snr=5.0))),
        AllActive(branches=(
            (Exponential(1.0), Gamma(shape=2.0, mean_snr=3.0)),
            (Exponential(4.0), Exponential(0.5)),
        )),
    ], ids=["serial", "all_active"])
    def test_scaled_point_matches_scaled_hops(self, topo):
        points = [SimPoint(scale=c, policies=SWEEP_POLICIES)
                  for c in self.SCALES]
        sweep = simulate(topo, self.CFG, self.TAUS, points)
        assert len(sweep) == len(self.SCALES)
        for c, rep in zip(self.SCALES, sweep):
            (ref,) = simulate(hops_scaled(topo, c), self.CFG, self.TAUS,
                              [SimPoint(policies=SWEEP_POLICIES)])
            # equal outage counts, so equal estimates and errors
            assert rep.empirical_cdf == ref.empirical_cdf
            assert rep.sample_mean == pytest.approx(ref.sample_mean,
                                                    rel=1e-12)
            assert rep.capacity_estimates.keys() == \
                ref.capacity_estimates.keys()
            for label, (value, err) in ref.capacity_estimates.items():
                got = rep.capacity_estimates[label]
                assert got[0] == pytest.approx(value, rel=1e-12), label
                assert got[1] == pytest.approx(err, rel=1e-12), label
            assert rep.diagnostics == ref.diagnostics

    def test_points_keep_their_own_policies(self):
        sweep = simulate(serial_pair(), self.CFG, [1.0], [
            SimPoint(scale=2.0, policies=(PolicyRequest(name="ora"),)),
            SimPoint(scale=0.5),
        ])
        assert list(sweep[0].capacity_estimates) == ["ora"]
        assert sweep[1].capacity_estimates == {}

    def test_threaded_sweep_matches_sequential(self):
        points = [SimPoint(scale=c, policies=SWEEP_POLICIES)
                  for c in self.SCALES]
        seq = simulate(serial_pair(), self.CFG, self.TAUS, points, jobs=1)
        par = simulate(serial_pair(), self.CFG, self.TAUS, points, jobs=2)
        assert seq == par

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="scale"):
            SimPoint(scale=scale)

    def test_needs_a_point(self):
        with pytest.raises(ValueError, match="point"):
            simulate(serial_pair(), self.CFG, [1.0], [])
