"""Adaptation policies against closed forms computed with mpmath.

Every frozen constant below was produced by an independent high-precision
evaluation of the stated closed form; the tests compare the library's
quadrature routes against them.
"""

import dataclasses
import math

import numpy as np
import pytest

from relaycap import capacity, topology
from relaycap.capacity import (
    CutoffSolve,
    PolicySpec,
    evaluate,
    sweep,
)
from relaycap.errors import RelayCapError, RootNotBracketed
from relaycap.fading import Exponential, Gamma, GammaGamma
from relaycap.montecarlo import PolicyRequest, SimConfig, SimPoint, simulate
from relaycap.topology import (
    AllActive,
    EndToEndChannel,
    Selective,
    Serial,
    end_to_end,
)

# Exp(1) single hop, prelog 1/2:
#   ora  = (1/2) log2(e) * e * E1(1)
#   opra root of e^-x/x - E1(x) = 1, then (1/2) log2(e) * E1(root)
#   tcifr(c) = (1/2) log2(1 + 1/E1(c)) e^-c
#   effective(d) = -(1/d) ln int e^-g (1+g)^(-d/(2 ln 2)) dg
E1_OF_1 = 0.21938393439552029
ORA_EXP1 = 0.43017369113544296
OPRA_CUTOFF_EXP1 = 0.39377384504511836
OPRA_EXP1 = 0.5142694626797389
TCIFR_EXP1_CUT1 = 0.4551814002826348
TCIFR_EXP1_CUT25 = 2.8307673118453606e-10
# below the unit-law table of Exp(1), which starts near 1e-11
TCIFR_EXP1_CUT1EM13 = 0.024162832618618646
EFFECTIVE_EXP1 = {
    0.5: 0.40807016360737514,
    1.0: 0.38760796109766565,
    2.0: 0.3513496530618302,
    1e-3: 0.43012782613979944,
    1e-4: 0.43016910433638639,
}
# Exp(mean 10^(snr_db/10)), delta 1: the same integral at 40 digits
EFFECTIVE_EXP_LOW_SNR = {
    -100.0: 7.213475203463298e-11,
    -60.0: 7.213465389284471e-07,
    -40.0: 7.212493946551888e-05,
}
# Gamma(shape 2, mean 1): E[1/g] = 2, so cifr = (1/2) log2(1.5);
# truncated at 0.5: moment 2 e^-1, survival 2 e^-1
CIFR_GAMMA2 = 0.2924812503605781
TCIFR_GAMMA2_CUT05 = 0.45553098359382377
CIFR_GAMMA1001 = 0.0007202671796074409
# serial pair of Exp(1) hops: min is Exp(rate 2)
ORA_EXP_SERIAL2 = 0.26064350185795343


@pytest.fixture(scope="module")
def exp1():
    return end_to_end(Serial(hops=(Exponential(1.0),)))


@pytest.fixture(scope="module")
def gamma2():
    return end_to_end(Serial(hops=(Gamma(shape=2.0),)))


class TestOra:
    def test_exponential(self, exp1):
        r = capacity.ora(exp1)
        assert abs(r.capacity - ORA_EXP1) <= max(r.quad_error, 1e-10)
        assert r.cutoff is None and r.diagnostic is None

    def test_serial_pair(self):
        ch = end_to_end(Serial(hops=(Exponential(1.0), Exponential(1.0))))
        r = capacity.ora(ch)
        assert r.capacity == pytest.approx(ORA_EXP_SERIAL2, abs=1e-9)

    def test_prelog_is_a_plain_factor(self, exp1):
        half = capacity.ora(exp1, prelog=0.5)
        full = capacity.ora(exp1, prelog=1.0)
        assert full.capacity == pytest.approx(2.0 * half.capacity, rel=1e-12)


class TestOpra:
    def test_cutoff_root(self, exp1):
        solve = capacity.opra_cutoff_details(exp1)
        assert isinstance(solve, CutoffSolve)
        assert solve.root == pytest.approx(OPRA_CUTOFF_EXP1, abs=1e-9)
        assert abs(solve.residual) <= 1e-10
        assert solve.iterations > 0

    def test_capacity_and_cross_check(self, exp1):
        r = capacity.opra(exp1)
        assert r.capacity == pytest.approx(OPRA_EXP1, abs=1e-9)
        assert r.cutoff == pytest.approx(OPRA_CUTOFF_EXP1, abs=1e-9)
        assert r.diagnostic is None
        assert abs(r.capacity - r.cross_check) <= r.quad_error

    def test_cutoff_grows_with_mean_snr(self):
        roots = []
        for mean in (1.0, 4.0, 10.0, 100.0):
            ch = end_to_end(Serial(hops=(Exponential(mean),)))
            roots.append(capacity.opra_cutoff(ch))
        assert all(0.0 < r <= 1.0 for r in roots)
        assert roots == sorted(roots)

    def test_near_deterministic_channel(self):
        # concentrated law: the cutoff condition 1/x - E[1/g] = 1 puts the
        # root near m/(m+1), and adaptation stops paying
        ch = end_to_end(Serial(hops=(Gamma(shape=500.0, mean_snr=3.0),)))
        solve = capacity.opra_cutoff_details(ch)
        assert solve.root == pytest.approx(0.75, abs=5e-3)
        opra = capacity.opra(ch)
        ora = capacity.ora(ch)
        assert abs(opra.capacity - ora.capacity) < 1e-3


class TestCifr:
    def test_gamma_shape_two(self, gamma2):
        r = capacity.cifr(gamma2)
        assert abs(r.capacity - CIFR_GAMMA2) <= r.quad_error
        assert r.quad_error < 1e-6
        assert r.diagnostic is None

    def test_divergent_inverse_moment_is_flagged(self, exp1):
        r = capacity.cifr(exp1)
        assert r.capacity == 0.0
        assert r.diagnostic == "divergent inverse-SNR moment"

    def test_barely_convergent_moment_stays_bracketed(self):
        # shape 1.001: E[1/g] = 1001; the tail's span ratio e^-0.001 is
        # a hair from divergence
        ch = end_to_end(Serial(hops=(Gamma(shape=1.001),)))
        r = capacity.cifr(ch)
        assert r.diagnostic is None
        assert r.quad_error < 1e-3
        assert abs(r.capacity - CIFR_GAMMA1001) <= r.quad_error

    def test_grid_law_against_continuous_closed_form(self):
        # branch minima Exp(rate 2) summed: Erlang(2, rate 2) = Gamma(2, mean 1),
        # so the grid route must land near the Gamma closed form
        ch = end_to_end(AllActive(branches=(
            (Exponential(1.0), Exponential(1.0)),
            (Exponential(1.0), Exponential(1.0)),
        )))
        r = capacity.cifr(ch)
        assert r.diagnostic is None
        assert r.capacity == pytest.approx(CIFR_GAMMA2, abs=2e-3)


def _gamma_gamma_inverse_moment(alpha, beta, xi, order):
    """E[1/X] = E[I^r] E[I^-r] of one GammaGamma hop at unit mean, with
    E[I^s] = Gamma(a+s) Gamma(b+s)/(Gamma(a) Gamma(b) (ab)^s) xi^2/(xi^2+s)."""
    def moment(s):
        return math.exp(math.lgamma(alpha + s) + math.lgamma(beta + s)
                        - math.lgamma(alpha) - math.lgamma(beta)
                        - s * math.log(alpha * beta)) * xi ** 2 / (xi ** 2 + s)
    return moment(order) * moment(-order)


class TestCifrOracles:
    """cifr on one GammaGamma hop against the closed-form inverse
    moment; near 0 the law is c x^(P-1) with P = min(a, b, xi^2)/r, and
    E[1/X] diverges when P <= 1."""

    @pytest.mark.parametrize("alpha, beta, xi, order", [
        (2.902, 2.51, 1.1, 1),
        (2.9, 2.5, 1.6, 2),
        (2.9, 2.5, 1.02, 1),
        (1.5, 1.5, 3.0, 1),  # coincident poles: a log factor at 0
    ])
    def test_closed_form(self, alpha, beta, xi, order):
        ch = end_to_end(Serial(hops=(GammaGamma(alpha, beta, xi, order),)))
        r = capacity.cifr(ch)
        truth = 0.5 / math.log(2.0) * math.log1p(
            1.0 / _gamma_gamma_inverse_moment(alpha, beta, xi, order))
        assert r.diagnostic is None
        assert abs(r.capacity - truth) <= r.quad_error

    @pytest.mark.parametrize("alpha, beta, xi, order", [
        (2.9, 0.8, 1.6, 1),
        (2.9, 2.5, 0.9, 1),
        (0.9, 0.9, 1.6, 1),  # the table's bottom cells are halved
        (2.9, 2.5, 1.1, 2),
    ])
    def test_divergent(self, alpha, beta, xi, order):
        ch = end_to_end(Serial(hops=(GammaGamma(alpha, beta, xi, order),)))
        r = capacity.cifr(ch)
        assert r.capacity == 0.0
        assert r.diagnostic == "divergent inverse-SNR moment"

    def test_fig1_serial2_unit_moment(self):
        from relaycap import cli

        topo = cli.topology_from_config(
            cli.load_config("fig1_serial2")["topology"])
        m, err = capacity._inverse_moment(cli._channel_factory(topo)(1.0))
        # mpmath, 20 digits
        assert abs(m - 20.5500196) <= err


def _gamma2_topology(kind):
    hop = Gamma(shape=2.0)
    if kind == "serial":
        return Serial(hops=(hop, hop))
    if kind == "selective":
        return Selective(branches=((hop, hop),) * 2)
    return AllActive(branches=((hop, hop),) * 2, grid_points=4096)


class TestScaledInverseMoment:
    """E[1/(cX)] = E[1/X]/c: a law scaled from unit mean inverts like the
    law built at that mean, from one table of the unit law."""

    @pytest.fixture(scope="class", params=["serial", "selective",
                                           "all_active"])
    def kind(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def unit(self, kind):
        return end_to_end(_gamma2_topology(kind))

    @pytest.mark.parametrize("c", [0.1, 10.0, 1000.0])
    def test_matches_the_law_built_at_that_mean(self, kind, unit, c):
        got = capacity.cifr(unit.scaled(c))
        want = capacity.cifr(end_to_end(_gamma2_topology(kind)
                                        .with_mean_snr(c)))
        assert got.diagnostic is None and want.diagnostic is None
        assert abs(got.capacity - want.capacity) <= \
            got.quad_error + want.quad_error

    def test_moment_divides_by_the_factor(self, unit):
        m1, e1 = capacity._inverse_moment(unit)
        m, e = capacity._inverse_moment(unit.scaled(8.0))
        assert m == m1 / 8.0 and e == e1 / 8.0
        assert unit.memo["inverse_moment"] == (m1, e1)


class TestTcifr:
    def test_exponential_unit_cutoff(self, exp1):
        r = capacity.tcifr(exp1, 1.0)
        assert abs(r.capacity - TCIFR_EXP1_CUT1) <= max(r.quad_error, 1e-9)
        assert r.cutoff == 1.0

    def test_far_cutoff_collapses_to_outage(self, exp1):
        r = capacity.tcifr(exp1, 25.0)
        assert r.capacity == pytest.approx(TCIFR_EXP1_CUT25, rel=1e-4)

    def test_cutoffs_off_the_table(self, exp1):
        low = capacity.tcifr(exp1, 1e-13)
        assert abs(low.capacity - TCIFR_EXP1_CUT1EM13) <= low.quad_error
        high = capacity.tcifr(exp1, 1e4)
        assert high.capacity == 0.0 and high.diagnostic is not None

    def test_cutoff_above_the_table_reads_no_law(self):
        # above the table the inverse moment is 0, so the no-mass result
        # comes without evaluating the law at the cutoff
        args = []

        def counting(fn):
            def law(x):
                args.append(np.size(x))
                return fn(x)
            return law

        ch = end_to_end(Serial(hops=(Exponential(1.0),)))
        ch = dataclasses.replace(ch, cdf=counting(ch.cdf),
                                 pdf=counting(ch.pdf))
        tab, _ = capacity._unit_table(ch)
        args.clear()
        r = capacity.tcifr(ch, 2.0 * math.exp(tab.edges[-1]))
        assert args == []
        assert r.capacity == 0.0 and r.quad_error == 0.0
        assert r.diagnostic == "no usable probability mass above the cutoff"

    def test_gamma_shape_two(self, gamma2):
        r = capacity.tcifr(gamma2, 0.5)
        assert r.capacity == pytest.approx(TCIFR_GAMMA2_CUT05, abs=1e-9)


class TestEffective:
    @pytest.mark.parametrize("delta", sorted(EFFECTIVE_EXP1))
    def test_exponential(self, exp1, delta):
        r = capacity.effective(exp1, delta)
        assert r.capacity == pytest.approx(EFFECTIVE_EXP1[delta], abs=1e-9)

    def test_small_delta_recovers_ora(self, gamma2):
        ora = capacity.ora(gamma2)
        eff = capacity.effective(gamma2, 1e-4)
        assert abs(eff.capacity - ora.capacity) < 1e-3
        assert eff.capacity < ora.capacity  # QoS can only cost capacity

    @pytest.mark.parametrize("delta", [1e-10, 1e-12, 1e-14])
    def test_tiny_delta_stays_at_or_below_ora(self, exp1, delta):
        # -log(1 - a*tail) loses the digits of a*tail that the difference
        # rounds away, and 1/d amplifies the loss; log1p keeps them
        ora = capacity.ora(exp1).capacity
        eff = capacity.effective(exp1, delta)
        assert 0.0 <= ora - eff.capacity <= 1e-6 * ora

    @pytest.mark.parametrize("snr_db", sorted(EFFECTIVE_EXP_LOW_SNR))
    def test_low_snr_matches_mpmath(self, exp1, snr_db):
        # 1 - E[(1+g)^-a] is of the order of the mean here, so only the
        # by-parts form keeps its relative digits
        ch = exp1.scaled(10.0 ** (snr_db / 10.0))
        want = EFFECTIVE_EXP_LOW_SNR[snr_db]
        eff = capacity.effective(ch, 1.0)
        assert eff.capacity == pytest.approx(want, rel=1e-12)
        assert eff.capacity <= capacity.ora(ch).capacity

    def test_monotone_in_delta(self, exp1):
        caps = [
            capacity.effective(exp1, d).capacity
            for d in (0.01, 0.1, 1.0, 10.0)
        ]
        assert caps == sorted(caps, reverse=True)


class TestEffectiveOnSmallExponentLaws:
    """One GammaGamma hop whose CDF falls like g^P near 0 with P = 0.25
    or 0.3.  Its unit-law table reaches far below where the contour
    density is accurate (about e^-35), so effective must not read the
    density there: it printed 0 with a 1e-14 error on both laws."""

    @pytest.mark.parametrize("hop,snrs", [
        (GammaGamma(2.0, 1.5, 0.5), (0.0, 20.0, 40.0)),
        (GammaGamma(4.0, 0.6, 0.8, detection_order=2), (0.0,)),
    ], ids=["P0.25", "P0.3"])
    def test_within_monte_carlo_error(self, hop, snrs):
        top = Serial(hops=(hop,))
        ch = end_to_end(top)
        req = PolicyRequest("effective", qos_delta=1.0)
        means = [10.0 ** (db / 10.0) for db in snrs]
        reports = simulate(top, SimConfig(samples=100_000, seed=7), [1.0],
                           [SimPoint(m, (req,)) for m in means])
        for mean, rep in zip(means, reports):
            scaled = ch.scaled(mean)
            got = capacity.effective(scaled, 1.0)
            est, se = rep.capacity_estimates[req.label]
            assert got.capacity > 0.0
            assert got.capacity <= capacity.ora(scaled).capacity
            assert abs(got.capacity - est) <= 4.0 * se, (mean, est, se)


class TestPolicySpec:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicySpec(name="waterfilling")

    def test_effective_needs_qos_delta(self):
        with pytest.raises(ValueError, match="qos_delta"):
            PolicySpec(name="effective")

    def test_qos_delta_only_for_effective(self):
        with pytest.raises(ValueError, match="does not apply"):
            PolicySpec(name="ora", qos_delta=1.0)

    def test_cutoff_only_for_tcifr(self):
        with pytest.raises(ValueError, match="does not apply"):
            PolicySpec(name="opra", cutoff=0.5)

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PolicySpec(name="tcifr", cutoff=0.0)

    def test_prelog_bounds(self):
        with pytest.raises(ValueError, match="prelog"):
            PolicySpec(name="ora", prelog=1.5)
        with pytest.raises(ValueError, match="prelog"):
            capacity.ora(end_to_end(Serial((Exponential(1.0),))), prelog=0.0)

    def test_labels(self):
        assert PolicySpec(name="ora").label == "ora"
        assert PolicySpec(name="effective", qos_delta=0.5).label \
            == "effective[delta=0.5]"


class TestOneCutoffSolvePerChannel:
    """opra, opra_cutoff, opra_cutoff_details and a cutoff-less tcifr
    read one cutoff solve, or its error, from the channel's memo."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = capacity._cutoff_solve

        def counted(ch):
            calls.append(ch)
            return solve(ch)

        monkeypatch.setattr(capacity, "_cutoff_solve", counted)
        return calls

    CALLS = (
        capacity.opra,
        capacity.opra_cutoff,
        capacity.opra_cutoff_details,
        lambda ch: evaluate(ch, PolicySpec(name="opra")),
        lambda ch: evaluate(ch, PolicySpec(name="tcifr")),
    )

    def test_every_cutoff_user_shares_one_solve(self, solves):
        ch = end_to_end(Serial(hops=(Exponential(1.0),)))
        results = [call(ch) for call in self.CALLS]
        assert len(solves) == 1
        root = results[1]
        assert results[0].cutoff == results[2].root == root
        assert results[3].cutoff == results[4].cutoff == root

    def test_a_failed_solve_raises_again_without_solving(self, solves):
        # no survival anywhere: the cutoff objective is -1 at every x
        ch = EndToEndChannel(cdf=np.ones_like, pdf=np.zeros_like)
        for call in self.CALLS:
            with pytest.raises(RootNotBracketed):
                call(ch)
        assert len(solves) == 1

    def test_scaled_channels_keep_their_own_cutoff(self, solves):
        # a cutoff is not scale-equivariant, so it is kept per channel,
        # not in the memo of the shared unit law
        unit = end_to_end(Serial(hops=(Exponential(1.0),)))
        roots = [capacity.opra_cutoff(unit.scaled(c)) for c in (1.0, 10.0)]
        assert len(solves) == 2
        assert roots[0] == pytest.approx(OPRA_CUTOFF_EXP1, abs=1e-9)
        assert roots[0] < roots[1]


class TestEvaluateAndSweep:
    def test_shared_cutoff_between_opra_and_tcifr(self, exp1):
        opra = evaluate(exp1, PolicySpec(name="opra"))
        tcifr = evaluate(exp1, PolicySpec(name="tcifr"))
        pinned = capacity.tcifr(exp1, opra.cutoff)
        assert tcifr.cutoff == opra.cutoff
        assert tcifr.capacity == pytest.approx(pinned.capacity, rel=1e-12)

    def test_sweep_covers_the_grid(self):
        hop = Exponential(1.0)
        factory = lambda mean: end_to_end(
            Serial(hops=(hop.with_mean_snr(mean),))
        )
        rows = sweep(factory, ["ora", "opra"], [0.0, 10.0])
        assert len(rows) == 4
        by_key = {(r.snr_db, r.policy): r for r in rows}
        assert by_key[(0.0, "ora")].result.capacity == pytest.approx(
            ORA_EXP1, abs=1e-9
        )
        assert by_key[(10.0, "opra")].result.cutoff is not None
        assert all(r.error is None for r in rows)

    def test_sweep_records_channel_failures_per_row(self):
        def factory(mean):
            raise RelayCapError(f"no channel at mean {mean:g}")

        rows = sweep(factory, ["ora", "cifr"], [0.0])
        assert all(r.result is None for r in rows)
        assert all("no channel" in r.error for r in rows)

    def test_sweep_rejects_empty_requests(self, exp1):
        with pytest.raises(ValueError):
            sweep(lambda m: exp1, [], [0.0])
        with pytest.raises(ValueError):
            sweep(lambda m: exp1, ["ora"], [])


class TestOrdering:
    """opra >= ora >= cifr, the paper-level ranking, spot-checked here."""

    @pytest.mark.parametrize("mean_db", [0.0, 15.0, 30.0])
    def test_gamma_chain(self, mean_db):
        mean = 10.0 ** (mean_db / 10.0)
        ch = end_to_end(Serial(hops=(
            Gamma(shape=2.0, mean_snr=mean), Gamma(shape=2.0, mean_snr=mean),
        )))
        opra = capacity.opra(ch)
        ora = capacity.ora(ch)
        cifr = capacity.cifr(ch)
        assert opra.capacity >= ora.capacity - (opra.quad_error
                                                + ora.quad_error)
        assert ora.capacity >= cifr.capacity - (ora.quad_error
                                                + cifr.quad_error)


class TestShippedOrderings:
    """Orderings that need no oracle, on each shipped config's law from
    -100 to 100 dB, each within the two cells' summed quad_error:
    opra >= ora (Goldsmith & Varaiya) and opra >= tcifr; ora >=
    effective[d] (Jensen), effective falling in d and positive wherever
    ora is; ora, opra, cifr and effective nondecreasing in SNR."""

    DELTAS = (0.1, 1.0, 10.0)
    GRID = [float(db) for db in range(-100, 101, 10)]

    @pytest.mark.parametrize("config", ["fig1_serial2", "fig1_selective3",
                                        "fig2_malaga", "fig3_dgg"])
    def test_orderings_hold(self, config):
        from relaycap import cli

        topo = cli.topology_from_config(cli.load_config(config)["topology"])
        effs = [PolicySpec("effective", qos_delta=d) for d in self.DELTAS]
        rows = sweep(cli._channel_factory(topo),
                     ["ora", "opra", "cifr", "tcifr", *effs], self.GRID)
        assert [r.error for r in rows if r.error] == []
        cell = {(r.snr_db, r.policy): r.result for r in rows}
        bad = []

        def at_least(hi, lo, where):
            if hi.capacity < lo.capacity - (hi.quad_error + lo.quad_error):
                bad.append((where, hi.capacity, lo.capacity))

        for snr in self.GRID:
            ora, opra = cell[snr, "ora"], cell[snr, "opra"]
            at_least(opra, ora, (snr, "opra >= ora"))
            at_least(opra, cell[snr, "tcifr"], (snr, "opra >= tcifr"))
            eff = [cell[snr, s.label] for s in effs]
            for s, e in zip(effs, eff):
                at_least(ora, e, (snr, f"ora >= {s.label}"))
                if ora.capacity > 0.0 and not e.capacity > 0.0:
                    bad.append(((snr, f"{s.label} > 0"), e.capacity, 0.0))
            for s, e, e_next in zip(effs, eff, eff[1:]):
                at_least(e, e_next, (snr, f"{s.label} falls in delta"))
        for name in ["ora", "opra", "cifr"] + [s.label for s in effs]:
            for lo, hi in zip(self.GRID, self.GRID[1:]):
                at_least(cell[hi, name], cell[lo, name],
                         (hi, f"{name} rises from {lo:g} dB"))
        assert bad == []


class TestTableOracles:
    """Every table route against mpmath, from -100 to 150 dB.

    Best-of-3 relay selection over two-hop Exponential(1) branches has
    S(x) = 1 - (1 - e^-2x)^3 = 3e^-2x - 3e^-4x + e^-6x on its unit law,
    so ora, opra, tcifr and the cutoff condition are sums of E1 terms,
    and effective capacity is one mpmath quadrature.  Each value must
    lie within its reported quad_error of the oracle.  At 150 dB the
    cutoff lies below the unit law's table.
    """

    TERMS = ((3, 2), (-3, 4), (1, 6))  # S(x) = sum a e^(-r x)

    @pytest.fixture(scope="class")
    def unit(self):
        return end_to_end(Selective(
            branches=((Exponential(1.0), Exponential(1.0)),) * 3))

    @pytest.fixture(scope="class", params=[-100.0, 0.0, 30.0, 100.0, 150.0])
    def case(self, request, unit):
        """The channel at the SNR point, m, the mpmath root y0 of the
        cutoff condition on the unit law, and the prelog / ln 2; mpmath
        works at 40 digits while the point's tests run."""
        import mpmath as mp

        dps, mp.mp.dps = mp.mp.dps, 40
        m = mp.mpf(10) ** (mp.mpf(request.param) / 10)
        lm = mp.log(m)

        def h(y):
            return sum(a * (mp.exp(-r * y) / y - r * mp.e1(r * y))
                       for a, r in self.TERMS)

        y0 = mp.exp(mp.findroot(lambda u: mp.log(h(mp.exp(u))) - lm,
                                (-40, 4), solver="anderson"))
        yield (unit.scaled(10.0 ** (request.param / 10.0)), m, y0,
               1 / (2 * mp.log(2)))
        mp.mp.dps = dps

    @staticmethod
    def within(got: float, want, err: float) -> None:
        assert abs(got - float(want)) <= err, (got, float(want), err)

    def test_ora(self, case):
        import mpmath as mp

        ch, m, _, pl = case
        want = pl * sum(a * mp.exp(r / m) * mp.e1(r / m)
                        for a, r in self.TERMS)
        r = capacity.ora(ch)
        self.within(r.capacity, want, r.quad_error)

    @pytest.mark.parametrize("delta", [1e-3, 1.0])
    def test_effective(self, case, delta):
        # delta 1e-3 takes the by-parts form everywhere, delta 1 the
        # density form from 0 dB up
        import mpmath as mp

        ch, m, _, pl = case
        a = delta * pl

        def gap(x):  # f(x) (1 - (1 + m x)^-a)
            f = sum(c * r * mp.exp(-r * x) for c, r in self.TERMS)
            return f * -mp.expm1(-a * mp.log1p(m * x))

        points = [0, 1 / m, 1, mp.inf] if m > 1 else [0, 1, 1 / m, mp.inf]
        want = -mp.log1p(-mp.quad(gap, points)) / delta
        r = capacity.effective(ch, delta)
        self.within(r.capacity, want, r.quad_error)

    def test_opra_and_its_cross_check(self, case):
        import mpmath as mp

        ch, _, y0, pl = case
        want = pl * sum(a * mp.e1(r * y0) for a, r in self.TERMS)
        r = capacity.opra(ch)
        self.within(r.capacity, want, r.quad_error)
        self.within(r.cross_check, want, r.quad_error)
        assert r.diagnostic is None

    def test_tcifr(self, case):
        import mpmath as mp

        ch, m, y0, pl = case
        t = sum(a * r * mp.e1(r * y0) for a, r in self.TERMS) / m
        coverage = sum(a * mp.exp(-r * y0) for a, r in self.TERMS)
        want = pl * mp.log1p(1 / t) * coverage
        r = capacity.evaluate(ch, PolicySpec(name="tcifr"))
        self.within(r.capacity, want, r.quad_error)

    def test_cutoff(self, case):
        # what the condition may be off by, h_err, moves the unit-law
        # root by h_err * y^2 / S(y); the root m*y rounds to a few ulp
        ch, m, y0, _ = case
        cut = capacity._cutoff(ch)
        y = cut.above.y
        bound = float(m) * cut.h_err * y * y / cut.above.survival[0]
        root = cut.solve.root
        assert abs(root - float(m * y0)) <= bound + 4 * np.finfo(float).eps * root
        assert cut.solve.residual <= 1e-10


class TestSmallShapeWeibull:
    """One Weibull hop of shape 0.1 or 0.4 against mpmath at 0 and 100 dB.

    Its CDF falls like x^shape toward the origin and its survival like
    exp(-x^shape), so the unit-law table widens well past its 32 unit
    cells.  With t = (x/scale)^shape the survival is e^-t: ora and
    effective are quadratures over ln t, opra is E1(t_y)/shape, and
    the cutoff condition is e^-t_y / y - Gamma(1 - 1/shape, t_y)/scale
    = m on the unit law.  Every error must also stay below 1e-10: a
    table that stopped short of the law's mass would charge the
    missing mass instead.
    """

    @pytest.fixture(scope="class",
                    params=[(k, db) for k in (0.1, 0.4) for db in (0.0, 100.0)])
    def case(self, request):
        """The channel, the shape k, ln(m scale) and the cutoff's t_y,
        with mpmath at 30 digits while the case's tests run."""
        import mpmath as mp

        from relaycap.fading import Weibull

        k, db = request.param
        dps, mp.mp.dps = mp.mp.dps, 30
        m = mp.mpf(10) ** (mp.mpf(db) / 10)
        scale = 1 / mp.gamma(1 + 1 / mp.mpf(k))

        def h(s):  # ln H(y) at t_y = e^s
            t = mp.exp(s)
            y = scale * t ** (1 / mp.mpf(k))
            return mp.log(mp.exp(-t) / y - mp.gammainc(1 - 1 / mp.mpf(k), t)
                          / scale)

        s_y = mp.findroot(lambda s: h(s) - mp.log(m), -k * mp.log(m * scale),
                          solver="secant")
        unit = end_to_end(Serial(hops=(Weibull(shape=k),)))
        yield unit.scaled(10.0 ** (db / 10.0)), k, mp.log(m * scale), \
            mp.exp(s_y)
        mp.mp.dps = dps

    @staticmethod
    def over_ln_t(k, c, kernel):
        """Integral over s = ln t of e^-t t kernel(e^(c + s/k)), where
        e^(c + s/k) = m x; the integrand's bend sits near s = -k c."""
        import mpmath as mp

        bend = min(-k * c, -5)
        return mp.quad(lambda s: mp.exp(s - mp.exp(s))
                       * kernel(mp.exp(c + s / k)),
                       [-90, bend - 20, bend, 0, 4])

    def test_ora(self, case):
        import mpmath as mp

        ch, k, c, _ = case
        # (pl/ln 2) E[ln(1 + m x)], by parts the integral of S m/(1 + m x)
        want = self.over_ln_t(k, c, mp.log1p) / (2 * mp.log(2))
        r = capacity.ora(ch)
        assert abs(r.capacity - float(want)) <= r.quad_error
        assert r.quad_error < 1e-10

    def test_effective(self, case):
        import mpmath as mp

        ch, k, c, _ = case
        a = 1 / (2 * mp.log(2))
        gap = self.over_ln_t(k, c, lambda mx: -mp.expm1(-a * mp.log1p(mx)))
        r = capacity.effective(ch, 1.0)
        assert abs(r.capacity - float(-mp.log1p(-gap))) <= r.quad_error
        assert r.quad_error < 1e-10

    def test_opra_and_its_cutoff(self, case):
        import mpmath as mp

        ch, k, c, t_y = case
        want = mp.e1(t_y) / (2 * mp.log(2) * k)
        r = capacity.opra(ch)
        assert r.diagnostic is None
        assert abs(r.capacity - float(want)) <= r.quad_error
        assert abs(r.cross_check - float(want)) <= r.quad_error
        assert r.quad_error < 1e-10
        # the root is m y = m scale t_y^(1/k)
        assert r.cutoff == pytest.approx(
            float(mp.exp(c) * t_y ** (1 / mp.mpf(k))), rel=1e-9)


class TestCutoffResidualCharge:
    """A cutoff condition left off by |G| moves opra by up to
    (prelog/ln 2) |G| cutoff, and tcifr by the matching term; both are
    charged to quad_error.  fig1_selective3 at 5 dB, with the root
    tightened to |G| ~ 1e-16 and loosened to |G| = 1e-10."""

    def test_loose_root_is_covered_by_its_error(self):
        from relaycap import cli

        topo = cli.topology_from_config(
            cli.load_config("fig1_selective3")["topology"])
        factory = cli._channel_factory(topo)
        m = 10.0 ** 0.5
        ch = factory(m)
        tab, _ = capacity._unit_table(ch)

        def at(y):
            above = tab.above(ch.unit, y)
            h, h_quad = above.h()
            return capacity._Cutoff(
                CutoffSolve(m * y, 1, abs(h / m - 1.0)), above,
                abs(h - m) + h_quad)

        y = capacity._cutoff(ch).above.y
        for _ in range(4):  # Newton in ln y to |G| ~ 1e-16
            above = tab.above(ch.unit, y)
            y *= math.exp((above.h()[0] - m) * y / above.survival[0])
        tight = at(y)
        loose = at(y * math.exp(-1e-10 * m * y / tight.above.survival[0]))
        assert tight.solve.residual < 1e-14
        assert loose.solve.residual == pytest.approx(1e-10, rel=1e-3)

        def run(cut, policy):
            fresh = factory(m)
            fresh.memo["cutoff"] = cut
            return policy(fresh)

        for policy in (capacity.opra, lambda c: capacity.tcifr(c, None)):
            near, far = run(tight, policy), run(loose, policy)
            moved = abs(far.capacity - near.capacity)
            assert moved <= far.quad_error
            # the move is the residual's, far beyond the quadrature error
            assert moved > 10.0 * near.quad_error


class TestExtremeSnr:
    """fig1_serial2 far from 0 dB: the unit-law table serves every SNR
    point, so only the cutoff's Newton panels depend on the mean."""

    @staticmethod
    def counted_unit():
        import dataclasses

        from relaycap import cli

        topo = cli.topology_from_config(
            cli.load_config("fig1_serial2")["topology"])
        unit = end_to_end(topo.with_mean_snr(1.0))
        args = []

        def counting(fn):
            def law(x):
                args.append(np.size(x))
                return fn(x)
            return law

        unit = dataclasses.replace(unit, cdf=counting(unit.cdf),
                                   pdf=counting(unit.pdf))
        return unit, args

    def sweep_point(self, snr_db):
        unit, args = self.counted_unit()
        rows = sweep(unit.scaled, ["ora", "opra", "cifr", "tcifr",
                                   PolicySpec("effective", qos_delta=1.0)],
                     [snr_db])
        return {r.policy: r for r in rows}, sum(args)

    def test_law_arguments_match_0_db_up_to_newton_panels(self):
        far, far_args = self.sweep_point(-100.0)
        near, near_args = self.sweep_point(0.0)
        assert all(r.error is None for r in (*far.values(), *near.values()))
        # each Newton panel evaluates S and f at 15 nodes and at y
        panels = far["opra"].result.iterations - near["opra"].result.iterations
        assert far_args - near_args == 32 * panels

    @staticmethod
    def moment_below(hops, y):
        """Inverse moment of a chain's unit law below y, from the leading
        residue of each hop's H rows: near 0 a hop's density is c g^p,
        with p = b/B of the lowest lower row and c that pole's residue,
        and the chain's density is the sum over its hops."""
        total = 0.0
        for hop in hops:
            h = hop.to_h()
            (b, bb), *rest = sorted(h.params.lower, key=lambda r: r[0] / r[1])
            p = b / bb
            c = h.kappa * h.delta ** p / bb \
                * math.prod(math.gamma(b_ - bb_ * p) for b_, bb_ in rest) \
                / math.prod(math.gamma(a - aa * p) for a, aa in h.params.upper)
            total += c * y ** p / p
        return total

    @pytest.mark.parametrize("snr_db", [300.0, 1000.0])
    def test_tcifr_meets_cifr_below_the_table(self, snr_db):
        # the cutoff, near 1/m, lies far below the table, where the
        # GammaGamma density no longer holds; the tail stands in for it.
        # tcifr leaves out the inverse moment below y = cutoff/m, so it
        # exceeds cifr by (prelog/ln 2) * (moment below y) / E[1/X]:
        # 1.07 y^0.21 here, 5.4e-7 at 300 dB and 1e-21 at 1000 dB
        from relaycap import cli

        unit, _ = self.counted_unit()
        rows = {r.policy: r.result
                for r in sweep(unit.scaled, ["cifr", "tcifr"], [snr_db])}
        cifr, tcifr = rows["cifr"], rows["tcifr"]
        topo = cli.topology_from_config(
            cli.load_config("fig1_serial2")["topology"])
        hops = topo.with_mean_snr(1.0).flat_hops()
        y = tcifr.cutoff / 10.0 ** (snr_db / 10.0)
        gap = PolicySpec("cifr").prelog / math.log(2.0) \
            * self.moment_below(hops, y) / capacity._inverse_moment(unit)[0]
        assert abs(tcifr.capacity - cifr.capacity - gap) <= \
            tcifr.quad_error + cifr.quad_error
        assert tcifr.quad_error < 1e-5 and cifr.quad_error < 1e-5

    def test_minus_300_db_raises_before_any_newton_panel(self):
        rows, args = self.sweep_point(-300.0)
        near, near_args = self.sweep_point(0.0)
        for name in ("opra", "tcifr"):
            assert "no power-adaptation cutoff above 1e-12" in rows[name].error
        assert args == near_args - 32 * near["opra"].result.iterations
        unit, _ = self.counted_unit()
        with pytest.raises(RootNotBracketed):
            capacity.opra_cutoff(unit.scaled(1e-30))
