"""Topology compositions against exponential closed forms and scipy laws."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats as st

from relaycap import capacity, cli, topology
from relaycap.errors import GridResolutionInsufficient
from relaycap.fading import Exponential, Gamma
from relaycap.topology import (
    AllActive,
    Selective,
    Serial,
    branch_cdf,
    branch_pdf,
    end_to_end,
    selective_cdf,
)

# closed forms for exponential hops, frozen
MIN2_EXP1_TAU1 = 0.8646647167633873       # 1 - e^-2
MARGINAL_PAIR_TAU1 = 0.39957640089372803  # (1 - e^-1)^2
MIN_RATE3_TAU07 = 0.8775435717470181      # 1 - e^-2.1
SEL2_MIXED_TAU09 = 0.778604595576906      # (1 - e^-2.7)(1 - e^-1.8)

TAUS = np.array([0.1, 0.4, 0.9, 1.7, 3.0])


class TestSerial:
    def test_two_exponential_hops(self):
        ch = end_to_end(Serial(hops=(Exponential(1.0), Exponential(1.0))))
        np.testing.assert_allclose(ch.cdf(TAUS), 1.0 - np.exp(-2.0 * TAUS),
                                   rtol=1e-12)
        np.testing.assert_allclose(ch.pdf(TAUS), 2.0 * np.exp(-2.0 * TAUS),
                                   rtol=1e-12)
        assert float(ch.cdf(1.0)) == pytest.approx(MIN2_EXP1_TAU1, rel=1e-14)
        assert ch.resolution_error == 0.0
        assert "serial chain of 2 hop(s)" == ch.description

    def test_mixed_rates(self):
        ch = end_to_end(Serial(hops=(Exponential(1.0), Exponential(0.5))))
        assert float(ch.cdf(0.7)) == pytest.approx(MIN_RATE3_TAU07, rel=1e-14)

    def test_single_hop_is_the_hop(self):
        hop = Gamma(shape=2.0)
        ch = end_to_end(Serial(hops=(hop,)))
        np.testing.assert_allclose(ch.cdf(TAUS), hop.cdf(TAUS), rtol=1e-12)

    def test_support_hint_covers_the_law(self):
        # the unit-law table is anchored at the law's 1 - 1e-6 quantile,
        # and its top edge lies at least 4 above that in u = ln x
        ch = end_to_end(Serial(hops=(Exponential(1.0), Exponential(1.0))))
        tab, _ = capacity._unit_table(ch)
        assert float(ch.cdf(math.exp(tab.edges[-1] - 4.0))) > 0.999

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            Serial(hops=())


class TestSelective:
    def test_single_branch_equals_pair_minimum(self):
        pair = (Exponential(1.0), Exponential(1.0))
        got = selective_cdf((pair,), 1.0)
        assert float(got) == pytest.approx(MIN2_EXP1_TAU1, rel=1e-14)

    def test_marginal_product_variant(self):
        pair = (Exponential(1.0), Exponential(1.0))
        got = selective_cdf((pair,), 1.0, formula="marginal_product")
        assert float(got) == pytest.approx(MARGINAL_PAIR_TAU1, rel=1e-14)

    def test_two_mixed_branches(self):
        branches = (
            (Exponential(1.0), Exponential(0.5)),
            (Exponential(2.0), Exponential(2.0 / 3.0)),
        )
        ch = end_to_end(Selective(branches=branches))
        assert float(ch.cdf(0.9)) == pytest.approx(SEL2_MIXED_TAU09,
                                                   rel=1e-12)

    def test_pdf_is_cdf_derivative(self):
        branches = ((Exponential(1.0), Exponential(0.7)),
                    (Exponential(1.3), Exponential(1.0)))
        ch = end_to_end(Selective(branches=branches))
        h = 1e-6
        for t in (0.3, 1.0, 2.2):
            fd = (float(ch.cdf(t + h)) - float(ch.cdf(t - h))) / (2.0 * h)
            assert float(ch.pdf(t)) == pytest.approx(fd, rel=1e-6)

    def test_sampler_matches_law(self):
        branches = ((Exponential(1.0), Exponential(0.5)),
                    (Exponential(2.0), Exponential(1.0)))
        topo = Selective(branches=branches)
        ch = end_to_end(topo)
        rng = np.random.Generator(np.random.Philox(17))
        draws = topo.combine([h.sample(rng, 20_000) for h in topo.flat_hops()])
        res = st.kstest(draws, lambda v: np.asarray(ch.cdf(v)))
        assert res.pvalue > 1e-3, res

    def test_unknown_formula_rejected(self):
        with pytest.raises(ValueError, match="formula"):
            Selective(branches=((Exponential(1.0), Exponential(1.0)),),
                      formula="paper_variant")

    def test_description_names_the_formula(self):
        ch = end_to_end(Selective(
            branches=((Exponential(1.0), Exponential(1.0)),),
            formula="marginal_product",
        ))
        assert "marginal_product" in ch.description


def _exponential_min(rate):
    """CDF and density of the minimum of exponential hops of total rate."""
    return lambda t: (-np.expm1(-rate * t), rate * np.exp(-rate * t))


def _max_of(*laws):
    """CDF and product-rule density of the max of independent laws."""
    def law(t):
        parts = [f(t) for f in laws]
        cdf = np.prod([c for c, _ in parts], axis=0)
        return cdf, sum(d * cdf / c for c, d in parts)
    return law


# a pair of exponential hops of rates 1 and 2; its minimum has rate 3
TAIL_PAIR = (Exponential(1.0), Exponential(0.5))
TAIL_LAWS = {
    "serial": (lambda: end_to_end(Serial(TAIL_PAIR)), _exponential_min(3.0)),
    "branch": (lambda: SimpleNamespace(
        cdf=lambda t: branch_cdf(TAIL_PAIR, t),
        pdf=lambda t: branch_pdf(TAIL_PAIR, t)), _exponential_min(3.0)),
    "selective exact": (
        lambda: end_to_end(Selective((TAIL_PAIR,) * 3)),
        _max_of(*[_exponential_min(3.0)] * 3)),
    # first hops: min of three rate-1 hops; second hops: three rate-2
    "marginal_product": (
        lambda: end_to_end(Selective((TAIL_PAIR,) * 3,
                                     formula="marginal_product")),
        _max_of(_exponential_min(3.0), _exponential_min(6.0))),
    "all-active one branch": (
        lambda: end_to_end(AllActive((TAIL_PAIR,))), _exponential_min(3.0)),
}


class TestLowerTail:
    """Every closed-form composition keeps its relative accuracy as the
    threshold goes to 0, where 1 - (1 - F1)(1 - F2) would cancel."""

    @pytest.mark.parametrize("tau", [1e-9, 1e-6, 1e-3, 0.5])
    @pytest.mark.parametrize("name", list(TAIL_LAWS))
    def test_matches_the_expm1_closed_form(self, name, tau):
        build, closed = TAIL_LAWS[name]
        law = build()
        np.testing.assert_allclose((law.cdf(tau), law.pdf(tau)),
                                   closed(np.float64(tau)),
                                   rtol=1e-13, atol=0.0)


class TestConvolution:
    # sizes from 2 up: for a length-1 input fftconvolve multiplies
    # directly, and the grid convolves branch masses of >= 16 bins
    @pytest.mark.parametrize("na,nb", [(2, 3), (5, 3), (16, 16), (100, 7),
                                       (1000, 999), (4096, 4096),
                                       (16384, 16384), (32767, 16384)])
    def test_matches_fftconvolve_bitwise(self, na, nb):
        from scipy.signal import fftconvolve
        rng = np.random.default_rng(na * 100_003 + nb)
        a, b = rng.random(na), rng.random(nb)
        assert np.array_equal(topology._convolve(a, b), fftconvolve(a, b))


class TestAllActive:
    def two_branch(self) -> AllActive:
        return AllActive(branches=(
            (Exponential(1.0), Exponential(1.0)),
            (Exponential(1.0), Exponential(1.0)),
        ))

    def test_grid_law_matches_erlang(self):
        # two branch minima Exp(rate 2); their sum is Erlang(2, rate 2)
        ch = end_to_end(self.two_branch())
        law = st.gamma(a=2, scale=0.5)
        xs = np.linspace(0.05, 6.0, 60)
        assert np.max(np.abs(ch.cdf(xs) - law.cdf(xs))) < 5e-4
        assert np.max(np.abs(ch.pdf(xs) - law.pdf(xs))) < 2e-3
        assert 0.0 < ch.resolution_error < 1e-5
        assert "2 active branch(es)" in ch.description

    def test_sampler_matches_grid_law(self):
        topo = self.two_branch()
        rng = np.random.Generator(np.random.Philox(23))
        draws = topo.combine([h.sample(rng, 20_000) for h in topo.flat_hops()])
        law = st.gamma(a=2, scale=0.5)
        res = st.kstest(draws, law.cdf)
        assert res.pvalue > 1e-3, res

    def test_single_branch_bypasses_the_grid(self):
        ch = end_to_end(AllActive(
            branches=((Exponential(1.0), Exponential(1.0)),)
        ))
        assert ch.description == "single active branch (hop-pair minimum)"
        assert ch.resolution_error == 0.0
        np.testing.assert_allclose(ch.cdf(TAUS), 1.0 - np.exp(-2.0 * TAUS),
                                   rtol=1e-12)

    def test_insufficient_grid_raises(self):
        bad = AllActive(branches=self.two_branch().branches,
                        grid_points=4096, mass_tol=1e-12)
        with pytest.raises(GridResolutionInsufficient,
                           match="grid_points does not change it"):
            end_to_end(bad)

    def test_lost_mass_does_not_depend_on_the_grid(self):
        # the lost mass is the branch laws' tail beyond the grid's cap,
        # the same at every bin count, so more bins cannot mend a failure
        coarse, fine = (end_to_end(AllActive(
            branches=self.two_branch().branches, grid_points=k))
            for k in (1024, 16384))
        assert coarse.resolution_error == pytest.approx(
            fine.resolution_error, rel=1e-9)
        assert coarse.resolution_error > 1e-6

    def test_tiny_grid_rejected_at_construction(self):
        with pytest.raises(ValueError) as exc:
            AllActive(branches=self.two_branch().branches, grid_points=8)
        assert str(exc.value) == ("grid_points must be an integer in "
                                  "[16, 1048576], got 8")

    def test_cdf_saturates_to_one(self):
        ch = end_to_end(self.two_branch())
        assert float(ch.cdf(1e9)) == pytest.approx(1.0, abs=1e-12)
        assert float(ch.cdf(0.0)) == 0.0


class TestScaledChannel:
    def test_scaled_chain_is_the_chain_at_that_mean(self):
        chain = Serial(hops=(Exponential(1.0), Exponential(1.0)))
        unit = end_to_end(chain)
        got = unit.scaled(10.0)
        want = end_to_end(chain.with_mean_snr(10.0))
        np.testing.assert_allclose(got.cdf(TAUS), want.cdf(TAUS),
                                   rtol=1e-12)
        np.testing.assert_allclose(got.pdf(TAUS), want.pdf(TAUS),
                                   rtol=1e-12)
        assert isinstance(got.cdf(1.0), float)
        assert got.cdf(1.0) == pytest.approx(unit.cdf(0.1), rel=1e-15)
        assert got.pdf(1.0) == pytest.approx(unit.pdf(0.1) / 10.0,
                                             rel=1e-15)
        assert got.resolution_error == unit.resolution_error
        assert got.description == unit.description

    def test_scaled_twice_shares_one_unit_law(self):
        unit = end_to_end(Serial(hops=(Exponential(1.0), Exponential(1.0))))
        once = unit.scaled(2.0)
        twice = once.scaled(5.0)
        assert once.unit is unit and twice.unit is unit
        assert twice.factor == 10.0
        assert twice.memo is not unit.memo
        np.testing.assert_array_equal(twice.cdf(TAUS),
                                      unit.scaled(10.0).cdf(TAUS))
        np.testing.assert_array_equal(twice.pdf(TAUS),
                                      unit.scaled(10.0).pdf(TAUS))

    def test_scaled_grid_keeps_its_lost_mass(self):
        unit = end_to_end(TestAllActive().two_branch())
        got = unit.scaled(100.0)
        assert got.resolution_error == unit.resolution_error > 0.0
        grid = np.array([[0.5, 1.0], [2.0, 4.0]])
        np.testing.assert_array_equal(got.cdf(100.0 * grid), unit.cdf(grid))
        assert got.cdf(100.0 * grid).shape == grid.shape


class TestHopEvaluations:
    def test_shared_hop_evaluated_once_per_batch(self, monkeypatch):
        hop = Exponential(1.0)
        ch = end_to_end(Selective(branches=((hop, hop),) * 3))
        calls = {"cdf": 0, "pdf": 0}

        def counting(kind):
            law = getattr(Exponential, kind)

            def counted(self, gamma):
                calls[kind] += 1
                return law(self, gamma)
            return counted

        for kind in calls:
            monkeypatch.setattr(Exponential, kind, counting(kind))
        ch.pdf(TAUS)
        assert calls == {"cdf": 1, "pdf": 1}
        calls.update(cdf=0, pdf=0)
        ch.cdf(TAUS)
        assert calls == {"cdf": 1, "pdf": 0}


def count_cdf_calls(monkeypatch, cls) -> dict:
    """Wrap ``cls.cdf`` so that each call is counted by its hop value."""
    calls: dict = {}
    law = cls.cdf

    def counted(self, gamma):
        calls[self] = calls.get(self, 0) + 1
        return law(self, gamma)

    monkeypatch.setattr(cls, "cdf", counted)
    return calls


class TestValueRule:
    """Equal hops and equal branches are one group by value, however
    they were built, so each distinct hop is evaluated once."""

    def test_equal_hop_instances_in_a_chain(self, monkeypatch):
        hops = tuple(Exponential(1.0) for _ in range(4)) + (Exponential(2.0),)
        assert len({id(h) for h in hops}) == 5
        ch = end_to_end(Serial(hops=hops))
        calls = count_cdf_calls(monkeypatch, Exponential)
        ch.cdf(TAUS)
        assert calls == {Exponential(1.0): 1, Exponential(2.0): 1}

    @pytest.mark.parametrize("spelled", ["tuples", "lists", "config"])
    def test_equal_branches_spelled_out(self, monkeypatch, spelled):
        if spelled == "config":
            hop = {"family": "exponential"}
            sel = cli.topology_from_config(
                {"kind": "selective", "branches": [[hop, hop]] * 3})
        else:
            pair = tuple if spelled == "tuples" else list
            sel = Selective(branches=[
                pair((Exponential(1.0), Exponential(1.0))) for _ in range(3)])
        calls = count_cdf_calls(monkeypatch, Exponential)
        end_to_end(sel).cdf(TAUS)
        assert list(calls.values()) == [1]

    @pytest.mark.parametrize("topo", [
        Serial(hops=(Exponential(1.0), Exponential(2.0), Exponential(1.0))),
        Selective(branches=((Exponential(1.0), Exponential(2.0)),
                            (Exponential(0.5), Exponential(3.0)))),
        AllActive(branches=((Exponential(1.0), Exponential(2.0)),
                            (Exponential(0.5), Exponential(3.0)),
                            (Exponential(1.0), Exponential(2.0)))),
    ], ids=["serial", "selective", "all_active"])
    def test_combine_folds_a_generator_like_a_list(self, topo):
        rng = np.random.default_rng(5)
        draws = [h.sample(rng, 1000) for h in topo.flat_hops()]
        # combine owns and overwrites its draws: each fold gets copies
        folded = topo.combine(d.copy() for d in draws)
        listed = topo.combine([d.copy() for d in draws])
        assert folded.tobytes() == listed.tobytes()


class TestInterning:
    def test_serial_shares_equal_hops(self):
        s = Serial(hops=(Exponential(1.0), Exponential(1.0)))
        assert s.hops[0] is s.hops[1]

    def test_selective_shares_across_branches(self):
        s = Selective(branches=(
            (Exponential(1.0), Exponential(0.5)),
            (Exponential(1.0), Exponential(0.5)),
        ))
        assert s.branches[0][0] is s.branches[1][0]
        assert s.branches[0][1] is s.branches[1][1]
        # equal branches share one pair, so the max rule takes a power
        assert s.branches[0] is s.branches[1]

    def test_distinct_parameters_stay_distinct(self):
        s = Serial(hops=(Exponential(1.0), Exponential(2.0)))
        assert s.hops[0] is not s.hops[1]


class TestMeanScaling:
    def test_with_mean_snr_rescales_every_hop(self):
        base = Serial(hops=(Exponential(1.0), Exponential(1.0)))
        scaled = base.with_mean_snr(10.0)
        ch = end_to_end(scaled)
        np.testing.assert_allclose(
            ch.cdf(TAUS), 1.0 - np.exp(-2.0 * TAUS / 10.0), rtol=1e-12
        )

    def test_flat_hops_order_matches_combine(self):
        sel = Selective(branches=(
            (Exponential(1.0), Exponential(0.5)),
            (Exponential(2.0), Exponential(1.0)),
        ))
        hops = sel.flat_hops()
        assert [h.mean for h in hops] == [1.0, 0.5, 2.0, 1.0]
        draws = [np.full(3, 1.0), np.full(3, 2.0),
                 np.full(3, 5.0), np.full(3, 0.25)]
        # branch minima 1.0 and 0.25; best branch 1.0
        np.testing.assert_array_equal(sel.combine(draws), np.full(3, 1.0))
