"""Composition of per-hop models into end-to-end SNR channels.

A regenerative multihop link is limited by its weakest hop, so the
serial end-to-end SNR is the minimum over hops.  Relay branches that
are selected or summed combine the per-branch minima by max or by
convolution respectively.  Each topology's ``combine`` realises the
physical recipe (min / max of min / sum of min) over per-hop draws
taken in ``flat_hops`` order; Monte Carlo samples through it,
independent of the analytic CDF route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.signal import fftconvolve

from .errors import GridResolutionInsufficient
from .fading import FadingModel, _apply
from .quadrature import quantile_search

BranchPair = tuple[FadingModel, FadingModel]


def serial_cdf(hops: Sequence[FadingModel], tau):
    """Outage CDF of a chain: 1 - prod_n (1 - F_n(tau))."""
    def f(t):
        log_sf = np.zeros_like(t)
        for hop, count in _grouped(hops):
            c = np.minimum(hop.cdf(t), 1.0)
            with np.errstate(divide="ignore"):
                log_sf += count * np.log1p(-c)
        return -np.expm1(log_sf)

    return _apply(tau, f)


def serial_pdf(hops: Sequence[FadingModel], tau):
    """Density of the chain minimum by the product rule."""
    groups = _grouped(hops)

    def f(t):
        sfs = [np.maximum(1.0 - hop.cdf(t), 0.0) for hop, _ in groups]
        pdfs = [hop.pdf(t) for hop, _ in groups]
        total = np.zeros_like(t)
        for i, (_, count) in enumerate(groups):
            other = np.ones_like(t)
            for j, (_, cj) in enumerate(groups):
                power = cj - 1 if j == i else cj
                if power:
                    other = other * sfs[j] ** power
            total += count * pdfs[i] * other
        return total

    return _apply(tau, f)


def branch_cdf(pair: BranchPair, tau):
    """CDF of min(hop1, hop2): 1 - (1-F1)(1-F2)."""
    return _apply(tau, lambda t: _branch_cdf(pair, _hop_sf(pair, t)))


def branch_pdf(pair: BranchPair, tau):
    return _apply(tau, lambda t: _branch_pdf(
        pair, _hop_sf(pair, t), _hop_pdf(pair, t)))


def _hop_sf(hops: Sequence[FadingModel], t: np.ndarray) -> dict[int, np.ndarray]:
    """Clipped survival 1 - min(F, 1) of each distinct hop, by identity."""
    return {id(h): 1.0 - np.minimum(h.cdf(t), 1.0) for h, _ in _grouped(hops)}


def _hop_pdf(hops: Sequence[FadingModel], t: np.ndarray) -> dict[int, np.ndarray]:
    """Density of each distinct hop, by identity."""
    return {id(h): h.pdf(t) for h, _ in _grouped(hops)}


def _branch_cdf(pair: BranchPair, sf: dict) -> np.ndarray:
    first, second = pair
    s1 = sf[id(first)]
    s2 = s1 if second is first else sf[id(second)]
    return 1.0 - s1 * s2


def _branch_pdf(pair: BranchPair, sf: dict, pdf: dict) -> np.ndarray:
    first, second = pair
    s1 = sf[id(first)]
    if second is first:
        return 2.0 * pdf[id(first)] * s1
    return pdf[id(first)] * sf[id(second)] + pdf[id(second)] * s1


def selective_cdf(branches: Sequence[BranchPair], tau, *, formula: str = "exact"):
    """CDF of the best branch.

    ``exact`` treats each branch as the min of its two hops and takes
    the distribution of the max of those minima.  ``marginal_product``
    multiplies the two marginal all-hop outage factors instead, which
    is *not* the distribution of any function of the hop draws; it is
    kept selectable for comparison studies.
    """
    _check_formula(formula)
    hops = _flat(branches)
    if formula == "exact":
        def f(t):
            sf = _hop_sf(hops, t)
            out = np.ones_like(t)
            for pair in branches:
                out = out * _branch_cdf(pair, sf)
            return out
    else:
        def f(t):
            sf = _hop_sf(hops, t)
            u = np.ones_like(t)
            v = np.ones_like(t)
            for first, second in branches:
                u = u * sf[id(first)]
                v = v * sf[id(second)]
            return (1.0 - u) * (1.0 - v)

    return _apply(tau, f)


def selective_pdf(branches: Sequence[BranchPair], tau, *, formula: str = "exact"):
    _check_formula(formula)
    hops = _flat(branches)
    if formula == "exact":
        def f(t):
            sf, pdf = _hop_sf(hops, t), _hop_pdf(hops, t)
            cdfs = [_branch_cdf(p, sf) for p in branches]
            pdfs = [_branch_pdf(p, sf, pdf) for p in branches]
            total = np.zeros_like(t)
            for i in range(len(branches)):
                other = np.ones_like(t)
                for j, c in enumerate(cdfs):
                    if j != i:
                        other = other * c
                total += pdfs[i] * other
            return total
    else:
        def f(t):
            sf, pdf = _hop_sf(hops, t), _hop_pdf(hops, t)
            s1 = [sf[id(p[0])] for p in branches]
            s2 = [sf[id(p[1])] for p in branches]
            f1 = [pdf[id(p[0])] for p in branches]
            f2 = [pdf[id(p[1])] for p in branches]
            u = np.ones_like(t)
            v = np.ones_like(t)
            for a, b in zip(s1, s2):
                u, v = u * a, v * b
            du = np.zeros_like(t)
            dv = np.zeros_like(t)
            for i in range(len(branches)):
                oth_u = np.ones_like(t)
                oth_v = np.ones_like(t)
                for j in range(len(branches)):
                    if j != i:
                        oth_u = oth_u * s1[j]
                        oth_v = oth_v * s2[j]
                du += f1[i] * oth_u
                dv += f2[i] * oth_v
            return du * (1.0 - v) + (1.0 - u) * dv

    return _apply(tau, f)


def _check_formula(formula: str) -> None:
    if formula not in ("exact", "marginal_product"):
        raise ValueError(
            f"formula must be 'exact' or 'marginal_product', got {formula!r}"
        )


def _grouped(hops: Sequence[FadingModel]) -> list[tuple[FadingModel, int]]:
    """Collapse repeated hops so their factors are powers.

    Repeats are found by identity: construction interns equal hops into
    one object (see ``_intern_hops``).
    """
    groups: list[tuple[FadingModel, int]] = []
    for hop in hops:
        for i, (seen, count) in enumerate(groups):
            if seen is hop:
                groups[i] = (seen, count + 1)
                break
        else:
            groups.append((hop, 1))
    return groups


def _flat(branches: Sequence[BranchPair]) -> tuple[FadingModel, ...]:
    return tuple(h for pair in branches for h in pair)


def _intern_one(model: FadingModel, seen: list[FadingModel]) -> FadingModel:
    for s in seen:
        if s == model:
            return s
    seen.append(model)
    return model


def _intern_hops(hops: Sequence[FadingModel]) -> tuple[FadingModel, ...]:
    """Replace equal hop models by one shared instance.

    Model instances memoize contours and quantile grids, so equal hops
    must alias a single object to share that work.
    """
    seen: list[FadingModel] = []
    return tuple(_intern_one(h, seen) for h in hops)


def _intern_pairs(branches: Sequence[BranchPair]) -> tuple[BranchPair, ...]:
    flat = _intern_hops(_flat(branches))
    return tuple(zip(flat[::2], flat[1::2]))


@dataclass(frozen=True)
class Serial:
    """Chain of regenerative hops; end-to-end SNR is the hop minimum."""

    hops: tuple[FadingModel, ...]

    def __post_init__(self):
        if not self.hops:
            raise ValueError("a serial chain needs at least one hop")
        object.__setattr__(self, "hops", _intern_hops(self.hops))

    def flat_hops(self) -> tuple[FadingModel, ...]:
        return tuple(self.hops)

    def with_mean_snr(self, mean_snr: float) -> "Serial":
        return Serial(tuple(h.with_mean_snr(mean_snr) for h in self.hops))

    def combine(self, draws: list[np.ndarray]) -> np.ndarray:
        return np.minimum.reduce(draws)


class _Branched:
    """Hop order, mean scaling and branch minima of two-hop branches."""

    def flat_hops(self) -> tuple[FadingModel, ...]:
        return _flat(self.branches)

    def with_mean_snr(self, mean_snr: float):
        return replace(self, branches=tuple(
            (a.with_mean_snr(mean_snr), b.with_mean_snr(mean_snr))
            for a, b in self.branches
        ))

    def _branch_minima(self, draws: list[np.ndarray]) -> list[np.ndarray]:
        return [np.minimum(draws[2 * i], draws[2 * i + 1])
                for i in range(len(self.branches))]


@dataclass(frozen=True)
class Selective(_Branched):
    """Two-hop relay branches; the strongest branch minimum is used."""

    branches: tuple[BranchPair, ...]
    formula: str = "exact"

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a selective system needs at least one branch")
        _check_formula(self.formula)
        object.__setattr__(self, "branches", _intern_pairs(self.branches))

    def combine(self, draws: list[np.ndarray]) -> np.ndarray:
        return np.maximum.reduce(self._branch_minima(draws))


@dataclass(frozen=True)
class AllActive(_Branched):
    """Two-hop relay branches transmitting together; branch minima add."""

    branches: tuple[BranchPair, ...]
    grid_points: int = 1 << 14
    mass_tol: float = 1e-4

    def __post_init__(self):
        if not self.branches:
            raise ValueError("an all-active system needs at least one branch")
        if self.grid_points < 16:
            raise ValueError("grid_points too small to resolve a density")
        object.__setattr__(self, "branches", _intern_pairs(self.branches))

    def combine(self, draws: list[np.ndarray]) -> np.ndarray:
        return np.add.reduce(self._branch_minima(draws))


Topology = Serial | Selective | AllActive


@dataclass(frozen=True)
class EndToEndChannel:
    """Evaluated end-to-end SNR law of a topology.

    ``resolution_error`` reports probability mass lost to any grid
    discretisation (zero for the closed compositions); capacity
    integrals fold it into their reported error.
    """

    cdf: Callable
    pdf: Callable
    support_hint: float
    resolution_error: float = 0.0
    description: str = ""

    def scaled(self, factor: float) -> "EndToEndChannel":
        """Law of ``factor * X`` for this channel's SNR ``X``.

        Every catalog law is a scale family in its mean SNR, so a law
        built at unit mean serves mean ``factor`` exactly this way; the
        grid's lost mass does not depend on the scale.
        """
        cdf, pdf = self.cdf, self.pdf
        return replace(
            self,
            cdf=lambda t: _apply(t, lambda x: cdf(x / factor)),
            pdf=lambda t: _apply(t, lambda x: pdf(x / factor) / factor),
            support_hint=self.support_hint * factor,
        )


_SUPPORT_QUANTILE = 1.0 - 1e-6


def _support_hint(cdf, start: float) -> float:
    return quantile_search(cdf, _SUPPORT_QUANTILE, start=max(start, 1e-6))


def end_to_end(topology: Topology) -> EndToEndChannel:
    """Build the end-to-end channel law for a topology."""
    if isinstance(topology, Serial):
        hops = topology.hops
        cdf = lambda t: serial_cdf(hops, t)
        pdf = lambda t: serial_pdf(hops, t)
        hint = _support_hint(cdf, min(h.mean for h in hops))
        return EndToEndChannel(
            cdf=cdf, pdf=pdf, support_hint=hint,
            description=f"serial chain of {len(hops)} hop(s)",
        )
    if isinstance(topology, Selective):
        branches, formula = topology.branches, topology.formula
        cdf = lambda t: selective_cdf(branches, t, formula=formula)
        pdf = lambda t: selective_pdf(branches, t, formula=formula)
        hint = _support_hint(cdf, max(h.mean for h in topology.flat_hops()))
        return EndToEndChannel(
            cdf=cdf, pdf=pdf, support_hint=hint,
            description=(
                f"best of {len(branches)} relay branch(es), {formula} form"
            ),
        )
    if isinstance(topology, AllActive):
        return _all_active_channel(topology)
    raise TypeError(f"unknown topology {type(topology).__name__}")


def _all_active_channel(topology: AllActive) -> EndToEndChannel:
    """Convolve branch-minimum laws on a shared uniform grid.

    Branch masses are taken as CDF increments over the bins, which
    keeps integrable edge singularities honest; the convolution then
    works with probability masses rather than density samples.
    """
    branches = topology.branches
    if len(branches) == 1:
        # a one-branch sum is the branch law itself; skipping the grid
        # keeps its exact tail behaviour (a grid law cuts off the
        # origin, which would hide a divergent inverse moment)
        pair = branches[0]
        cdf = lambda t: branch_cdf(pair, t)
        pdf = lambda t: branch_pdf(pair, t)
        hint = _support_hint(cdf, max(pair[0].mean, pair[1].mean))
        return EndToEndChannel(
            cdf=cdf, pdf=pdf, support_hint=hint,
            description="single active branch (hop-pair minimum)",
        )
    k = topology.grid_points
    distinct = {(id(a), id(b)): (a, b) for a, b in branches}
    per_branch_cap = max(
        _support_hint(lambda t: branch_cdf(pair, t),
                      max(pair[0].mean, pair[1].mean))
        for pair in distinct.values()
    )
    edges = np.linspace(0.0, per_branch_cap, k + 1)
    step = edges[1] - edges[0]

    mass = None
    branch_masses: dict[int, np.ndarray] = {}
    for pair in branches:
        key = (id(pair[0]), id(pair[1]))
        m = branch_masses.get(key)
        if m is None:
            c = np.asarray(branch_cdf(pair, edges))
            m = np.maximum(np.diff(c), 0.0)
            branch_masses[key] = m
        mass = m if mass is None else np.maximum(fftconvolve(mass, m), 0.0)

    total = float(mass.sum())
    deficit = 1.0 - total
    if deficit > topology.mass_tol:
        raise GridResolutionInsufficient(
            f"convolution grid keeps {total:.6f} of the probability mass; "
            f"raise grid_points above {k}"
        )
    # Renormalise the kept mass so downstream expectations see a proper
    # law; the deficit stays visible as resolution_error.
    mass = mass / total

    # Bin i spans [i*step, (i+1)*step); cumulative mass sits on the edges.
    cum = np.concatenate([[0.0], np.cumsum(mass)])
    cum_edges = np.arange(len(cum)) * step
    centers = (np.arange(len(mass)) + 0.5) * step
    density = mass / step

    def cdf(t):
        return _apply(t, lambda x: np.interp(
            x, cum_edges, cum, left=0.0, right=cum[-1]))

    def pdf(t):
        return _apply(t, lambda x: np.interp(
            x, centers, density, left=0.0, right=0.0))

    target = _SUPPORT_QUANTILE * cum[-1]
    idx = min(int(np.searchsorted(cum, target)), len(cum_edges) - 1)
    hint = float(cum_edges[idx]) if cum[-1] > 0 else per_branch_cap

    return EndToEndChannel(
        cdf=cdf, pdf=pdf, support_hint=hint,
        resolution_error=max(deficit, 0.0),
        description=(
            f"sum of {len(branches)} active branch(es) on a "
            f"{k}-bin grid"
        ),
    )
