"""Composition of per-hop models into end-to-end SNR channels.

A regenerative multihop link is limited by its weakest hop, so the
serial end-to-end SNR is the minimum over hops.  Relay branches that
are selected or summed combine the per-branch minima by max or by
convolution respectively.  Every closed form is one law for the
minimum of independent hops (``_min_law``: a log-survival CDF, exact
in the lower tail, and its product-rule density) and one product rule
for the maximum (``_product_law``).  A chain or a branch is a minimum;
a selective system is the maximum of its branch minima or, in the
marginal-product variant, of the first-hop and second-hop minima.
Each topology's ``combine`` realises the physical recipe (min / max
of min / sum of min) over per-hop draws taken in ``flat_hops`` order,
folding any iterable of them one draw at a time into the first draw of
its branch, which it owns and overwrites; Monte Carlo samples through
it, independent of the analytic CDF route.

Hop models and branch pairs hash by value, so equal hops, or equal
branches, are one group whose factor is a power: each distinct hop is
evaluated once.  Construction keeps the first of any equal entries, so
repeats also share one instance and the per-instance memos of a model.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import GridResolutionInsufficient, check_number
from .fading import FadingModel, _apply
from .quadrature import quantile_search

BranchPair = tuple[FadingModel, FadingModel]


def serial_cdf(hops: Sequence[FadingModel], tau):
    """Outage CDF of a chain: 1 - prod_n (1 - F_n(tau))."""
    return _apply(tau, lambda t: _min_law(hops, _hop_laws(hops, t, False))[0])


def serial_pdf(hops: Sequence[FadingModel], tau):
    """Density of the chain minimum by the product rule."""
    return _apply(tau, lambda t: _min_law(hops, _hop_laws(hops, t, True))[1])


def branch_cdf(pair: BranchPair, tau):
    """CDF of min(hop1, hop2), the chain law of the pair."""
    return serial_cdf(pair, tau)


def branch_pdf(pair: BranchPair, tau):
    return serial_pdf(pair, tau)


def selective_cdf(branches: Sequence[BranchPair], tau, *, formula: str = "exact"):
    """CDF of the best branch.

    ``exact`` treats each branch as the min of its two hops and takes
    the distribution of the max of those minima.  ``marginal_product``
    takes the max of the chain minima of all first hops and of all
    second hops instead, which is *not* the distribution of any
    function of the hop draws; it is kept selectable for comparison
    studies.
    """
    _check_formula(formula)
    return _apply(tau, lambda t: _selective_law(branches, formula, t, False)[0])


def selective_pdf(branches: Sequence[BranchPair], tau, *, formula: str = "exact"):
    _check_formula(formula)
    return _apply(tau, lambda t: _selective_law(branches, formula, t, True)[1])


def _selective_law(branches, formula: str, t: np.ndarray, density: bool):
    """Max over the branch minima, or over the first-hop and second-hop
    minima for ``marginal_product``."""
    laws = _hop_laws(_flat(branches), t, density)
    chains = branches if formula == "exact" else tuple(zip(*branches))
    return _product_law([(*_min_law(chain, laws), count)
                         for chain, count in Counter(chains).items()])


def _hop_laws(hops: Sequence[FadingModel], t: np.ndarray, density: bool):
    """Clipped CDF min(F, 1) and, if ``density``, the density of each
    distinct hop at ``t``, keyed by the hop: one evaluation per hop."""
    return {h: (np.minimum(h.cdf(t), 1.0), h.pdf(t) if density else None)
            for h in dict.fromkeys(hops)}


def _min_law(hops: Sequence[FadingModel], laws: dict):
    """CDF and density of the minimum of independent hops.

    With S = 1 - F per distinct hop and c its repeat count, the CDF is
    1 - prod S^c, taken as -expm1(sum c log1p(-F)) so that it keeps its
    relative accuracy in the lower tail.  The density is the product
    rule on the survivals (None when ``laws`` carries no densities).
    """
    groups = Counter(hops).items()
    log_sf = np.zeros_like(laws[hops[0]][0])
    for hop, count in groups:
        with np.errstate(divide="ignore"):
            log_sf += count * np.log1p(-laws[hop][0])
    survivals = [(1.0 - laws[h][0], laws[h][1], c) for h, c in groups]
    return -np.expm1(log_sf), _product_law(survivals)[1]


def _product_law(factors):
    """prod F^c over (F, f, c) factors and its product-rule derivative.

    For CDFs F with densities f this is the law of the maximum of
    independent variables, c copies each.  For survivals S with the
    hop densities f it is the survival of their minimum and, since
    each f is -dS/dt, that minimum's density.  The derivative is None
    when the densities are.
    """
    product = np.ones_like(factors[0][0])
    for value, _, count in factors:
        product = product * value ** count
    if factors[0][1] is None:
        return product, None
    total = np.zeros_like(product)
    for i, (_, rate, count) in enumerate(factors):
        other = np.ones_like(product)
        for j, (value, _, cj) in enumerate(factors):
            power = cj - 1 if j == i else cj
            if power:
                other = other * value ** power
        total += count * rate * other
    return product, total


def _check_formula(formula: str) -> None:
    if formula not in ("exact", "marginal_product"):
        raise ValueError(
            f"formula must be 'exact' or 'marginal_product', got {formula!r}"
        )


def _flat(branches: Sequence[BranchPair]) -> tuple[FadingModel, ...]:
    return tuple(h for pair in branches for h in pair)


def _first_of_equals(items) -> tuple:
    """``items`` with each entry replaced by the first entry equal to it,
    so that repeats share one instance and the memos it keeps."""
    first: dict = {}
    return tuple(first.setdefault(x, x) for x in items)


def _first_pairs(branches: Sequence[BranchPair]) -> tuple[BranchPair, ...]:
    """Branches as pairs in which equal hops, then equal pairs, share one
    instance; a pair may be given as a list."""
    hops = _first_of_equals(_flat(branches))
    return _first_of_equals(zip(hops[::2], hops[1::2]))


def _into(ufunc) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``ufunc(a, b)`` written over ``a``: a fold that owns its draws
    keeps one accumulator instead of a new array per step."""
    return lambda a, b: ufunc(a, b, out=a)


@dataclass(frozen=True)
class Serial:
    """Chain of regenerative hops; end-to-end SNR is the hop minimum."""

    hops: tuple[FadingModel, ...]

    def __post_init__(self):
        if not self.hops:
            raise ValueError("a serial chain needs at least one hop")
        object.__setattr__(self, "hops", _first_of_equals(self.hops))

    def flat_hops(self) -> tuple[FadingModel, ...]:
        return tuple(self.hops)

    def with_mean_snr(self, mean_snr: float) -> "Serial":
        return Serial(tuple(h.with_mean_snr(mean_snr) for h in self.hops))

    def combine(self, draws: Iterable[np.ndarray]) -> np.ndarray:
        """Minimum of the draws, folded into (and overwriting) the first."""
        return functools.reduce(_into(np.minimum), draws)


class _Branched:
    """Hop order, mean scaling and branch minima of two-hop branches."""

    def flat_hops(self) -> tuple[FadingModel, ...]:
        return _flat(self.branches)

    def with_mean_snr(self, mean_snr: float):
        return replace(self, branches=tuple(
            (a.with_mean_snr(mean_snr), b.with_mean_snr(mean_snr))
            for a, b in self.branches
        ))

    @staticmethod
    def _branch_minima(draws: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Minimum of each consecutive pair of draws, one pair at a time,
        written into the first of the pair."""
        draw = iter(draws)
        return map(_into(np.minimum), draw, draw)


@dataclass(frozen=True)
class Selective(_Branched):
    """Two-hop relay branches; the strongest branch minimum is used."""

    branches: tuple[BranchPair, ...]
    formula: str = "exact"

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a selective system needs at least one branch")
        _check_formula(self.formula)
        object.__setattr__(self, "branches", _first_pairs(self.branches))

    def combine(self, draws: Iterable[np.ndarray]) -> np.ndarray:
        """Largest branch minimum, folded into the first hop's draw."""
        return functools.reduce(_into(np.maximum), self._branch_minima(draws))


@dataclass(frozen=True)
class AllActive(_Branched):
    """Two-hop relay branches transmitting together; branch minima add."""

    branches: tuple[BranchPair, ...]
    grid_points: int = 1 << 14
    mass_tol: float = 1e-4

    # fig2_malaga's grid builds in about 2 s and 220 MiB at 2**20 bins
    # on 2 cores; four times the bins took 10 s and 750 MiB
    MAX_GRID_POINTS = 1 << 20

    def __post_init__(self):
        if not self.branches:
            raise ValueError("an all-active system needs at least one branch")
        check_number("grid_points", self.grid_points, 16,
                     self.MAX_GRID_POINTS, ends="[]", integer=True)
        check_number("mass_tol", self.mass_tol, 0.0, 1.0)
        object.__setattr__(self, "branches", _first_pairs(self.branches))

    def combine(self, draws: Iterable[np.ndarray]) -> np.ndarray:
        """Sum of the branch minima, folded into the first hop's draw."""
        return functools.reduce(_into(np.add), self._branch_minima(draws))


Topology = Serial | Selective | AllActive


@dataclass(frozen=True)
class EndToEndChannel:
    """Evaluated end-to-end SNR law of a topology.

    ``resolution_error`` reports probability mass lost to any grid
    discretisation (zero for the closed compositions); capacity
    integrals fold it into their reported error.  A channel made by
    ``scaled`` is the law of ``factor * X`` for the SNR ``X`` of its
    ``unit`` channel; ``memo`` keeps quantities derived from a law.
    Capacity stores its table of the law (anchored at the law's
    1 - 1e-6 quantile, which the table searches itself) and the
    inverse-SNR moment in the unit law's memo, so every channel scaled
    from it reads the same entries, and the opra cutoff, which does not
    scale, in each channel's own memo.
    """

    cdf: Callable
    pdf: Callable
    resolution_error: float = 0.0
    description: str = ""
    unit: EndToEndChannel | None = field(default=None, repr=False,
                                         compare=False)
    factor: float = 1.0
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def scaled(self, factor: float) -> "EndToEndChannel":
        """Law of ``factor * X`` for this channel's SNR ``X``.

        Every catalog law is a scale family in its mean SNR, so a law
        built at unit mean serves mean ``factor`` exactly this way; the
        grid's lost mass does not depend on the scale.  Scaling a
        scaled channel rescales its unit law by the product of the
        factors.
        """
        unit = self if self.unit is None else self.unit
        factor = self.factor * factor
        cdf, pdf = unit.cdf, unit.pdf
        return replace(
            unit,
            cdf=lambda t: _apply(t, lambda x: cdf(x / factor)),
            pdf=lambda t: _apply(t, lambda x: pdf(x / factor) / factor),
            unit=unit,
            factor=factor,
        )


_SUPPORT_QUANTILE = 1.0 - 1e-6


def _support_hint(cdf, start: float) -> float:
    return quantile_search(cdf, _SUPPORT_QUANTILE, start=max(start, 1e-6))


def end_to_end(topology: Topology) -> EndToEndChannel:
    """Build the end-to-end channel law for a topology."""
    if isinstance(topology, Serial):
        hops = topology.hops
        return EndToEndChannel(
            lambda t: serial_cdf(hops, t), lambda t: serial_pdf(hops, t),
            description=f"serial chain of {len(hops)} hop(s)")
    if isinstance(topology, Selective):
        branches, formula = topology.branches, topology.formula
        return EndToEndChannel(
            lambda t: selective_cdf(branches, t, formula=formula),
            lambda t: selective_pdf(branches, t, formula=formula),
            description=f"best of {len(branches)} relay branch(es), "
                        f"{formula} form")
    if isinstance(topology, AllActive):
        if len(topology.branches) > 1:
            return _all_active_channel(topology)
        # a one-branch sum is the chain law of its pair; skipping the
        # grid keeps its exact tail behaviour (a grid law cuts off the
        # origin, which would hide a divergent inverse moment)
        pair = topology.branches[0]
        return EndToEndChannel(
            lambda t: branch_cdf(pair, t), lambda t: branch_pdf(pair, t),
            description="single active branch (hop-pair minimum)")
    raise TypeError(f"unknown topology {type(topology).__name__}")


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays through a real FFT.

    The steps of ``scipy.signal.fftconvolve``, padded to the same length
    (the next 5-smooth one), on ``numpy.fft``, which runs the same
    pocketfft transforms: the result is bitwise that of fftconvolve
    (``tests/test_topology.py::TestConvolution``), and scipy stays off
    the import path.
    """
    n = a.size + b.size - 1
    nf = _next_5_smooth(n)
    return np.fft.irfft(np.fft.rfft(a, nf) * np.fft.rfft(b, nf), nf)[:n]


def _next_5_smooth(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n, the length pocketfft transforms fastest."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _all_active_channel(topology: AllActive) -> EndToEndChannel:
    """Convolve branch-minimum laws on a shared uniform grid.

    Branch masses are taken as CDF increments over the bins, which
    keeps integrable edge singularities honest; the convolution then
    works with probability masses rather than density samples.
    """
    branches = topology.branches
    k = topology.grid_points
    distinct = dict.fromkeys(branches)
    per_branch_cap = max(
        _support_hint(lambda t: branch_cdf(pair, t),
                      max(pair[0].mean, pair[1].mean))
        for pair in distinct
    )
    edges = np.linspace(0.0, per_branch_cap, k + 1)
    step = edges[1] - edges[0]

    masses = {pair: np.maximum(np.diff(np.asarray(branch_cdf(pair, edges))),
                               0.0) for pair in distinct}
    mass = None
    for pair in branches:
        m = masses[pair]
        mass = m if mass is None else np.maximum(_convolve(mass, m), 0.0)

    total = float(mass.sum())
    deficit = 1.0 - total
    if deficit > topology.mass_tol:
        raise GridResolutionInsufficient(
            f"convolution grid keeps {total:.6f} of the probability mass; "
            f"the {deficit:.3g} lost is the branch laws' tail beyond their "
            f"1 - 1e-6 quantile cap, above mass_tol {topology.mass_tol:g}, "
            f"and grid_points does not change it"
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

    return EndToEndChannel(
        cdf=cdf, pdf=pdf,
        resolution_error=max(deficit, 0.0),
        description=(
            f"sum of {len(branches)} active branch(es) on a "
            f"{k}-bin grid"
        ),
    )
