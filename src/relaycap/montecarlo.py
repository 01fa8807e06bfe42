"""Simulation oracle for outage and capacity estimates.

Per-hop SNR realisations come from independent counter-based streams
keyed by (hop index, batch index), so a report is bit-identical for a
given seed regardless of batch execution order, and adding a hop never
perturbs the draws of the existing ones.  Estimates stream over fixed
batches, and the topology folds a batch's draws in one hop at a time,
so memory is bounded by the batch size: a batch holds a few arrays of
its size, whatever the number of hops.  One batch is in flight at a
time; its hops may draw on several threads, each extra thread holding
one more hop draw, while the fold takes the draws in hop order.

One simulation serves a whole sweep of mean-SNR points.  Every catalog
law is a scale family in its mean, and the min, max and sum that
combine hops commute with a positive scale, so each batch is drawn and
combined once and then rescaled to every point: the points share
common random numbers.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .capacity import PolicySpec, _check_policy_rules
from .errors import InsufficientSamples, check_number
from .topology import Topology

LN2 = math.log(2.0)

_MIN_SAMPLES = 1000
# share of the inverse-SNR sum a single draw may carry before the
# moment estimate is flagged as unstable
_SHARE_LIMIT = 0.01


@dataclass(frozen=True)
class SimConfig:
    """Sample budget, stream seed and streaming batch size."""

    samples: int
    seed: int
    batch: int = 1 << 17

    def __post_init__(self):
        if check_number("samples", self.samples, -math.inf,
                        integer=True) < _MIN_SAMPLES:
            raise InsufficientSamples(
                f"need at least {_MIN_SAMPLES} samples, got {self.samples}"
            )
        check_number("seed", self.seed, 0, 2 ** 64, ends="[)", integer=True)
        check_number("batch", self.batch, integer=True)


@dataclass(frozen=True)
class PolicyRequest:
    """One capacity estimate to accumulate during a simulation.

    ``opra`` and ``tcifr`` need the cutoff supplied up front (from the
    analytic solver), which keeps the simulation a pure check of the
    capacity integral rather than of the root solve too.
    """

    name: str
    prelog: float = 0.5
    qos_delta: float | None = None
    cutoff: float | None = None

    def __post_init__(self):
        _check_policy_rules(self.name, self.qos_delta, self.prelog)
        if self.name in ("opra", "tcifr"):
            if self.cutoff is None:
                raise ValueError(f"{self.name} needs a positive cutoff")
            check_number("cutoff", self.cutoff)
        elif self.cutoff is not None:
            raise ValueError(f"cutoff does not apply to {self.name}")

    label = PolicySpec.label


@dataclass(frozen=True)
class SimReport:
    """Empirical outage curve and capacity estimates with their errors.

    ``empirical_cdf`` rows are (tau, estimate, binomial std error);
    ``capacity_estimates`` maps a policy label to (value, std error).
    """

    empirical_cdf: tuple[tuple[float, float, float], ...]
    capacity_estimates: dict[str, tuple[float, float]]
    sample_mean: float
    diagnostics: dict[str, str] = field(default_factory=dict)


def _stream(seed: int, hop_idx: int, batch_idx: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(hop_idx, batch_idx))
    return np.random.Generator(np.random.Philox(ss))


def _batch_sizes(samples: int, batch: int) -> list[int]:
    sizes = [batch] * (samples // batch)
    if samples % batch:
        sizes.append(samples % batch)
    return sizes


def _mean_se(s: float, s2: float, n: int) -> tuple[float, float]:
    m = s / n
    var = max((s2 - s * s / n) / (n - 1), 0.0) if n > 1 else 0.0
    return m, math.sqrt(var / n)


def _policy_batch(req: PolicyRequest, g: np.ndarray) -> np.ndarray:
    """Sum v, sum v^2, draws at or above the cutoff (all draws when the
    policy has none) and max v of one batch, for the policy's term v.

    v is built in place in one array, zero below any cutoff.  With the
    draws folded hop by hop no array larger than a batch is freed, so
    glibc's heap trim threshold stays low and each batch-sized
    temporary would be returned to the system and refaulted per call.
    """
    pl = req.prelog
    above = g >= req.cutoff if req.cutoff is not None else None
    if req.name == "ora":
        v = np.add(1.0, g)
        np.log2(v, out=v)
        v *= pl
    elif req.name == "opra":
        v = np.maximum(g, req.cutoff)
        v /= req.cutoff
        np.log2(v, out=v)
        v *= pl
    elif req.name == "effective":
        # the mean can concentrate on the few smallest draws, exactly
        # like the inverse moment, so max v feeds the same share check
        v = np.log1p(g)
        v *= -req.qos_delta * pl / LN2
        np.exp(v, out=v)
    else:
        # cifr, or tcifr: E[t*k] = E[t] and k^2 = k, so the count serves
        # as both the coverage sum and its sum of squares
        with np.errstate(divide="ignore"):
            v = np.divide(1.0, g)
    if above is not None:
        v[~above] = 0.0
    count = g.size if above is None else above.sum()
    # v^2 summed pairwise in place: ``v @ v`` would call BLAS, whose
    # threads spin on a second core after every call
    total, largest = v.sum(), float(v.max(initial=0.0))
    np.square(v, out=v)
    return np.array([total, v.sum(), float(count), largest])


def _share_diagnostic(moment: str, largest: float, total: float) -> str | None:
    """Flag a moment estimate that one draw dominates."""
    share = largest / total if total > 0.0 else 0.0
    if share > _SHARE_LIMIT:
        return (f"{moment} unstable: one draw carries {share:.1%} of the "
                f"sum; the estimate has not converged")
    return None


def _policy_value(req: PolicyRequest, vec: np.ndarray,
                  n: int) -> tuple[float, float, str | None]:
    pl = req.prelog
    if req.name == "ora":
        return (*_mean_se(vec[0], vec[1], n), None)
    if req.name == "opra":
        # with no draw at or above the cutoff the estimate is 0 with
        # standard error 0, which no z-test can judge (tcifr alike)
        m, se = _mean_se(vec[0], vec[1], n)
        return m, se, None if vec[2] > 0.0 else "no draws above the cutoff"
    if req.name == "effective":
        m, se_m = _mean_se(vec[0], vec[1], n)
        d = req.qos_delta
        return (max(-math.log(m) / d, 0.0), se_m / (d * m),
                _share_diagnostic("QoS moment", vec[3], vec[0]))
    if req.name == "cifr":
        m, se_m = _mean_se(vec[0], vec[1], n)
        if not math.isfinite(m) or m <= 0.0:
            return 0.0, 0.0, "inverse-SNR sample mean overflowed"
        return (pl / LN2 * math.log1p(1.0 / m), pl / LN2 * se_m / (m * m + m),
                _share_diagnostic("inverse-SNR moment", vec[3], vec[0]))
    # tcifr: delta method on the (truncated inverse moment, coverage) pair
    t_mean = vec[0] / n
    k_mean = vec[2] / n
    if t_mean <= 0.0 or k_mean <= 0.0:
        return 0.0, 0.0, "no draws above the cutoff"
    var_t = max((vec[1] - n * t_mean * t_mean) / (n - 1), 0.0)
    var_k = max((vec[2] - n * k_mean * k_mean) / (n - 1), 0.0)
    cov = (vec[0] - n * t_mean * k_mean) / (n - 1)
    log_term = math.log1p(1.0 / t_mean)
    g_t = -pl / LN2 * k_mean / (t_mean * t_mean + t_mean)
    g_k = pl / LN2 * log_term
    var = (g_t * g_t * var_t + 2.0 * g_t * g_k * cov + g_k * g_k * var_k) / n
    return pl / LN2 * log_term * k_mean, math.sqrt(max(var, 0.0)), None


@dataclass(frozen=True)
class SimPoint:
    """One point of a sweep: a factor on every hop's mean SNR, plus the
    capacity estimates to accumulate at that point."""

    scale: float = 1.0
    policies: tuple[PolicyRequest, ...] = ()

    def __post_init__(self):
        check_number("scale", self.scale)
        object.__setattr__(self, "policies", tuple(self.policies))


def _in_order(calls: Iterator[tuple], pool, width: int) -> Iterator:
    """Results of ``calls``, (function, *args) tuples, in order: inline
    when ``pool`` is None, else run on ``pool`` with at most ``width``
    calls submitted and not yet taken by the consumer."""
    if pool is None:
        for fn, *args in calls:
            yield fn(*args)
        return
    window = deque(pool.submit(*c) for c in itertools.islice(calls, width))
    while window:
        yield window.popleft().result()
        window.extend(pool.submit(*c) for c in itertools.islice(calls, 1))


def simulate(
    topology: Topology,
    cfg: SimConfig,
    taus: Sequence[float],
    points: Sequence[SimPoint] = (SimPoint(),),
    *,
    jobs: int | None = None,
) -> list[SimReport]:
    """Estimate the outage CDF at ``taus`` plus requested capacities at
    every point of a sweep; returns one report per point, in order.

    Per batch, every hop draws once from its own stream and the
    topology folds the draws in as they come, physically (min over a
    chain, then max or sum across branches).  A point sees the combined
    draws times its scale, which is the topology with every hop mean
    multiplied by that scale: min, max and sum commute with a positive
    factor, and every catalog law is a scale family in its mean.
    The hops of a batch draw on at most ``jobs`` threads (default: one
    per CPU available; ``jobs=1`` runs no pool), never more than there
    are hops or CPUs.  At most one draw per thread is pending beyond
    the fold, which takes the draws in hop order, so the result is
    identical to the sequential run whatever the thread count.
    """
    taus_arr = np.asarray([float(t) for t in taus], dtype=float)
    if np.any(np.diff(taus_arr) < 0.0):
        raise ValueError("taus must be sorted ascending")
    points = tuple(points)
    if not points:
        raise ValueError("simulate needs at least one point")
    hops = topology.flat_hops()
    sizes = _batch_sizes(cfg.samples, cfg.batch)
    cpus = len(os.sched_getaffinity(0))
    workers = min(jobs or cpus, len(hops), cpus)

    def run_batch(draws: Iterator[np.ndarray]) -> list[tuple]:
        unit = topology.combine(draws)
        # a positive factor keeps the order, so one sort serves every point
        ordered = np.sort(unit)
        g = np.empty_like(unit)
        partials = []
        for point in points:
            np.multiply(point.scale, ordered, out=g)
            counts = np.searchsorted(g, taus_arr, side="right")
            np.multiply(point.scale, unit, out=g)
            partials.append((counts, g.sum(),
                             [_policy_batch(r, g) for r in point.policies]))
        return partials

    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=workers)
    with pool or contextlib.nullcontext():
        batches = [run_batch(_in_order(
            ((hop.sample, _stream(cfg.seed, h, b), nb)
             for h, hop in enumerate(hops)), pool, workers))
            for b, nb in enumerate(sizes)]
    return [_report(point.policies, taus_arr, cfg.samples, per_batch)
            for point, per_batch in zip(points, zip(*batches))]


def _report(reqs: Sequence[PolicyRequest], taus_arr: np.ndarray, n: int,
            batches: Iterable[tuple]) -> SimReport:
    """Merge one point's per-batch partial sums, in batch order."""
    counts = np.zeros(taus_arr.size, dtype=np.int64)
    total = 0.0
    vecs = [np.zeros(4) for _ in reqs]
    for b_counts, b_total, b_vecs in batches:
        counts += b_counts
        total += b_total
        for vec, b_vec in zip(vecs, b_vecs):
            vec[:3] += b_vec[:3]
            vec[3] = max(vec[3], b_vec[3])

    p = counts / n
    se = np.sqrt(p * (1.0 - p) / n)
    cdf_rows = tuple(
        (float(t), float(pi), float(si))
        for t, pi, si in zip(taus_arr, p, se)
    )
    estimates: dict[str, tuple[float, float]] = {}
    diagnostics: dict[str, str] = {}
    for req, vec in zip(reqs, vecs):
        value, err, diag = _policy_value(req, vec, n)
        estimates[req.label] = (value, err)
        if diag is not None:
            diagnostics[req.label] = diag
    return SimReport(
        empirical_cdf=cdf_rows,
        capacity_estimates=estimates,
        sample_mean=float(total / n),
        diagnostics=diagnostics,
    )

