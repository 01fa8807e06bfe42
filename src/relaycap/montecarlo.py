"""Simulation oracle for outage and capacity estimates.

Per-hop SNR realisations come from independent counter-based streams
keyed by (hop index, batch index), so a report is bit-identical for a
given seed regardless of batch execution order, and adding a hop never
perturbs the draws of the existing ones.  Estimates stream over fixed
batches; memory is bounded by the batch size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .capacity import PolicySpec, _check_policy_rules
from .errors import InsufficientSamples
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
        if self.samples < _MIN_SAMPLES:
            raise InsufficientSamples(
                f"need at least {_MIN_SAMPLES} samples, got {self.samples}"
            )
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.batch < 1:
            raise ValueError("batch size must be at least 1")


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
            if self.cutoff is None or not self.cutoff > 0.0:
                raise ValueError(f"{self.name} needs a positive cutoff")
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
    sample_count: int
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


def _policy_batch(req: PolicyRequest, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Partial sums of one batch; second item is an order-statistic aux."""
    pl = req.prelog
    if req.name == "ora":
        v = pl * np.log2(1.0 + g)
    elif req.name == "opra":
        above = g >= req.cutoff
        v = np.where(above, pl * np.log2(np.maximum(g, req.cutoff) / req.cutoff),
                     0.0)
    elif req.name == "effective":
        a = req.qos_delta * pl / LN2
        v = np.exp(-a * np.log1p(g))
        # the mean can concentrate on the few smallest draws, exactly
        # like the inverse moment, so track the same share statistic
        return np.array([v.sum(), float(v @ v)]), float(v.max(initial=0.0))
    elif req.name == "cifr":
        with np.errstate(divide="ignore"):
            x = 1.0 / g
        return np.array([x.sum(), float(x @ x)]), float(x.max(initial=0.0))
    else:  # tcifr; E[t*k] = E[t] and k^2 = k, so three sums suffice
        above = g >= req.cutoff
        with np.errstate(divide="ignore"):
            t = np.where(above, 1.0 / g, 0.0)
        return np.array([t.sum(), float(t @ t), float(above.sum())]), 0.0
    return np.array([v.sum(), float(v @ v)]), 0.0


def _share_diagnostic(moment: str, largest: float, total: float) -> str | None:
    """Flag a moment estimate that one draw dominates."""
    share = largest / total if total > 0.0 else 0.0
    if share > _SHARE_LIMIT:
        return (f"{moment} unstable: one draw carries {share:.1%} of the "
                f"sum; the estimate has not converged")
    return None


def _policy_value(req: PolicyRequest, vec: np.ndarray, aux: float,
                  n: int) -> tuple[float, float, str | None]:
    pl = req.prelog
    if req.name in ("ora", "opra"):
        m, se = _mean_se(vec[0], vec[1], n)
        return m, se, None
    if req.name == "effective":
        m, se_m = _mean_se(vec[0], vec[1], n)
        d = req.qos_delta
        return (max(-math.log(m) / d, 0.0), se_m / (d * m),
                _share_diagnostic("QoS moment", aux, vec[0]))
    if req.name == "cifr":
        m, se_m = _mean_se(vec[0], vec[1], n)
        if not math.isfinite(m) or m <= 0.0:
            return 0.0, 0.0, "inverse-SNR sample mean overflowed"
        return (pl / LN2 * math.log1p(1.0 / m), pl / LN2 * se_m / (m * m + m),
                _share_diagnostic("inverse-SNR moment", aux, vec[0]))
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


def simulate(
    topology: Topology,
    cfg: SimConfig,
    taus: Sequence[float],
    *,
    policies: Sequence[PolicyRequest] = (),
    jobs: int | None = None,
) -> SimReport:
    """Estimate the outage CDF at ``taus`` plus requested capacities.

    Per batch, every hop draws from its own stream and the topology
    combines the draws physically (min over a chain, then max or sum
    across branches).  Batches may run on ``jobs`` threads; partial
    sums are merged in batch order, so the result is identical to the
    sequential run.
    """
    taus_arr = np.asarray([float(t) for t in taus], dtype=float)
    if np.any(np.diff(taus_arr) < 0.0):
        raise ValueError("taus must be sorted ascending")
    hops = topology.flat_hops()
    reqs = tuple(policies)
    sizes = _batch_sizes(cfg.samples, cfg.batch)

    def run_batch(b: int) -> tuple:
        nb = sizes[b]
        draws = [hop.sample(_stream(cfg.seed, h, b), nb)
                 for h, hop in enumerate(hops)]
        g = topology.combine(draws)
        ordered = np.sort(g)
        counts = np.searchsorted(ordered, taus_arr, side="right")
        moments = np.array([g.sum(), float(g @ g)])
        partials = [_policy_batch(r, g) for r in reqs]
        return counts, moments, partials

    if jobs is not None and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(run_batch, range(len(sizes))))
    else:
        batches = [run_batch(b) for b in range(len(sizes))]

    n = cfg.samples
    counts = np.zeros(taus_arr.size, dtype=np.int64)
    moments = np.zeros(2)
    vecs = [np.zeros(3) for _ in reqs]
    auxs = [0.0 for _ in reqs]
    for b_counts, b_moments, b_partials in batches:
        counts += b_counts
        moments += b_moments
        for i, (vec, aux) in enumerate(b_partials):
            vecs[i] = vecs[i][: vec.size] + vec
            auxs[i] = max(auxs[i], aux)

    p = counts / n
    se = np.sqrt(p * (1.0 - p) / n)
    cdf_rows = tuple(
        (float(t), float(pi), float(si))
        for t, pi, si in zip(taus_arr, p, se)
    )
    estimates: dict[str, tuple[float, float]] = {}
    diagnostics: dict[str, str] = {}
    for req, vec, aux in zip(reqs, vecs, auxs):
        value, err, diag = _policy_value(req, vec, aux, n)
        estimates[req.label] = (value, err)
        if diag is not None:
            diagnostics[req.label] = diag
    return SimReport(
        empirical_cdf=cdf_rows,
        capacity_estimates=estimates,
        sample_mean=float(moments[0] / n),
        sample_count=n,
        diagnostics=diagnostics,
    )


def _chunks(stream) -> Iterator[np.ndarray]:
    if isinstance(stream, np.ndarray):
        yield stream.astype(float, copy=False).ravel()
        return
    buf: list[float] = []
    for item in stream:
        if np.ndim(item) == 0:
            buf.append(float(item))
            if len(buf) >= 1 << 16:
                yield np.array(buf)
                buf = []
        else:
            if buf:
                yield np.array(buf)
                buf = []
            yield np.asarray(item, dtype=float).ravel()
    if buf:
        yield np.array(buf)


def empirical_capacity(
    samples: np.ndarray | Iterable,
    policy: str,
    *,
    prelog: float = 0.5,
    qos_delta: float | None = None,
    cutoff: float | None = None,
) -> tuple[float, float]:
    """Sample-mean capacity estimate over a stream of SNR draws.

    ``samples`` may be one array or an iterable of arrays/values; it is
    consumed in chunks.  Cutoff-based policies take the analytically
    solved cutoff.  Returns (value, standard error).
    """
    req = PolicyRequest(name=policy, prelog=prelog, qos_delta=qos_delta,
                        cutoff=cutoff)
    vec = np.zeros(3)
    aux = 0.0
    n = 0
    for chunk in _chunks(samples):
        b_vec, b_aux = _policy_batch(req, chunk)
        vec = vec[: b_vec.size] + b_vec
        aux = max(aux, b_aux)
        n += chunk.size
    if n < _MIN_SAMPLES:
        raise InsufficientSamples(
            f"need at least {_MIN_SAMPLES} samples, got {n}"
        )
    value, err, _ = _policy_value(req, vec, aux, n)
    return value, err
