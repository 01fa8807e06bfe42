"""Capacity of an end-to-end SNR law under adaptive transmission.

Five policies are provided: constant-power rate adaptation (``ora``),
a statistical-delay-constrained variant (``effective``), channel
inversion with fixed rate (``cifr``), its truncated form (``tcifr``)
and joint power-and-rate adaptation above a solved cutoff (``opra``).
All capacities are in bits/s/Hz and carry a quadrature error estimate;
semi-infinite integrals run over the map g = cutoff + s*t/(1-t) with s
a tenth of the channel support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergentIntegral, RelayCapError, RootNotBracketed
from .quadrature import integrate, integrate_semi_infinite
from .topology import EndToEndChannel

LN2 = math.log(2.0)

_REL_TOL = 1e-8
_CUTOFF_REL_TOL = 1e-11  # root residual threshold is 1e-10
_CUTOFF_RESIDUAL = 1e-10
_CUTOFF_MAX_NEWTON = 100
_MOMENT_OCTAVES = 32
_MOMENT_MIN_OCTAVES = 8
_MOMENT_DRIFT_TOL = 1e-4
_EFFECTIVE_PARTS_LIMIT = 0.01  # a or a * support below which by-parts wins


@dataclass(frozen=True)
class PrelogFactor:
    """Multiplexing pre-log of the capacity formulas.

    The default 1/2 charges the two-phase relaying protocol; 1/(N+1)
    time-division accounting can be configured instead.
    """

    value: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"prelog must lie in (0, 1], got {self.value}")


@dataclass(frozen=True)
class EffectiveCapacityParams:
    """Statistical delay constraint: qos_delta = exponent * B * T_frame."""

    qos_delta: float

    def __post_init__(self):
        if not self.qos_delta > 0.0:
            raise ValueError(f"qos_delta must be positive, got {self.qos_delta}")


@dataclass(frozen=True)
class PolicyResult:
    """Capacity value plus solver diagnostics.

    ``cutoff`` is set by the policies that use one, ``iterations``
    counts root-solver objective evaluations, ``cross_check`` carries
    the independently integrated form where one exists, and
    ``diagnostic`` flags degenerate outcomes (e.g. a divergent inverse
    moment).  ``quad_error`` always includes any grid resolution loss
    of the channel.
    """

    capacity: float
    cutoff: float | None = None
    quad_error: float = 0.0
    iterations: int | None = None
    diagnostic: str | None = None
    cross_check: float | None = None

    def __post_init__(self):
        if not self.capacity >= 0.0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")


def _prelog(prelog: PrelogFactor | float) -> float:
    if isinstance(prelog, PrelogFactor):
        return prelog.value
    return PrelogFactor(float(prelog)).value


def _law(ch: EndToEndChannel, g, density: bool = False) -> np.ndarray:
    """Clipped survival 1 - F(g), or with ``density`` the clipped f(g)."""
    if density:
        return np.maximum(np.asarray(ch.pdf(g), dtype=float), 0.0)
    return np.clip(1.0 - np.asarray(ch.cdf(g), dtype=float), 0.0, 1.0)


def _fold_mass(err: float, ch: EndToEndChannel, capacity: float) -> float:
    """Charge the channel's unresolved probability mass to the error."""
    return err + ch.resolution_error * (1.0 + abs(capacity))


def _checked(value: float, err: float) -> tuple[float, float]:
    if not (math.isfinite(value) and math.isfinite(err)):
        raise RelayCapError(
            f"capacity quadrature produced a non-finite result "
            f"({value}, error {err})"
        )
    return value, err


def _tail(ch: EndToEndChannel,
          fn: Callable[[np.ndarray, np.ndarray], np.ndarray], lower: float,
          *, density: bool = False,
          rel_tol: float = _REL_TOL) -> tuple[float, float]:
    """Checked integral over [lower, inf) of fn(g, _law(ch, g, density))."""
    return _checked(*integrate_semi_infinite(
        lambda g: fn(g, _law(ch, g, density)), lower,
        scale=max(ch.support_hint / 10.0, 1e-12), rel_tol=rel_tol,
    ))


def _derived(memo: dict, key: str, compute: Callable[[], object]):
    """``compute()`` kept under ``key`` in ``memo``, computed once.

    A ``RelayCapError`` that computing raised is kept instead, so every
    later call raises it again without computing anything.
    """
    if key not in memo:
        try:
            memo[key] = compute()
        except RelayCapError as exc:
            memo[key] = exc
    got = memo[key]
    if isinstance(got, RelayCapError):
        raise got
    return got


def ora(ch: EndToEndChannel,
        prelog: PrelogFactor | float = PrelogFactor()) -> PolicyResult:
    """Constant transmit power, rate tracking the channel.

    capacity = (prelog/ln 2) * integral over (0, inf) of (1-F(g))/(1+g),
    the integrated-by-parts form of E[prelog*log2(1+g)].
    """
    pl = _prelog(prelog)
    val, err = _tail(ch, lambda g, s: s / (1.0 + g), 0.0)
    cap = max(pl / LN2 * val, 0.0)
    return PolicyResult(
        capacity=cap,
        quad_error=_fold_mass(pl / LN2 * err, ch, cap),
    )


def effective(ch: EndToEndChannel, params: EffectiveCapacityParams,
              prelog: PrelogFactor | float = PrelogFactor()) -> PolicyResult:
    """Largest constant arrival rate under a delay-QoS exponent.

    capacity = -(1/d) * ln E[(1+g)^(-d*prelog/ln 2)] with d = qos_delta.
    The natural log makes the d -> 0 limit recover ``ora`` exactly.
    """
    pl = _prelog(prelog)
    d = params.qos_delta
    a = d * pl / LN2
    if min(a, a * ch.support_hint) <= _EFFECTIVE_PARTS_LIMIT:
        # Density-form quadrature noise on the moment is amplified by
        # 1/d in the capacity; the by-parts form E = 1 - a*int (1-F) *
        # (1+g)^(-a-1) dg enters only through a, so it stays accurate
        # down to the d -> 0 limit.  It does the same when the channel
        # barely reaches past 0 (low SNR), where 1 - E is small too.
        tail, err = _tail(
            ch, lambda g, s: s * np.exp(-(a + 1.0) * np.log1p(g)), 0.0)
        val, err = 1.0 - a * tail, a * err
    else:
        tail = None
        val, err = _tail(ch, lambda g, f: f * np.exp(-a * np.log1p(g)), 0.0,
                         density=True)
    if val <= 0.0:
        raise RelayCapError(
            "effective-capacity moment integral collapsed to zero; "
            "the channel density is numerically empty"
        )
    # log1p keeps the digits of a*tail that forming 1 - a*tail drops
    log_val = math.log(val) if tail is None else math.log1p(-a * tail)
    cap = max(-log_val / d, 0.0)
    return PolicyResult(
        capacity=cap,
        quad_error=_fold_mass(err / (d * val), ch, cap),
    )


def _inverse_moment(ch: EndToEndChannel) -> tuple[float, float]:
    """E[1/g] and its error.

    A channel is ``factor`` times its unit law (itself, factor 1, when
    it was not made by ``EndToEndChannel.scaled``), and
    E[1/(cX)] = E[1/X]/c: the unit law's moment, or its divergence, is
    computed once, kept in the unit channel's memo, and divided by the
    factor c at every mean.
    """
    base = ch.unit or ch
    m, err = _derived(base.memo, "inverse_moment",
                      lambda: _octave_moment(base))
    return m / ch.factor, err / ch.factor


def _octave_moment(ch: EndToEndChannel) -> tuple[float, float]:
    """E[1/g] with the near-origin part summed octave by octave.

    The density behaves like c * g^(p-1) toward the origin, so the
    octave integrals of f/g approach a geometric sequence with ratio
    2^-p.  The rational map alone stalls on that algebraic endpoint;
    summing octaves until the ratio drift is small and closing with a
    geometric tail does not.  The remaining ratio drift brackets the
    tail, and the bracket width is charged to the error.  A moment
    found divergent raises ``DivergentIntegral``.
    """
    hi = ch.support_hint
    total, err = _tail(ch, lambda g, f: f / g, hi, density=True)
    octaves: list[float] = []
    for _ in range(_MOMENT_OCTAVES):
        v, e = integrate(lambda g: _law(ch, g, density=True) / g, 0.5 * hi,
                         hi, rel_tol=_REL_TOL)
        v = max(float(v), 0.0)
        octaves.append(v)
        total += v
        err += e
        hi *= 0.5
        if v <= 1e-16 * max(total, 1e-300):
            return total, err + 2.0 * v
        if len(octaves) >= _MOMENT_MIN_OCTAVES and octaves[-2] > 0.0 \
                and octaves[-3] > 0.0:
            r_now = octaves[-1] / octaves[-2]
            r_prev = octaves[-2] / octaves[-3]
            if r_now < 1.0 and abs(r_now - r_prev) <= _MOMENT_DRIFT_TOL:
                break
    last = octaves[-1]
    if len(octaves) < 3 or octaves[-2] <= 0.0 or octaves[-3] <= 0.0:
        # no contracting pattern to extrapolate; charge the unknown
        # tail to the error instead
        return total, err + 2.0 * last
    r_now = octaves[-1] / octaves[-2]
    drift = abs(r_now - octaves[-2] / octaves[-3])
    # the drift itself contracts geometrically for power-law densities;
    # a factor-4 cushion covers contraction rates down to about 0.8
    r_hi = r_now + 4.0 * drift
    r_lo = max(r_now - 4.0 * drift, 0.0)
    if r_now >= 1.0 or r_hi >= 1.0:
        # octave masses of c*g^(p-1) scale as 2^-p per halving; a ratio
        # bracket touching one means p <= 0 within resolution, i.e. the
        # moment diverges (the log case p = 0 lands here too)
        raise DivergentIntegral("inverse-SNR moment diverges")
    t_lo = last * r_lo / (1.0 - r_lo)
    t_hi = last * r_hi / (1.0 - r_hi)
    tail = 0.5 * (t_lo + t_hi)
    return total + tail, err + 0.5 * (t_hi - t_lo) + _REL_TOL * tail


def cifr(ch: EndToEndChannel,
         prelog: PrelogFactor | float = PrelogFactor()) -> PolicyResult:
    """Channel inversion with fixed rate.

    capacity = (prelog/ln 2) * ln(1 + 1/E[1/g]).  A divergent inverse
    moment is a valid outcome: zero capacity, flagged in the
    diagnostic rather than raised.  On a channel scaled by c from a
    unit law, E[1/(cX)] = E[1/X]/c, and E[1/X] is computed once per
    unit law (see ``_inverse_moment``).
    """
    pl = _prelog(prelog)
    try:
        m, err = _checked(*_inverse_moment(ch))
    except DivergentIntegral:
        return PolicyResult(
            capacity=0.0,
            quad_error=ch.resolution_error,
            diagnostic="divergent inverse-SNR moment",
        )
    if m <= 0.0:
        raise RelayCapError("inverse-SNR moment integrated to zero")
    cap = pl / LN2 * math.log1p(1.0 / m)
    # d capacity / d m = -(prelog/ln 2) / (m^2 + m)
    return PolicyResult(
        capacity=cap,
        quad_error=_fold_mass(pl / LN2 * err / (m * m + m), ch, cap),
    )


def tcifr(ch: EndToEndChannel, cutoff: float,
          prelog: PrelogFactor | float = PrelogFactor()) -> PolicyResult:
    """Truncated channel inversion: suspend below ``cutoff``.

    capacity = (prelog/ln 2) * ln(1 + 1/T) * (1 - F(cutoff)) with
    T the inverse moment restricted to (cutoff, inf).
    """
    if not cutoff > 0.0:
        raise ValueError(f"tcifr cutoff must be positive, got {cutoff}")
    pl = _prelog(prelog)
    coverage = float(_law(ch, cutoff))
    t, err = _tail(ch, lambda g, f: f / g, cutoff, density=True)
    if t <= 0.0 or coverage <= 0.0:
        return PolicyResult(
            capacity=0.0, cutoff=cutoff, quad_error=ch.resolution_error,
            diagnostic="no usable probability mass above the cutoff",
        )
    cap = pl / LN2 * math.log1p(1.0 / t) * coverage
    return PolicyResult(
        capacity=cap, cutoff=cutoff,
        quad_error=_fold_mass(
            pl / LN2 * coverage * err / (t * t + t), ch, cap),
    )


def _cutoff_objective(ch: EndToEndChannel, x: float) -> tuple[float, float]:
    """G(x) = (1-F(x))/x - integral_x^inf f/g - 1 and its derivative.

    G is strictly decreasing where F < 1 (G'(x) = -(1-F(x))/x^2), goes
    to +inf at the origin and is non-positive at 1, so it brackets one
    root in (0, 1].
    """
    sf = float(_law(ch, x))
    tail, _ = _tail(ch, lambda g, f: f / g, x, density=True,
                    rel_tol=_CUTOFF_REL_TOL)
    return sf / x - tail - 1.0, -sf / (x * x)


@dataclass(frozen=True)
class CutoffSolve:
    root: float
    iterations: int
    residual: float


def _cutoff_solve(ch: EndToEndChannel) -> CutoffSolve:
    """Root of the power-adaptation cutoff condition, in (0, 1]."""
    evals = 0

    def g_of(x: float) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        return _cutoff_objective(ch, x)

    # Bracket: G(1) <= 0 analytically; walk down from 0.5 for G > 0.
    lo = 0.5
    g_lo, gp = g_of(lo)
    hi = 1.0
    while g_lo <= 0.0:
        hi = lo
        lo *= 0.5
        if lo < 1e-12:
            raise RootNotBracketed(
                "no power-adaptation cutoff above 1e-12; the channel is "
                "too degraded for power adaptation to satisfy its budget"
            )
        g_lo, gp = g_of(lo)

    x, g_val = lo, g_lo
    for _ in range(_CUTOFF_MAX_NEWTON):
        if abs(g_val) < _CUTOFF_RESIDUAL:
            return CutoffSolve(x, evals, abs(g_val))
        step = g_val / gp if gp < 0.0 else math.nan
        x_new = x - step
        if not math.isfinite(x_new) or not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        g_new, gp = g_of(x_new)
        if g_new > 0.0:
            lo = x_new
        else:
            hi = x_new
        x, g_val = x_new, g_new

    # Newton budget spent; bisection finishes.
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        g_val, _ = g_of(mid)
        if abs(g_val) < _CUTOFF_RESIDUAL:
            return CutoffSolve(mid, evals, abs(g_val))
        if g_val > 0.0:
            lo = mid
        else:
            hi = mid
    return CutoffSolve(0.5 * (lo + hi), evals, abs(g_val))


def _cutoff(ch: EndToEndChannel) -> CutoffSolve:
    """The cutoff solve, or its error, once per channel (a cutoff is not
    scale-equivariant, so the memo of the unit law cannot hold it)."""
    return _derived(ch.memo, "cutoff", lambda: _cutoff_solve(ch))


def opra_cutoff(ch: EndToEndChannel) -> float:
    """Cutoff SNR below which joint power/rate adaptation suspends.

    Solves integral_x^inf (1/x - 1/g) f(g) dg = 1 by Newton-Raphson
    from 0.5 with a maintained bracket and bisection fallback; the
    root lies in (0, 1] for any well-posed channel and the solver
    raises ``RootNotBracketed`` otherwise instead of clamping.  Each
    channel is solved once; later calls read the solve or its error.
    """
    return _cutoff(ch).root


def opra_cutoff_details(ch: EndToEndChannel) -> CutoffSolve:
    """Cutoff solve with iteration count and final residual."""
    return _cutoff(ch)


def _opra(ch: EndToEndChannel, pl: float) -> PolicyResult:
    solve = _cutoff(ch)
    root = solve.root
    val, e_sf = _tail(ch, lambda g, s: s / g, root)
    # Independent route: E[log(g/cutoff); g > cutoff], equal by parts.
    chk, e_f = _tail(ch, lambda g, f: f * np.log(g / root), root,
                     density=True)
    cap = max(pl / LN2 * val, 0.0)
    cross = pl / LN2 * chk
    err = _fold_mass(pl / LN2 * (e_sf + e_f), ch, cap)
    diagnostic = None
    if abs(cap - cross) > err:
        err = abs(cap - cross)
        diagnostic = (
            "integration-by-parts cross-check disagrees beyond the "
            "quadrature estimate"
        )
    return PolicyResult(
        capacity=cap, cutoff=root, quad_error=err,
        iterations=solve.iterations, cross_check=cross, diagnostic=diagnostic,
    )


def opra(ch: EndToEndChannel,
         prelog: PrelogFactor | float = PrelogFactor()) -> PolicyResult:
    """Joint power and rate adaptation above a solved cutoff.

    capacity = (prelog/ln 2) * integral_cutoff^inf (1-F(g))/g dg; the
    density form of the same quantity is integrated independently and
    reported as ``cross_check``.  The root exists for any proper SNR
    law (even a point mass at m has one, at m/(m+1)); only a
    numerically broken channel surfaces as ``RootNotBracketed``.
    """
    return _opra(ch, _prelog(prelog))


_POLICY_NAMES = ("cifr", "effective", "opra", "ora", "tcifr")


def _check_policy_rules(name: str, qos_delta: float | None,
                        prelog: float) -> None:
    """Name, ``qos_delta`` and ``prelog`` rules shared by every policy
    request; each caller adds its own cutoff rule."""
    if name not in _POLICY_NAMES:
        raise ValueError(
            f"unknown policy {name!r}; expected one of "
            f"{', '.join(_POLICY_NAMES)}"
        )
    if name == "effective":
        if qos_delta is None:
            raise ValueError("effective capacity needs qos_delta")
        EffectiveCapacityParams(qos_delta)
    elif qos_delta is not None:
        raise ValueError(f"qos_delta does not apply to {name}")
    PrelogFactor(prelog)


@dataclass(frozen=True)
class PolicySpec:
    """One requested policy evaluation in a sweep.

    ``qos_delta`` applies to (and is required by) ``effective``;
    ``cutoff`` optionally pins the ``tcifr`` threshold, which otherwise
    reuses the solved ``opra`` cutoff of the same sweep point.
    """

    name: str
    qos_delta: float | None = None
    cutoff: float | None = None
    prelog: float = 0.5

    def __post_init__(self):
        _check_policy_rules(self.name, self.qos_delta, self.prelog)
        if self.cutoff is not None:
            if self.name != "tcifr":
                raise ValueError(f"cutoff does not apply to {self.name}")
            if not self.cutoff > 0.0:
                raise ValueError("tcifr cutoff must be positive")

    @property
    def label(self) -> str:
        if self.name == "effective":
            return f"effective[delta={self.qos_delta:g}]"
        return self.name


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    policy: str
    result: PolicyResult | None
    error: str | None = None


def _eval_policy(ch: EndToEndChannel, spec: PolicySpec) -> PolicyResult:
    pl = PrelogFactor(spec.prelog)
    if spec.name == "ora":
        return ora(ch, pl)
    if spec.name == "effective":
        return effective(ch, EffectiveCapacityParams(spec.qos_delta), pl)
    if spec.name == "cifr":
        return cifr(ch, pl)
    if spec.name == "tcifr":
        cut = spec.cutoff
        return tcifr(ch, _cutoff(ch).root if cut is None else cut, pl)
    return _opra(ch, pl.value)


def evaluate(ch: EndToEndChannel, spec: PolicySpec) -> PolicyResult:
    """Evaluate one policy on one channel.

    ``opra`` and a cutoff-less ``tcifr`` share the channel's one
    cutoff solve.
    """
    return _eval_policy(ch, spec)


def sweep(
    ch_factory: Callable[[float], EndToEndChannel],
    policies: Sequence[PolicySpec | str],
    snr_grid_db: Sequence[float],
) -> list[SweepRow]:
    """Evaluate policies over an average-SNR grid (dB).

    ``ch_factory`` maps a linear mean SNR to an end-to-end channel;
    it is called once per grid point, and ``opra`` and a cutoff-less
    ``tcifr`` share that point's one cutoff solve.  Per-cell
    failures are recorded on the row instead of aborting the sweep.
    """
    specs = [p if isinstance(p, PolicySpec) else PolicySpec(name=str(p))
             for p in policies]
    if not specs:
        raise ValueError("no policies requested")
    grid = [float(s) for s in snr_grid_db]
    if not grid:
        raise ValueError("empty SNR grid")

    rows: list[SweepRow] = []
    for snr_db in grid:
        mean = 10.0 ** (snr_db / 10.0)
        try:
            ch = ch_factory(mean)
        except RelayCapError as exc:
            rows.extend(
                SweepRow(snr_db, s.label, None, str(exc)) for s in specs
            )
            continue
        for s in specs:
            try:
                rows.append(SweepRow(snr_db, s.label, _eval_policy(ch, s)))
            except RelayCapError as exc:
                rows.append(SweepRow(snr_db, s.label, None, str(exc)))
    return rows
