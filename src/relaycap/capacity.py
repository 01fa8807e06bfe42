"""Capacity of an end-to-end SNR law under adaptive transmission.

Five policies are provided: constant-power rate adaptation (``ora``),
a statistical-delay-constrained variant (``effective``), channel
inversion with fixed rate (``cifr``), its truncated form (``tcifr``)
and joint power-and-rate adaptation above a solved cutoff (``opra``).
All capacities are in bits/s/Hz and carry a quadrature error estimate.

A channel at mean m is m times its unit-mean law X, so every policy is
an integral against X with m moved into the kernel.  Those integrals
are read off one table per unit law (``_Table``): GK15 panels on cells
of a grid in u = ln x, built on the first policy call and kept in the
unit law's memo, and closed at its bottom by a power-law tail read off
its three lowest unit spans.  The opra cutoff at every mean is the
root of one decreasing function of X, bracketed on the table's cell
edges and polished by Newton steps of one fresh panel each (of the
tail alone where, at a very high mean, the root lies below the table).
``cifr`` reads E[1/X] once per unit law: the table's sum plus the tail
to the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import DivergentIntegral, RelayCapError, RootNotBracketed
# integrate stays bound here for bench/selftest.py's tracer checks
from .quadrature import integrate, panel_nodes, panel_sums  # noqa: F401
from .topology import EndToEndChannel

LN2 = math.log(2.0)

_EPS = float(np.finfo(float).eps)
_CUTOFF_RESIDUAL = 1e-10
_CUTOFF_MAX_NEWTON = 60
_CUTOFF_FLOOR = 1e-12
# the unit-law table (see _Table); the law is evaluated in calls of at
# most _LAW_BATCH arguments
_TABLE_CELLS = 32
_TABLE_ABOVE = 4.0
_TABLE_TOL = 1e-12
_TABLE_MAX_CELLS = 512
_LAW_BATCH = 128
_SF_DIGITS = 1e-4
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
    counts the cutoff solve's Newton panels, ``cross_check`` carries
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


class _Table:
    """The unit law on GK15 cells in u = ln x.

    Every policy at mean m is an integral against the unit law X with m
    moved into the kernel, so one table of the survival S and the
    density f at the Kronrod nodes of every cell serves every SNR
    point.  The cells start uniform, of width 1 on
    [ln(support_hint) - 28, ln(support_hint) + 4], and more unit cells
    are added below and above until F at the lowest edge and S at the
    highest are at most ``_TABLE_TOL`` (see ``_widen``); then a cell
    whose panel error on the mass f e^u or on S exceeds ``_TABLE_TOL``
    is halved until none does.  Both stop at ``_TABLE_MAX_CELLS``
    cells.  ``edge_sf`` is S at every edge, ``low_cdf`` F at the lowest
    and ``top_sf`` S at the highest, and ``top_inv`` = top_sf e^-u_top
    bounds the integral of f(x)/x above the table; ``mass`` and ``inv``
    hold each cell's integrals of f(x) and f(x)/x, i.e. of f e^u and f
    over u, and their errors.

    Below the table every integral of f/x is a power-law tail read off
    the table's lowest spans (see ``below``) and S is taken as 1, with
    ``low_cdf`` charged; the law is not evaluated there.  Above the
    table every policy takes the law as empty and charges top_sf times
    its kernel k at the top edge.  Its integrals over u of S(e^u) k or
    f(e^u) e^u k are, in x, integrals of S k/x or f k, and every such
    k/x or k falls as x grows; so the part above x_top is at most
    k(x_top) top_sf: for f at once, for S while the law's mean excess
    above x_top is at most x_top, which holds far past its 1 - 1e-6
    quantile.
    """

    def __init__(self, ch: EndToEndChannel):
        top = math.log(ch.support_hint) + _TABLE_ABOVE
        room = _TABLE_MAX_CELLS - _TABLE_CELLS
        up = _widen(ch, top, 1.0, room)
        down = _TABLE_CELLS + _widen(ch, top - _TABLE_CELLS, -1.0, room - up)
        edges = top + np.arange(-down, up + 1.0)
        lo, hi = edges[:-1], edges[1:]
        sf, pdf = _law_at(ch, panel_nodes(lo, hi))
        while True:
            nodes, half = panel_nodes(lo, hi), 0.5 * (hi - lo)
            bad = ((panel_sums(pdf * np.exp(nodes), half)[1] > _TABLE_TOL)
                   | (panel_sums(sf, half)[1] > _TABLE_TOL))
            if not bad.any() or lo.size + bad.sum() > _TABLE_MAX_CELLS:
                break
            mid = 0.5 * (lo[bad] + hi[bad])
            new_lo = np.concatenate([lo[bad], mid])
            new_hi = np.concatenate([mid, hi[bad]])
            new_sf, new_pdf = _law_at(ch, panel_nodes(new_lo, new_hi))
            order = np.argsort(np.concatenate([lo[~bad], new_lo]))
            lo = np.concatenate([lo[~bad], new_lo])[order]
            hi = np.concatenate([hi[~bad], new_hi])[order]
            sf = np.concatenate([sf[~bad], new_sf])[order]
            pdf = np.concatenate([pdf[~bad], new_pdf])[order]
        self.edges = np.append(lo, hi[-1])
        self.nodes, self.half = nodes, half
        self.sf, self.pdf = sf, pdf
        cdf = np.clip(_batched(ch.cdf, np.exp(self.edges)), 0.0, 1.0)
        self.low_cdf, self.top_sf = float(cdf[0]), float(1.0 - cdf[-1])
        self.top_inv = self.top_sf * math.exp(-self.edges[-1])
        self.edge_sf = 1.0 - cdf
        self.mass = panel_sums(pdf * np.exp(nodes), half)
        self.inv = panel_sums(pdf, half)
        # integrals of f over the three lowest unit spans of u, each a
        # whole number of cells, and the lowest one's error
        span = np.floor(0.5 * (lo + hi) - lo[0]).astype(int)
        self.spans = np.bincount(span, self.inv[0])[:3]
        self.span_err = float(np.bincount(span, self.inv[1])[0])

    def integral(self, vals: np.ndarray, start: int = 0) -> tuple[float, float]:
        """Sum over the cells from ``start`` up of the panel integrals of
        ``vals`` (one row of node values per cell, for all cells), and
        its error: the panels' estimates plus a rounding floor."""
        return _summed(panel_sums(vals[start:], self.half[start:]))

    def below(self, d: float) -> tuple[tuple[float, float], float]:
        """The integral of f(x)/x over the d unit spans of u below the
        table (d may be inf), and its error, and f at x = e^(u_lo - d).

        Near 0 the law behaves like c x^(P-1), so the integrals of
        f(e^u) over unit spans of u fall toward the origin by a ratio
        r = e^(1-P), read as o0/o1 from the integrals o0, o1, o2 of the
        three lowest spans.  The tail is taken at the midpoint of r's
        bracket, 4 times its drift from o1/o2 either side (a cushion for
        drifts contracting at rates down to about 0.8), with the
        bracket's half-width charged.  When only some of the o are 0
        the tail is 0 with 2 o0 charged; all 0 is a law without density
        there.
        """
        o0, o1, o2 = self.spans
        if not (o0 > 0.0 and o1 > 0.0 and o2 > 0.0):
            return (0.0, 2.0 * o0), 0.0
        r = o0 / o1
        drift = 4.0 * abs(r - o1 / o2)
        lo, _ = _power_tail(o0, max(r - drift, 0.0), d)
        hi, _ = _power_tail(o0, r + drift, d)
        _, pdf = _power_tail(o0, r, d)
        if math.isinf(hi):
            return (math.inf, math.inf), pdf
        mid = 0.5 * (lo + hi)
        return (mid, 0.5 * (hi - lo) + mid * self.span_err / o0), pdf

    def above(self, ch: EndToEndChannel, y: float) -> "_Above":
        """The unit law above y.

        For y on the table, the cells above the one holding y come from
        the table; the part of that cell above y is one fresh GK15
        panel, and the law is evaluated at its nodes and at y (one CDF
        and one density call).  Above the table the law is taken as
        empty, with S at the top edge charged.  Below it (a pinned
        tcifr cutoff, or a cutoff at a mean so high that y is below the
        table) the integral of f/x and f(y) come from the power-law
        tail (``below``), S(y) is 1 with ``low_cdf`` charged, and the
        partial panel is empty.
        """
        u = math.log(y)
        none = np.zeros((0, 15))
        if u < self.edges[0]:
            tail, pdf_y = self.below(self.edges[0] - u)
            inv = _plus(tail, _summed(self.inv))
            return _Above(y, -1, none, none[:, 0], none, none, pdf_y,
                          (1.0, self.low_cdf),
                          (inv[0], inv[1] + self.top_inv))
        if u >= self.edges[-1]:
            sf, f = _law_at(ch, np.array([u]))
            return _Above(y, -1, none, none[:, 0], none, none, float(f[0]),
                          (float(sf[0]), _EPS), (0.0, self.top_sf / y))
        k = int(np.searchsorted(self.edges, u, side="right")) - 1
        nodes = panel_nodes(np.array([u]), self.edges[k + 1:k + 2])
        half = 0.5 * (self.edges[k + 1:k + 2] - u)
        sf, f = _law_at(ch, np.append(nodes, u))
        sf_nodes, f_nodes = sf[None, :-1], f[None, :-1]
        mass = _plus(_summed(panel_sums(f_nodes * np.exp(nodes), half)),
                     _summed(tuple(v[k + 1:] for v in self.mass)))
        inv = _plus(_summed(panel_sums(f_nodes, half)),
                    _summed(tuple(v[k + 1:] for v in self.inv)))
        # S(y): 1 - F(y) while that keeps 12 digits, else the density's
        # mass above y, which keeps its relative digits in the upper tail
        survival = ((float(sf[-1]), _EPS) if sf[-1] >= _SF_DIGITS
                    else (mass[0] + self.top_sf, mass[1]))
        return _Above(y, k, nodes, half, sf_nodes, f_nodes, float(f[-1]),
                      survival, (inv[0], inv[1] + self.top_inv))

    def h_edges(self) -> np.ndarray:
        """H(y) = S(y)/y - integral_y^inf f(t)/t dt at every cell edge,
        from reverse cumulative sums of the cell integrals."""
        mass = self.top_sf + _reverse_cumsum(self.mass[0])
        sf = np.where(self.edge_sf >= _SF_DIGITS, self.edge_sf, mass)
        return sf * np.exp(-self.edges) - _reverse_cumsum(self.inv[0])


@dataclass(frozen=True)
class _Above:
    """The unit law above y: ``survival`` S(y) and ``inv``, the integral
    of f(t)/t over (y, inf), each (value, error); the partial panel of
    the cell that holds y with S and f at its nodes; and f(y)."""

    y: float
    cell: int
    nodes: np.ndarray
    half: np.ndarray
    sf: np.ndarray
    pdf: np.ndarray
    pdf_y: float
    survival: tuple[float, float]
    inv: tuple[float, float]

    def h(self) -> tuple[float, float]:
        """H(y) and its quadrature error."""
        return (self.survival[0] / self.y - self.inv[0],
                self.survival[1] / self.y + self.inv[1])


def _widen(ch: EndToEndChannel, edge: float, step: float,
           room: int) -> int:
    """Fewest unit steps from the edge u = ``edge``, at most ``room``,
    past which the unit law holds at most ``_TABLE_TOL``: F below the
    new edge for a ``step`` of -1, S above it for +1.  F is read at
    ``_TABLE_CELLS`` + 1 edges per law call."""
    steps = np.arange(_TABLE_CELLS + 1.0)
    done = 0
    while done < room:
        cdf = np.clip(_batched(ch.cdf, np.exp(edge + step * (done + steps))),
                      0.0, 1.0)
        ok = np.flatnonzero((cdf if step < 0.0 else 1.0 - cdf) <= _TABLE_TOL)
        if ok.size:
            return min(done + int(ok[0]), room)
        done += _TABLE_CELLS
    return room


def _law_at(ch: EndToEndChannel, u: np.ndarray):
    """S = 1 - F clipped to [0, 1] and f clipped to >= 0, of ``ch`` at
    x = e^u, shaped like ``u``."""
    x = np.exp(u).ravel()
    sf = np.clip(1.0 - _batched(ch.cdf, x), 0.0, 1.0)
    pdf = np.maximum(_batched(ch.pdf, x), 0.0)
    return sf.reshape(u.shape), pdf.reshape(u.shape)


def _power_tail(o0: float, r: float, d: float) -> tuple[float, float]:
    """Integral of g(u) = a r^(u_lo - u) over the d units below u_lo, if
    g integrates to ``o0`` over the unit above: o0 r (r^d - 1)/(r - 1),
    by expm1, which keeps its digits near r = 1 (o0 d at r = 1); and g
    at u_lo - d, a r^d with a = o0 r ln r/(r - 1)."""
    if r <= 0.0:
        return 0.0, 0.0
    ln_r = math.log(r)
    if ln_r == 0.0:
        return o0 * d, o0
    with np.errstate(over="ignore"):  # past the float range: inf
        grow = float(np.expm1(d * ln_r))
    scale = o0 * r / math.expm1(ln_r)
    return scale * grow, scale * ln_r * (grow + 1.0)


def _batched(fn: Callable, x: np.ndarray) -> np.ndarray:
    """``fn`` over ``x`` in calls of at most ``_LAW_BATCH`` arguments,
    which bounds the contour evaluator's node-by-argument arrays."""
    return np.concatenate([np.asarray(fn(x[i:i + _LAW_BATCH]), dtype=float)
                           for i in range(0, x.size, _LAW_BATCH)])


def _summed(panels: tuple[np.ndarray, np.ndarray]) -> tuple[float, float]:
    """Total of panel integrals and of their errors, with a rounding
    floor of 50 ulp of the absolute total (QUADPACK's floor)."""
    vals, errs = panels
    return (float(vals.sum()),
            float(errs.sum()) + 50.0 * _EPS * float(np.abs(vals).sum()))


def _plus(a: tuple[float, float], b: tuple[float, float]):
    return a[0] + b[0], a[1] + b[1]


def _reverse_cumsum(v: np.ndarray) -> np.ndarray:
    """Sums of ``v`` from each index up, with a trailing 0."""
    return np.append(np.cumsum(v[::-1])[::-1], 0.0)


def _unit_table(ch: EndToEndChannel) -> tuple[_Table, float]:
    """The table of the channel's unit law, built once and kept in the
    unit law's memo, and the channel's scale factor m."""
    base = ch.unit or ch
    return _derived(base.memo, "table", lambda: _Table(base)), ch.factor


def _sf_integral(sf: np.ndarray, kernel: np.ndarray,
                 half: np.ndarray) -> tuple[float, float]:
    """Integral over panels of S times ``kernel``, and its error.

    S is read as 1 - F, whose rounding is up to one ulp of 1 at every
    node; that noise times the integral of |kernel| is charged too.
    """
    val, err = _summed(panel_sums(sf * kernel, half))
    noise, _ = _summed(panel_sums(np.abs(kernel), half))
    return val, err + _EPS * noise


def ora(ch: EndToEndChannel,
        prelog: PrelogFactor | float = PrelogFactor()) -> PolicyResult:
    """Constant transmit power, rate tracking the channel.

    capacity = (prelog/ln 2) * integral over (0, inf) of (1-F(g))/(1+g),
    the integrated-by-parts form of E[prelog*log2(1+g)].  On the unit
    law X of a channel g = m X this is the integral over u = ln x of
    S(e^u) * m e^u/(1 + m e^u), read off the unit-law table.  Below the
    table S is taken as 1, which closes the integral with
    ln(1 + m e^u_lo); F(e^u_lo) times that closure is charged to the
    error.  Above the table S is taken as 0, and S(e^u_top) times the
    kernel at u_top is charged (see ``_Table``).
    """
    pl = _prelog(prelog)
    tab, m = _unit_table(ch)
    w = tab.nodes + math.log(m)  # m x = e^w
    val, err = _sf_integral(tab.sf, special.expit(w), tab.half)
    closure = float(np.logaddexp(0.0, tab.edges[0] + math.log(m)))
    top = tab.top_sf * float(special.expit(tab.edges[-1] + math.log(m)))
    val, err = _checked(val + closure,
                        err + tab.low_cdf * closure + top)
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
    Both forms below are integrals over the unit-law table, with
    w = ln(m x); below the table the law is closed as in ``ora``, and
    above it each form is charged S at the top edge times its kernel
    there (see ``_Table``).
    """
    pl = _prelog(prelog)
    d = params.qos_delta
    a = d * pl / LN2
    tab, m = _unit_table(ch)
    w = tab.nodes + math.log(m)  # m x = e^w
    soft = np.logaddexp(0.0, w)  # ln(1 + m x)
    soft_lo = float(np.logaddexp(0.0, tab.edges[0] + math.log(m)))
    w_top = tab.edges[-1] + math.log(m)
    soft_top = float(np.logaddexp(0.0, w_top))
    if min(a, a * ch.support_hint) <= _EFFECTIVE_PARTS_LIMIT:
        # Density-form quadrature noise on the moment is amplified by
        # 1/d in the capacity; the by-parts form E = 1 - a*int (1-F) *
        # (1+g)^(-a-1) dg enters only through a, so it stays accurate
        # down to the d -> 0 limit.  It does the same when the channel
        # barely reaches past 0 (low SNR), where 1 - E is small too.
        tail, err = _sf_integral(tab.sf, np.exp(w - (a + 1.0) * soft),
                                 tab.half)
        closure = -math.expm1(-a * soft_lo) / a
        top = tab.top_sf * math.exp(w_top - (a + 1.0) * soft_top)
        tail, err = _checked(tail + closure,
                             err + tab.low_cdf * closure + top)
        val, err = 1.0 - a * tail, a * err
    else:
        tail = None
        val, err = tab.integral(tab.pdf * np.exp(tab.nodes - a * soft))
        # the mass F(e^u_lo) below the table sees a kernel in
        # [(1 + m e^u_lo)^-a, 1]: take the midpoint, charge half the span
        low = math.exp(-a * soft_lo)
        top = tab.top_sf * math.exp(-a * soft_top)
        val, err = _checked(val + 0.5 * tab.low_cdf * (1.0 + low),
                            err + 0.5 * tab.low_cdf * (1.0 - low) + top)
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

    E[1/X] of the unit law is the table's cell integrals of f/x, its
    power-law tail to the origin (``_Table.below``) and its charge
    above the table.  A tail ratio bracket that reaches 1 means P <= 1
    within resolution (the log case P = 1 too): the moment diverges,
    and ``DivergentIntegral`` is raised.  The moment, or its
    divergence, is kept in the unit law's memo and divided by the
    factor c of a channel cX at every mean.
    """
    def unit():
        tab, _ = _unit_table(ch)
        tail, _ = tab.below(math.inf)
        if math.isinf(tail[1]):
            raise DivergentIntegral("inverse-SNR moment diverges")
        m, err = _plus(tail, _summed(tab.inv))
        return _checked(m, err + tab.top_inv)

    m, err = _derived((ch.unit or ch).memo, "inverse_moment", unit)
    return m / ch.factor, err / ch.factor


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


def tcifr(ch: EndToEndChannel, cutoff: float | None,
          prelog: PrelogFactor | float = PrelogFactor()) -> PolicyResult:
    """Truncated channel inversion: suspend below ``cutoff``.

    capacity = (prelog/ln 2) * ln(1 + 1/T) * (1 - F(cutoff)) with
    T the inverse moment restricted to (cutoff, inf).  Both are read
    off the unit-law table above y = cutoff/m.  A ``cutoff`` of None
    takes the channel's solved ``opra`` cutoff, reuses that solve's
    panel and is charged what the solve's residual can move it by.
    """
    if cutoff is None:
        cut = _cutoff(ch)
        return _tcifr(ch, _prelog(prelog), cut.solve.root, cut.above,
                      cut.h_err)
    if not cutoff > 0.0:
        raise ValueError(f"tcifr cutoff must be positive, got {cutoff}")
    tab, m = _unit_table(ch)
    return _tcifr(ch, _prelog(prelog), cutoff,
                  tab.above(ch.unit or ch, cutoff / m), 0.0)


def _tcifr(ch: EndToEndChannel, pl: float, cutoff: float, above: "_Above",
           h_err: float) -> PolicyResult:
    m = ch.factor
    t, t_err = above.inv[0] / m, above.inv[1] / m
    coverage = above.survival[0]
    if t <= 0.0 or coverage <= 0.0:
        return PolicyResult(
            capacity=0.0, cutoff=cutoff, quad_error=ch.resolution_error,
            diagnostic="no usable probability mass above the cutoff",
        )
    rate = math.log1p(1.0 / t)
    cap = pl / LN2 * rate * coverage
    # d capacity / d T = -(prelog/ln 2) * coverage / (T^2 + T)
    err = coverage * t_err / (t * t + t) + rate * above.survival[1]
    if h_err:
        # a cutoff condition off by h_err puts the unit-law root off by
        # h_err * y^2 / S(y), and d(rate * coverage)/dy =
        # f(y) * (coverage / (y m (T^2 + T)) - rate)
        y = above.y
        slope = above.pdf_y * abs(coverage / (y * m * (t * t + t)) - rate)
        err += slope * (h_err * y) * (y / coverage)
    return PolicyResult(
        capacity=cap, cutoff=cutoff,
        quad_error=_fold_mass(pl / LN2 * err, ch, cap),
    )


@dataclass(frozen=True)
class CutoffSolve:
    """A cutoff root, the Newton steps it took (one fresh panel each, or
    below the table one read of the power-law tail), and the residual
    |G| of the cutoff condition there."""

    root: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class _Cutoff:
    """A cutoff solve, the unit law above its root (its last Newton
    panel), and h_err: |H - m| plus H's quadrature error at the root,
    what the root's condition may be off by."""

    solve: CutoffSolve
    above: "_Above"
    h_err: float


_DEGRADED = ("no power-adaptation cutoff above 1e-12; the channel is too "
             "degraded for power adaptation to satisfy its budget")


def _cutoff_solve(ch: EndToEndChannel) -> _Cutoff:
    """Root of the power-adaptation cutoff condition, in (0, 1].

    On the unit law X of g = m X, with y = cutoff/m, the condition is
    H(y) = S(y)/y - integral_y^inf f(t)/t dt = m.  H is decreasing with
    H'(y) = -S(y)/y^2, so the edge values of H (reverse sums of the
    table's cell integrals) bracket the root in one cell, and Newton's
    method in u = ln y finishes there.  Each Newton step is one fresh
    GK15 panel on the part of the cell above y; a step that leaves the
    bracket bisects it.  At a mean so high that H at the lowest edge is
    below m, H(y) <= 1/y puts the root at or below y = 1/m, and Newton
    runs on the bracket from there down to a unit below the floor, each
    step one read of the table's power-law tail, with S(y) taken as 1
    and the law not evaluated (see ``_Table.above``).
    The residual is |H/m - 1| = |G| of the cutoff condition in g.  A
    root below 1e-12 raises ``RootNotBracketed``.
    """
    tab, m = _unit_table(ch)
    if m * math.exp(tab.edges[-1]) < _CUTOFF_FLOOR:
        raise RootNotBracketed(_DEGRADED)
    h = tab.h_edges()
    if h[0] >= m:
        k = int(np.flatnonzero(h >= m)[-1])
        if k == h.size - 1:
            raise RootNotBracketed(_DEGRADED)
        lo, hi = tab.edges[k], tab.edges[k + 1]
        # first guess: ln H linear in u across the cell
        u = lo + (hi - lo) * (math.log(h[k] / m) / math.log(h[k] / h[k + 1])
                              if h[k + 1] > 0.0 else 0.5)
    else:
        # a root under the floor converges below it, and raises below
        lo = math.log(_CUTOFF_FLOOR / m) - 1.0
        u = hi = min(tab.edges[0], -math.log(m))
        if not lo < hi:
            raise RootNotBracketed(_DEGRADED)
    panels = 0
    while True:
        above = tab.above(ch.unit or ch, math.exp(u))
        panels += 1
        hv, h_quad = above.h()
        g = hv / m - 1.0
        if abs(g) < _CUTOFF_RESIDUAL or panels >= _CUTOFF_MAX_NEWTON:
            break
        if g > 0.0:
            lo = u
        else:
            hi = u
        if hi - lo <= 4.0 * _EPS * max(1.0, abs(u)):
            break  # the bracket is down to rounding
        slope = above.survival[0] / above.y  # -dH/du
        u_new = u + (hv - m) / slope if slope > 0.0 else math.nan
        u = u_new if lo < u_new < hi else 0.5 * (lo + hi)
    root = m * above.y
    if root < _CUTOFF_FLOOR:
        raise RootNotBracketed(_DEGRADED)
    return _Cutoff(CutoffSolve(root, panels, abs(g)), above,
                   abs(hv - m) + h_quad)


def _cutoff(ch: EndToEndChannel) -> _Cutoff:
    """The cutoff solve, or its error, once per channel (a cutoff is not
    scale-equivariant, so the memo of the unit law cannot hold it)."""
    return _derived(ch.memo, "cutoff", lambda: _cutoff_solve(ch))


def opra_cutoff(ch: EndToEndChannel) -> float:
    """Cutoff SNR below which joint power/rate adaptation suspends.

    Solves integral_x^inf (1/x - 1/g) f(g) dg = 1 on the unit-law
    table (see ``_cutoff_solve``); the root lies in (0, 1] for any
    well-posed channel and the solver raises ``RootNotBracketed``
    otherwise instead of clamping.  Each channel is solved once; later
    calls read the solve or its error.
    """
    return _cutoff(ch).solve.root


def opra_cutoff_details(ch: EndToEndChannel) -> CutoffSolve:
    """Cutoff solve with its Newton panel count and final residual."""
    return _cutoff(ch).solve


def _opra(ch: EndToEndChannel, pl: float) -> PolicyResult:
    cut = _cutoff(ch)
    tab, _ = _unit_table(ch)
    above = cut.above
    u, start = math.log(above.y), above.cell + 1
    # integral over u > ln y of S, with the table's charge above it
    ones = np.ones_like(tab.nodes)
    val, e_sf = _plus(_sf_integral(above.sf, ones[:1], above.half),
                      _sf_integral(tab.sf[start:], ones[start:],
                                   tab.half[start:]))
    e_sf += tab.top_sf

    # Independent route: E[log(g/cutoff); g > cutoff], equal by parts.
    def log_ratio(nodes, pdf):
        return pdf * np.exp(nodes) * (nodes - u)

    # up to the top edge T the two routes differ by S(T) ln(T/y)
    chk, e_f = _plus(
        _summed(panel_sums(log_ratio(above.nodes, above.pdf), above.half)),
        tab.integral(log_ratio(tab.nodes, tab.pdf), start))
    chk += tab.top_sf * (tab.edges[-1] - u)
    if u < tab.edges[0]:
        # a root below the table: there S is taken as 1 and f as 0;
        # what either misses is at most F at the lowest edge times gap
        gap = tab.edges[0] - u
        val += gap
        e_sf += tab.low_cdf * gap
        e_f += tab.low_cdf * gap
    cap = max(pl / LN2 * val, 0.0)
    cross = pl / LN2 * chk
    # a cutoff condition off by h_err moves the unit-law root by
    # h_err * y^2 / S(y), and the integral of S/y by h_err * y
    err = _fold_mass(pl / LN2 * (e_sf + e_f + cut.h_err * above.y), ch, cap)
    diagnostic = None
    if abs(cap - cross) > err:
        err = abs(cap - cross)
        diagnostic = (
            "integration-by-parts cross-check disagrees beyond the "
            "quadrature estimate"
        )
    return PolicyResult(
        capacity=cap, cutoff=cut.solve.root, quad_error=err,
        iterations=cut.solve.iterations, cross_check=cross,
        diagnostic=diagnostic,
    )


def opra(ch: EndToEndChannel,
         prelog: PrelogFactor | float = PrelogFactor()) -> PolicyResult:
    """Joint power and rate adaptation above a solved cutoff.

    capacity = (prelog/ln 2) * integral_cutoff^inf (1-F(g))/g dg; the
    density form of the same quantity is integrated independently and
    reported as ``cross_check``.  Both are reverse sums over the
    unit-law table plus the cutoff solve's partial panel.  The root
    exists for any proper SNR law (even a point mass at m has one, at
    m/(m+1)); only a numerically broken channel, or one so degraded
    that the root lies below 1e-12, surfaces as ``RootNotBracketed``.
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
        return tcifr(ch, spec.cutoff, pl)
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
