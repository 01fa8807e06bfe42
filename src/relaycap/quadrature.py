"""Adaptive Gauss-Kronrod quadrature for vectorised integrands.

Every integrand in this package accepts a numpy array of abscissae and
returns an array of values, so the adaptive loop can evaluate all the
nodes of all pending panels in a single call.  That keeps the per-call
overhead of contour-integral based densities negligible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import RelayCapError

# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (QUADPACK dqk15 nodes).
_XGK_HALF = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
])
_WG_HALF = np.array([
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
])

# Full symmetric 15-node arrays, ordered left to right.
_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
# Gauss nodes sit at the odd Kronrod positions.
_WG = np.zeros(15)
_WG[1:-1:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

Integrand = Callable[[np.ndarray], np.ndarray]


def panel_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes of each panel [lo, hi], one row per panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[..., None] + half[..., None] * _XGK


def _panel_estimates(f: Integrand, lo: np.ndarray, hi: np.ndarray):
    """Kronrod value and error estimate for a batch of panels."""
    nodes = panel_nodes(lo, hi)
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return panel_sums(vals, 0.5 * (hi - lo))


def panel_sums(vals: np.ndarray, half: np.ndarray):
    """Kronrod value and error estimate of panels from their node values.

    ``vals`` holds one row of 15 values per panel, at ``panel_nodes``;
    ``half`` is each panel's half width.
    """
    resk = vals @ _WGK
    resg = vals @ _WG
    integral = resk * half
    # QUADPACK-style scaled error: sharper than |K - G| alone.
    resasc = np.abs(vals - 0.5 * resk[:, None]) @ _WGK * np.abs(half)
    raw = np.abs((resk - resg) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & np.isfinite(scaled), scaled, raw)
    return integral, err


def integrate(
    f: Integrand,
    lo: float,
    hi: float,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 0.0,
    max_panels: int = 4096,
) -> tuple[float, float]:
    """Integrate ``f`` over [lo, hi], bisecting the worst panels first.

    Returns ``(value, error_estimate)``.  The error estimate is always
    reported; hitting ``max_panels`` widens it instead of raising, so
    callers can decide how much accuracy they actually need.
    """
    if not hi > lo:
        raise RelayCapError(f"empty integration interval [{lo}, {hi}]")
    grid = np.linspace(lo, hi, 9)
    los, his = grid[:-1], grid[1:]
    vals, errs = _panel_estimates(f, los, his)

    while los.size < max_panels:
        total = vals.sum()
        budget = max(abs_tol, rel_tol * abs(total))
        if errs.sum() <= budget:
            break
        # Split the worst quarter of panels (at least one) in one batch.
        k = max(1, los.size // 4)
        worst = np.argpartition(errs, -k)[-k:]
        worst = worst[errs[worst] > budget / max(los.size, 1)]
        if worst.size == 0:
            worst = np.array([int(np.argmax(errs))])
        mids = 0.5 * (los[worst] + his[worst])
        new_lo = np.concatenate([los[worst], mids])
        new_hi = np.concatenate([mids, his[worst]])
        new_vals, new_errs = _panel_estimates(f, new_lo, new_hi)
        keep = np.ones(los.size, dtype=bool)
        keep[worst] = False
        los = np.concatenate([los[keep], new_lo])
        his = np.concatenate([his[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])

    return float(vals.sum()), float(errs.sum())


def integrate_semi_infinite(
    f: Integrand,
    lower: float = 0.0,
    *,
    scale: float = 1.0,
    rel_tol: float = 1e-8,
    abs_tol: float = 0.0,
    max_panels: int = 4096,
) -> tuple[float, float]:
    """Integrate ``f`` over [lower, inf) via the map g = lower + s*t/(1-t).

    ``scale`` sets where the unit interval puts its resolution; a good
    choice is roughly a tenth of the support of the integrand.
    """
    if scale <= 0.0:
        raise RelayCapError("semi-infinite map needs a positive scale")

    def g(t: np.ndarray) -> np.ndarray:
        u = 1.0 - t
        x = lower + scale * t / u
        return f(x) * scale / (u * u)

    return integrate(
        g, 0.0, 1.0, rel_tol=rel_tol, abs_tol=abs_tol, max_panels=max_panels
    )


def quantile_search(
    cdf: Callable[[np.ndarray], np.ndarray],
    prob: float,
    *,
    start: float = 1.0,
) -> float:
    """Approximate quantile: smallest probed x with cdf(x) >= prob.

    ``cdf`` must accept arrays; the search evaluates whole candidate
    grids per round, which matters for contour-integral channels where
    each call costs a full refinement regardless of batch size.  Four
    rounds of 24 probes leave the result accurate to about 24**-3
    relative, plenty for support hints and grid caps.
    """
    if not 0.0 < prob < 1.0:
        raise RelayCapError(f"quantile probability {prob} outside (0, 1)")
    grid = float(start) * 4.0 ** np.arange(-2, 40)
    vals = np.asarray(cdf(grid))
    idx = int(np.argmax(vals >= prob))
    if vals[idx] < prob:
        raise RelayCapError(f"no bracket for quantile {prob} below {grid[-1]:g}")
    lo = 0.0 if idx == 0 else float(grid[idx - 1])
    hi = float(grid[idx])
    for _ in range(4):
        inner = np.linspace(lo, hi, 25)[1:]
        vals = np.asarray(cdf(inner))
        j = int(np.argmax(vals >= prob))
        if vals[j] < prob:
            break
        lo = lo if j == 0 else float(inner[j - 1])
        hi = float(inner[j])
    return hi
