"""Fox H-function evaluation on a vertical Mellin-Barnes contour.

The integrand is assembled in log space from complex log-Gamma factors
and exponentiated once per contour node, so products of huge Gamma
magnitudes cancel instead of overflowing.  One engine serves three
jobs: the function itself, its running integral from zero (the CDF
kernel), and fused sums of kernels that share a single argument scale.

Evaluation is vectorised over batches of argument values: the Gamma
product along the contour is computed once per contour node and the
argument only enters through the phase exp(-i t ln x).  Refinement is
nested: level 2n - 1 keeps level n's nodes as its even nodes, so it
evaluates the Gamma product and the phase sum only at its n - 1 new odd
nodes and adds level n's sum, rescaled to the new peak.  Uniform nodes
let the phase factor into block-start and in-block tables, each a run
of powers of one unit complex number, so N new nodes take three complex
exponentials and about N/(2B) + B complex multiplies per argument (49 at
the first level's N = 1025, 48 at the next level's 1024 new nodes,
B = 32) instead of N/2 exponentials, plus one small matrix product.

Everything else a call does is argument-free and lives in one memo per
integrand (``_ThetaCache``): the stage-1 truncation of each (contour,
weight_power) and each refinement level's nodes and normalised weights,
which between them evaluate the Gamma product once per node.
``shared_theta`` keeps one such memo per ``HParams`` block.  Sharing it
is exact: θ(s) is built from the H rows alone, and a catalog law's mean
(its SNR point) only enters the argument delta * gamma, never the rows,
so every SNR point, call and model instance with the same block reuses
the same arrays.  Integrands
whose coefficients move with the mean (Malaga's fused series carries
log delta) wrap a memo of their own with ``cached_theta`` instead.
Constants bound both: ``_GRID_ENTRIES`` truncations, levels and kept
log-integrands per memo, ``_SHARED_MEMOS`` shared blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContourAbscissaTooLarge,
    ContourNotConverged,
    DivergentIntegral,
    EmptyContourGap,
    IntegrandOverflow,
    InvalidOrder,
    NonPositiveScale,
    PoleAtNonPositiveInteger,
)

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

# Lanczos approximation, g = 607/128 with 15 coefficients.  Relative
# error stays at the few-ulp level on Re(z) >= 0.5.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])

Pair = tuple[float, float]


def _lanczos_log_gamma(z: np.ndarray) -> np.ndarray:
    # Valid for Re(z) >= 0.5 only; callers reflect first.
    acc = np.full_like(z, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[k] / (z + (k - 1.0))
    t = z + (_LANCZOS_G - 0.5)
    return 0.5 * _LOG_2PI + (z - 0.5) * np.log(t) - t + np.log(acc)


def _log_sin_pi_upper(z: np.ndarray) -> np.ndarray:
    # Branch of log sin(pi z) on Im(z) >= 0 chosen so the reflection
    # formula lands on the principal branch of log-Gamma.
    return (
        (-math.log(2.0) + 0.5j * math.pi)
        - 1j * math.pi * z
        + np.log1p(-np.exp(2j * math.pi * z))
    )


def log_gamma_complex(z):
    """Principal-branch log-Gamma for complex arguments.

    Accepts scalars or arrays.  Matches the continuous-from-above
    convention on the negative real axis (imaginary part -pi at
    z = -0.5 + 0j is *not* used: +0j maps to the upper side).
    """
    arr = np.asarray(z, dtype=np.complex128)
    scalar = arr.ndim == 0
    work = np.atleast_1d(arr).copy()

    real_axis = work.imag == 0.0
    if np.any(real_axis & (work.real <= 0.0) & (work.real == np.floor(work.real))):
        raise PoleAtNonPositiveInteger("log-Gamma pole at a non-positive integer")

    flip = np.signbit(work.imag)
    work = np.where(flip, np.conj(work), work)
    out = np.empty_like(work)

    right = work.real >= 0.5
    if np.any(right):
        out[right] = _lanczos_log_gamma(work[right])
    left = ~right
    if np.any(left):
        zl = work[left]
        out[left] = _LOG_PI - _log_sin_pi_upper(zl) - _lanczos_log_gamma(1.0 - zl)

    out = np.where(flip, np.conj(out), out)
    if scalar:
        return complex(out[0])
    return out.reshape(arr.shape)


def _real_log_gamma_signed(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign) for real x; sign 0.0 marks a pole."""
    if x > 0.0:
        return math.lgamma(x), 1.0
    if x == math.floor(x):
        return math.inf, 0.0
    mag = math.lgamma(x)
    sign = -1.0 if math.floor(x) % 2 != 0 else 1.0
    return mag, sign


@dataclass(frozen=True)
class HParams:
    """Orders and parameter rows of H^{m,n}_{p,q}.

    ``upper`` holds the (a_j, A_j) rows, ``lower`` the (b_j, B_j) rows.
    The first ``n`` upper and first ``m`` lower rows are the numerator
    families.
    """

    m: int
    n: int
    upper: tuple[Pair, ...] = ()
    lower: tuple[Pair, ...] = ()

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class ContourSpec:
    """Vertical contour Re(s) = c and its refinement budget."""

    c: float
    half_length: float = 60.0
    max_points: int = 65536
    rel_tol: float = 1e-10


def validate(params: HParams) -> None:
    """Raise if the parameter block cannot define a usable H-function."""
    if not isinstance(params.m, int) or not isinstance(params.n, int):
        raise InvalidOrder("orders m and n must be integers")
    if not 0 <= params.n <= params.p:
        raise InvalidOrder(f"n={params.n} outside [0, p={params.p}]")
    if not 0 <= params.m <= params.q:
        raise InvalidOrder(f"m={params.m} outside [0, q={params.q}]")
    for a, aa in params.upper:
        if not (math.isfinite(a) and math.isfinite(aa)):
            raise InvalidOrder("non-finite upper row")
        if aa <= 0.0:
            raise NonPositiveScale(f"upper scale {aa} must be positive")
    for b, bb in params.lower:
        if not (math.isfinite(b) and math.isfinite(bb)):
            raise InvalidOrder("non-finite lower row")
        if bb <= 0.0:
            raise NonPositiveScale(f"lower scale {bb} must be positive")
    left, right = pole_gap(params)
    if left >= right:
        raise EmptyContourGap(
            f"left pole bound {left:g} does not clear right pole bound {right:g}"
        )


def pole_gap(params: HParams) -> tuple[float, float]:
    """(sup of left poles, inf of right poles) of the contour integrand."""
    left = -math.inf
    for b, bb in params.lower[: params.m]:
        left = max(left, -b / bb)
    right = math.inf
    for a, aa in params.upper[: params.n]:
        right = min(right, (1.0 - a) / aa)
    return left, right


def select_contour(
    params: HParams,
    *,
    upper_bound: float | None = None,
) -> ContourSpec:
    """Abscissa strictly inside the pole gap.

    Midpoint when both families bound the strip; one unit inside the
    single bound otherwise.  ``upper_bound`` tightens the right edge,
    which the CDF kernel uses to stay left of its weight pole.
    """
    left, right = pole_gap(params)
    if upper_bound is not None:
        right = min(right, upper_bound)
    if left >= right:
        raise EmptyContourGap(f"no contour strip in ({left:g}, {right:g})")
    if math.isfinite(left) and math.isfinite(right):
        c = 0.5 * (left + right)
    elif math.isfinite(left):
        c = left + 1.0
    elif math.isfinite(right):
        c = right - 1.0
    else:
        c = 0.0
    return ContourSpec(c=c)


def log_theta(params: HParams) -> Callable[[np.ndarray], np.ndarray]:
    """log of the Gamma-product contour integrand as a function of s."""
    num_lower = params.lower[: params.m]
    num_upper = params.upper[: params.n]
    den_upper = params.upper[params.n:]
    den_lower = params.lower[params.m:]

    def fn(s: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(s)
        for b, bb in num_lower:
            acc = acc + log_gamma_complex(b + bb * s)
        for a, aa in num_upper:
            acc = acc + log_gamma_complex(1.0 - a - aa * s)
        for a, aa in den_upper:
            acc = acc - log_gamma_complex(a + aa * s)
        for b, bb in den_lower:
            acc = acc - log_gamma_complex(1.0 - b - bb * s)
        return acc

    return fn


_PHASE_BLOCK = 32  # nodes per block of the factored phase sum


def _powers(base: np.ndarray, count: int, first) -> np.ndarray:
    """Rows first * base**j, j < count, by doubling: rows [k, 2k) are
    rows [0, k) times base**k, and base**k is squared for the next pass.
    For a unit ``base`` = exp(-i phi) the phase error of row j grows like
    j times that of ``base``, as exp(-i j phi) rounds j phi itself."""
    out = np.empty((count,) + base.shape, dtype=complex)
    out[0] = first
    k = 1
    while k < count:
        np.multiply(out[: min(k, count - k)], base, out=out[k: 2 * k])
        base = base * base
        k *= 2
    return out


def _oscillatory_sums(w: np.ndarray, t: np.ndarray, ln_x: np.ndarray):
    """Paired-real and raw-imag trapezoid sums of w(t) * exp(-i t ln x).

    The integrand is conjugate-symmetric in t for real parameters, so
    the value is accumulated from symmetric pairs (which is exactly
    real); the leftover imaginary part of the raw sum is returned as a
    rounding diagnostic.  ``t`` is uniform and symmetric about 0: an
    odd-length set holds the centre node t = 0, an even-length one (a
    refinement level's new odd nodes) has none.

    On a half-line of uniform nodes t_0 + j h the phase of node aB + b
    factors into exp(-i (t_0 + aBh) ln x) exp(-i bh ln x).  One matrix
    product sums each block of B = ``_PHASE_BLOCK`` weights against the
    B x nx in-block table y**b, y = exp(-i h ln x); the A block sums are
    then weighted by the A x nx block-start table exp(-i t_0 ln x) z**a,
    z = exp(-i Bh ln x), and added.  ``_powers`` builds both tables from
    y, z and exp(-i t_0 ln x), three exponentials per argument.  The
    t < 0 half enters as conj(w) and shares both tables; the sum changes
    only in order and rounding.
    """
    half = len(t) // 2  # first node of the t >= 0 half
    t_pos = t[half:]
    block = min(_PHASE_BLOCK, len(t_pos))  # B
    rows = -(-len(t_pos) // block)  # A
    weights = np.zeros((2, rows * block), dtype=complex)
    # t >= 0, then t <= 0 mirrored
    weights[:, : len(t_pos)] = w[half:], np.conj(w[len(t) - half - 1::-1])
    if len(t) % 2:
        weights[:, 0] *= 0.5  # t = 0 shared between the two half-lines
    weights = weights.reshape(2 * rows, block)
    h = (t_pos[-1] - t_pos[0]) / (len(t_pos) - 1)

    total = np.empty(ln_x.shape, dtype=complex)
    chunk = max(1, int(2_000_000 / (3 * rows + block)))  # cells per argument
    for i in range(0, len(ln_x), chunk):
        lx = ln_x[i: i + chunk]
        sums = weights @ _powers(np.exp(-1j * h * lx), block, 1.0)
        sums = sums.reshape(2, rows, len(lx))
        sums *= _powers(np.exp(-1j * (block * h) * lx), rows,
                        np.exp(-1j * t_pos[0] * lx))
        fwd, bwd = sums.sum(axis=1)
        total[i: i + chunk] = fwd + np.conj(bwd)
    return total.real, total.imag


def mellin_barnes(
    theta: Callable[[np.ndarray], np.ndarray],
    contour: ContourSpec,
    x,
    *,
    weight_power: float | None = None,
):
    """(1/2pi) integral of exp(theta(s)) x^{-s} along Re(s) = contour.c.

    With ``weight_power`` = p the integrand gains 1/(p + 1 - s) and the
    result gains x^{p+1}, turning H(x) into its running integral
    int_0^x t^p H(t) dt.  Returns ``(value, error)`` with the shapes of
    ``x``.  Trapezoid levels of 1025, 2049, 4097, ... nodes are nested,
    so each level after the first sums only its new odd nodes.  The
    error estimate folds in the refinement delta between the last two
    levels, the rounding floor of the node sum, and the residual
    imaginary part, all scaled like the value.  A ``theta`` from ``cached_theta``
    or ``shared_theta`` keeps its argument-free work for later calls;
    any other callable gets a memo for this call only.
    """
    memo = theta if isinstance(theta, _ThetaCache) else _ThetaCache(theta)
    c = contour.c

    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    xv = np.atleast_1d(x_arr).ravel()
    if np.any(xv <= 0.0):
        raise ValueError("H-function argument must be positive")
    ln_x = np.log(xv)

    # Stage 1 and every level's node weights are x-independent and
    # memoised; only the phase sums below see the arguments.
    half = memo.truncation(contour, weight_power)

    # Stage 2: nested trapezoid refinement at fixed truncation.  Level
    # 2n - 1 keeps level n's nodes as its even nodes, so its raw sum is
    # level n's, rescaled to the new peak, plus the sum over its n - 1
    # new odd nodes (a symmetric set without the centre node).
    n = 1025
    prev = None
    prev_scale = None
    value_scaled = None
    err_scaled = None
    while True:
        t, re_max, w, w_abs = memo.level(contour, weight_power, half, n)
        step = 2.0 * half / (n - 1)
        if prev is None:
            sums, resid = _oscillatory_sums(w, t, ln_x)
        else:
            odd_sums, odd_resid = _oscillatory_sums(w[1::2], t[1::2], ln_x)
            rescale = math.exp(prev_scale - re_max)
            sums = sums * rescale + odd_sums
            resid = resid * rescale + odd_resid
        cur = sums * (step / (2.0 * math.pi))
        cur_resid = np.abs(resid) * (step / (2.0 * math.pi))
        floor = w_abs * (step / (2.0 * math.pi)) * 1e-15
        if prev is not None:
            delta = np.abs(cur - prev * math.exp(prev_scale - re_max))
            ok = delta <= np.maximum(contour.rel_tol * np.abs(cur), floor)
            if bool(np.all(ok)):
                value_scaled = cur
                err_scaled = delta + floor + cur_resid
                break
        if n - 1 >= contour.max_points:
            raise ContourNotConverged(
                f"no convergence with {n - 1} contour points at |Im s| <= {half:g}"
            )
        prev = cur
        prev_scale = re_max
        n = 2 * n - 1

    expo = re_max - c * ln_x
    if weight_power is not None:
        expo = expo + (weight_power + 1.0) * ln_x
    live = np.abs(value_scaled) > 0.0
    if np.any(expo[live] > 709.0):
        raise IntegrandOverflow("contour integral magnitude exceeds float range")
    with np.errstate(over="ignore", under="ignore"):
        scale = np.exp(np.minimum(expo, 709.0))
    value = value_scaled * scale
    error = err_scaled * scale
    if scalar:
        return float(value[0]), float(error[0])
    return value.reshape(x_arr.shape), error.reshape(x_arr.shape)


def eval_h(params: HParams, x, contour: ContourSpec | None = None):
    """H-function value(s) at positive x; returns (value, error)."""
    validate(params)
    if contour is None:
        contour = select_contour(params)
    return mellin_barnes(shared_theta(params), contour, x)


def eval_h_cdf_kernel(
    params: HParams,
    x,
    contour: ContourSpec | None = None,
    *,
    gamma_power: float = 0.0,
):
    """Running integral int_0^x t^gamma_power H(t) dt, as (value, error).

    The weight adds a pole at s = gamma_power + 1, so the contour must
    stay strictly left of it; ``ContourAbscissaTooLarge`` reports when
    the pole gap leaves no room.
    """
    validate(params)
    cap = gamma_power + 1.0
    if contour is None:
        left, right = pole_gap(params)
        if left >= min(right, cap):
            raise ContourAbscissaTooLarge(
                f"running-integral weight needs Re(s) < {cap:g} but left poles "
                f"reach {left:g}"
            )
        contour = select_contour(params, upper_bound=cap)
    elif contour.c >= cap:
        raise ContourAbscissaTooLarge(
            f"contour abscissa {contour.c:g} not left of weight pole {cap:g}"
        )
    return mellin_barnes(
        shared_theta(params), contour, x, weight_power=gamma_power
    )


def mellin_moment(
    params: HParams,
    kappa: float,
    delta: float,
    order: float,
) -> float:
    """E[x^order] for the density kappa * H(delta x).

    Uses the closed Mellin form of the kernel, so the only numerics are
    real log-Gamma evaluations.  Raises ``DivergentIntegral`` when the
    requested order leaves the convergence strip.
    """
    validate(params)
    if delta <= 0.0 or kappa <= 0.0:
        raise NonPositiveScale("moment needs positive kappa and delta")
    s0 = order + 1.0
    left, right = pole_gap(params)
    if not (left < s0 and (params.n == 0 or s0 < right)):
        raise DivergentIntegral(
            f"moment abscissa {s0:g} outside convergence strip ({left:g}, {right:g})"
        )
    log_mag = math.log(kappa) - s0 * math.log(delta)
    sign = 1.0
    for b, bb in params.lower[: params.m]:
        log_mag += math.lgamma(b + bb * s0)
    for a, aa in params.upper[: params.n]:
        log_mag += math.lgamma(1.0 - a - aa * s0)
    for a, aa in params.upper[params.n:]:
        mag, sgn = _real_log_gamma_signed(a + aa * s0)
        if sgn == 0.0:
            return 0.0
        log_mag -= mag
        sign *= sgn
    for b, bb in params.lower[params.m:]:
        mag, sgn = _real_log_gamma_signed(1.0 - b - bb * s0)
        if sgn == 0.0:
            return 0.0
        log_mag -= mag
        sign *= sgn
    if log_mag > 709.0:
        raise IntegrandOverflow("moment magnitude exceeds float range")
    return sign * math.exp(log_mag)


_GRID_ENTRIES = 48  # truncations, levels, log-integrands held per memo
_SHARED_MEMOS = 64  # parameter blocks whose memos are shared at once
# terms of a fused series between rescalings of its Horner sum: at up to
# 1e19 growth per term (r_k |s + k|) the sum stays below the float range
_SERIES_RESCALE = 16


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _ThetaCache:
    """Memo of all argument-free contour work for one integrand.

    Two things along Re(s) = c do not depend on the argument batch: the
    stage-1 truncation of each (contour, weight_power), and each
    refinement level's nodes, peak log-magnitude, end-halved weights and
    weight mass.  A level's log-integrand is also kept until the next
    finer level takes it over as its even nodes, so a chain of nested
    levels evaluates the Gamma product once per node.  Calling the memo
    evaluates the Gamma product unmemoised.  A truncation that fails to converge is not stored, so it
    raises again on the next call.  Every entry is a pure function of its
    key, so threads sharing a memo at worst compute an entry twice.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self._fn = fn
        self._halves: dict[tuple, float] = {}
        self._levels: dict[tuple, tuple] = {}
        self._logs: dict[tuple, np.ndarray] = {}  # awaiting the next level

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self._fn(s)

    def _log_integrand(self, s, weight_power):
        v = self(s)
        if weight_power is not None:
            v = v - np.log(weight_power + 1.0 - s)
        return v

    def truncation(self, contour: ContourSpec, weight_power) -> float:
        """Half-length at which the integrand tails are dead (stage 1)."""
        key = (contour, weight_power)
        half = self._halves.get(key)
        if half is not None:
            return half
        # x only contributes a unimodular phase, so this is x-independent.
        c = contour.c
        half = contour.half_length
        t_cap = 16.0 * contour.half_length
        while True:
            probe = self._log_integrand(
                c + 1j * np.linspace(-half, half, 129), weight_power).real
            if max(probe[0], probe[-1]) <= probe.max() - 41.5:  # ln 1e-18
                break
            if half >= t_cap:
                raise ContourNotConverged(
                    f"contour integrand still "
                    f"{probe.max() - max(probe[0], probe[-1]):.1f} "
                    f"nats above its tail at |Im s| = {half:g}"
                )
            half *= 2.0
        _put(self._halves, key, half)
        return half

    def level(self, contour: ContourSpec, weight_power, half: float, n: int):
        """(t, re_max, w, sum |w|) of the n-node trapezoid level.

        An odd n reuses the log-integrand of level (n + 1) // 2, whose
        nodes are this level's even nodes, and evaluates θ only at the
        new odd nodes.  That coarse log-integrand is consumed here; when
        it is missing (never built, or lost to a store clear) every node
        is evaluated, with bitwise the same result.
        """
        key = (contour, weight_power, half, n)
        hit = self._levels.get(key)
        if hit is None:
            t = np.linspace(-half, half, n)
            coarse = (self._logs.pop((contour, weight_power, half,
                                      (n + 1) // 2), None)
                      if n % 2 else None)
            if coarse is None:
                lg = self._log_integrand(contour.c + 1j * t, weight_power)
            else:
                lg = np.empty(n, dtype=complex)
                lg[::2] = coarse
                lg[1::2] = self._log_integrand(contour.c + 1j * t[1::2],
                                               weight_power)
            re_max = float(lg.real.max())
            w = np.exp(lg - re_max)
            w[0] *= 0.5
            w[-1] *= 0.5
            hit = (_frozen(t), re_max, _frozen(w), float(np.sum(np.abs(w))))
            _put(self._logs, key, _frozen(lg))
            _put(self._levels, key, hit)
        return hit


def _put(store: dict, key, value) -> None:
    if len(store) >= _GRID_ENTRIES:
        store.clear()
    store[key] = value


def cached_theta(fn: Callable[[np.ndarray], np.ndarray]):
    """Wrap a contour integrand in a fresh memo of its own."""
    return _ThetaCache(fn)


@functools.lru_cache(maxsize=_SHARED_MEMOS)
def shared_theta(params: HParams) -> _ThetaCache:
    """The one memo of ``log_theta(params)``, shared by every caller.

    θ(s) is a function of the parameter rows alone, so every argument
    batch, every mean of a scale family and every model instance with
    the same block may share the memo exactly.
    """
    return _ThetaCache(log_theta(params))


def fused_series_theta(
    base_rows: Sequence[Pair],
    log_weights: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Contour integrand of sum_k w_k * H(... (k, 1) row ...).

    Represents a series of H^{m,0}_{0,m} kernels that differ only by an
    integer-stepped lower row (k, 1), k = 0, 1, ..., all sharing one
    argument scale.  ``base_rows`` are the common (b, B) rows and
    ``log_weights[k]`` is ln(w_k).  Trailing zero weights (ln w = -inf,
    as Malaga's mixture has when its line-of-sight power is zero) add
    exactly nothing and are dropped; every other ln-weight must be
    finite.  By Gamma(s + k) = Gamma(s) (s)(s + 1)...(s + k - 1) the
    series is e^{lw_0} Gamma(s) a_0, summed by Horner's scheme in ratio
    form from a_{K-1} = 1: a_k = 1 + r_k (s + k) a_{k+1}, with
    r_k = e^{lw_{k+1} - lw_k}.  Every ``_SERIES_RESCALE`` terms a is
    divided by |a| at each node and ln|a| is kept in a per-node scale,
    which the 1 carries too.  So each term costs one complex
    multiply-add per node, and memory stays at a few node-length arrays
    whatever the number of terms; log Gamma(s) and the base rows are
    added once at the end.  At 320 terms (fig2_malaga) a call on 1,025
    nodes takes about 2.7 ms on 2 cores, and on fig2_malaga's outage
    sweep the series takes about half the time of the phase sums.
    """
    lw = np.asarray(log_weights, dtype=float)
    keep = len(lw)
    while keep > 1 and lw[keep - 1] == -np.inf:
        keep -= 1
    lw = lw[:keep]
    if not np.all(np.isfinite(lw)):
        raise ValueError("series ln-weights must be finite, apart from"
                         " trailing zero weights")
    ratios = np.exp(np.diff(lw))
    rows = tuple(base_rows)

    def fn(s: np.ndarray) -> np.ndarray:
        acc = log_gamma_complex(s) + lw[0]
        for b, bb in rows:
            acc = acc + log_gamma_complex(b + bb * s)
        a = np.ones_like(s)  # a_k scaled by exp(-scale)
        one = np.ones(s.shape)  # the 1 of the recurrence, scaled alike
        scale = np.zeros(s.shape)
        step = np.empty_like(s)
        for k in range(len(ratios) - 1, -1, -1):
            np.add(s, k, out=step)
            step *= ratios[k]
            a *= step
            a.real += one
            if k % _SERIES_RESCALE == 0:
                mag = np.abs(a)
                a /= mag
                one /= mag
                scale += np.log(mag)
        return acc + scale + np.log(a)

    return fn
