"""Exception types, and the range rule of every numeric parameter."""

import math
import numbers


class RelayCapError(Exception):
    """Base class for every error raised by this package."""


class InvalidOrder(RelayCapError):
    """H-function orders (m, n) are inconsistent with the parameter rows."""


class NonPositiveScale(RelayCapError):
    """A Gamma-argument scale entry is zero or negative."""


class EmptyContourGap(RelayCapError):
    """Left and right pole families leave no vertical strip for the contour."""


class PoleAtNonPositiveInteger(RelayCapError):
    """log-Gamma requested exactly at a pole."""


class ContourNotConverged(RelayCapError):
    """Contour quadrature failed to stabilise within its point budget."""


class ContourAbscissaTooLarge(RelayCapError):
    """No admissible contour abscissa satisfies the kernel constraint."""


class IntegrandOverflow(RelayCapError):
    """Result magnitude exceeds the double precision range."""


class DivergentIntegral(RelayCapError):
    """A moment or tail integral does not converge."""


class NormalizationError(RelayCapError):
    """A density failed its total-probability sanity check."""


class GridResolutionInsufficient(RelayCapError):
    """Convolution grid lost more probability mass than allowed."""


class RootNotBracketed(RelayCapError):
    """Cutoff root search could not bracket a sign change."""


class InsufficientSamples(RelayCapError):
    """Monte Carlo sample budget is below the supported minimum."""


class UnsupportedHForm(RelayCapError):
    """The requested model has no usable H-function representation."""


class ConfigError(RelayCapError):
    """Experiment configuration is malformed."""


def check_number(name: str, value, lo: float = 0.0, hi: float = math.inf,
                 ends: str = "()", integer: bool = False):
    """``value`` if it is a finite number (an integer where ``integer``),
    not a bool, in the range from ``lo`` to ``hi`` whose ``ends`` are
    bracketed as in interval notation; else a ``ValueError`` reading
    "<name> must be ..., got <value!r>", integer bounds printed exactly."""
    try:
        ok = (isinstance(value, numbers.Integral if integer else numbers.Real)
              and not isinstance(value, bool) and math.isfinite(value)
              and (lo <= value if ends[0] == "[" else lo < value)
              and (value <= hi if ends[1] == "]" else value < hi))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        if (lo, hi) == (-math.inf, math.inf):
            rule = kind
        elif (lo, hi, ends) == (0.0, math.inf, "()"):
            rule = f"a positive {'integer' if integer else 'finite number'}"
        else:
            lo, hi = (b if isinstance(b, int) else f"{b:.15g}"
                      for b in (lo, hi))
            rule = f"{kind} in {ends[0]}{lo}, {hi}{ends[1]}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value
