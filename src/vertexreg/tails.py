"""What every route decides by: the tail classes, the tail test, and the
rule by which an integral's class and an ODE verdict agree. This module
imports no other module of the package, so every route can import it."""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# Declared fit margins: |p-1| below _P_MARGIN falls through to the slow-log
# refinement; |q+1| below _Q_MARGIN stays Undetermined. Finite-horizon
# quadrature cannot decide cases closer to marginal than this.
_P_MARGIN = 0.02
_Q_MARGIN = 0.05

# the level at or below which a tail value counts as underflowed (e^-700
# is about 1e-304) and takes no part in the fit
_LN_TINY = -700.0


class Classification(str, Enum):
    """Tail classes. The first three belong to sign-definite integrands,
    the last two to the oscillatory fourth-order criterion."""

    DIVERGENT = "Divergent"
    CONVERGENT = "Convergent"
    UNDETERMINED = "Undetermined"
    DIVERGENT_TO_MINUS_INFINITY = "DivergentToMinusInfinity"
    BOUNDED = "Bounded"


# the vertex each tail class implies; Undetermined implies nothing
IMPLIED_REGULARITY = {
    Classification.DIVERGENT.value: "Regular",
    Classification.DIVERGENT_TO_MINUS_INFINITY.value: "Regular",
    Classification.CONVERGENT.value: "Irregular",
    Classification.BOUNDED.value: "Irregular",
}


def consistent(classification: str, verdict: str) -> Optional[bool]:
    """Whether a tail class and an ODE verdict say the same of the vertex;
    None when either is undecided (Undetermined, or not Regular or
    Irregular)."""
    implied = IMPLIED_REGULARITY.get(classification)
    if implied is None or verdict not in ("Regular", "Irregular"):
        return None
    return implied == verdict


@dataclass(frozen=True)
class TailFit:
    """Power-law tail model of the integrand.

    slope is the fitted decay exponent p (integrand ~ x^-p); refinement is
    the slow-log exponent q fitted only when p is marginal. extrapolation
    is the predicted limit of the integral: +-inf for divergent traces,
    nan when undetermined.
    """

    slope: float
    refinement: Optional[float]
    window: tuple
    extrapolation: float


def classify_decay(x, ln_f, total):
    """Tail fit of a nonnegative integrand given pointwise ln values.

    Fits ln f against ln x over the last two decades of x; points at the
    underflow floor are excluded from the fit (a floor-dominated tail is
    decisive convergence on its own). Every ln value counts, so the caller
    forms ln f without taking the ln of an underflowed f. A window with
    fewer than 8 points above the floor and none at it is Undetermined.
    """
    window = x >= x[-1] / 100.0
    lo = float(x[window][0])
    live = window & (ln_f > _LN_TINY)
    if np.count_nonzero(live) < 8:
        if np.array_equal(live, window):
            return Classification.UNDETERMINED, TailFit(
                math.nan, None, (lo, float(x[-1])), math.nan)
        return Classification.CONVERGENT, TailFit(
            math.inf, None, (lo, float(x[-1])), total)
    lx = np.log(x[live])
    lf = ln_f[live]
    p = -float(np.polyfit(lx, lf, 1)[0])
    q = None
    if p > 1.0 + _P_MARGIN:
        cls = Classification.CONVERGENT
    elif p < 1.0 - _P_MARGIN:
        cls = Classification.DIVERGENT
    else:
        q = float(np.polyfit(np.log(lx), lf + lx, 1)[0])
        if q > -1.0 + _Q_MARGIN:
            cls = Classification.DIVERGENT
        elif q < -1.0 - _Q_MARGIN:
            cls = Classification.CONVERGENT
        else:
            cls = Classification.UNDETERMINED
    if cls is Classification.CONVERGENT:
        extrapolation = total + math.exp(lf[-1]) * float(x[live][-1]) / (p - 1.0)
    elif cls is Classification.DIVERGENT:
        extrapolation = math.inf
    else:
        extrapolation = math.nan
    return cls, TailFit(p, q, (lo, float(x[-1])), extrapolation)
