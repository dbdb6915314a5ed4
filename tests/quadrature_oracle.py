"""The quadrature oracle for the zero-kappa amplitude ODE.

Test helper: ln a0(tau) - ln a0(tau0) for kappa = 0 is the integral of the
linear term, which vertexreg sums with its own Gauss rule (the ODE route's
_linear_path and the m=2 period sum). This computes the same integral with
scipy's QUADPACK instead: over the whole of [ln tau0, ln tau] for m=1, and
for m=2 over each interval between the period sum's carrier cuts.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from vertexreg import criterion, funcs
from vertexreg.errors import QuadratureError
from vertexreg.funcs import SlowGrowthFn


def _per_ln_tau(s: float, ode: criterion.CriterionODE) -> float:
    """The linear term per unit ln tau, at ln tau = s."""
    t = math.exp(s)
    return t * ode.linear_rhs(t)


def quad_piece(ode: criterion.CriterionODE, a: float, b: float,
               epsrel: float = 1e-10, limit: int = 200):
    """quad of the linear term in ln tau over [a, b], epsabs 1e-13:
    (value, abserr, flag), flag the first line of quad's message when
    QUADPACK flags the value, else None."""
    value, abserr, _, *message = quad(_per_ln_tau, a, b, args=(ode,),
                                      epsabs=1e-13, epsrel=epsrel,
                                      limit=limit, full_output=1)
    flag = " ".join(message[0].splitlines()[0].split()) if message else None
    return value, abserr, flag


def period_pieces(ode: criterion.CriterionODE, s0: float, s1: float):
    """(cuts, pieces, flags) as criterion._period_sum returns them, each
    piece by quad between its cuts; flags names each piece quad flagged."""
    cuts = criterion._period_sum(ode, s0, s1)[0]
    pieces, flags = [], []
    for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        value, abserr, flag = quad_piece(ode, a, b)
        pieces.append(value)
        if flag is not None:
            flags.append(f"quad flagged half-period {i} of {len(cuts) - 1} "
                         f"(tau {math.exp(a):.4g} to {math.exp(b):.4g}, "
                         f"abserr {abserr:.2g}): {flag}")
    return cuts, pieces, flags


def linear_closed_form(m: int, phi: SlowGrowthFn, tau: float,
                       tau0: float) -> float:
    """Quadrature value of ln a0(tau) - ln a0(tau0) for the kappa=0 system.

    m=1 integrates the sign-definite linear term directly; m=2 splits
    the oscillatory integrand at the zeros of its cosine carrier and
    sums the pieces. Both raise QuadratureError when quad flags a piece.
    """
    if tau <= tau0:
        raise ValueError("need tau > tau0")
    ode = criterion.build_criterion(m, "multiplicative", phi,
                                    funcs.lookup("zero-kappa"))
    s0, s1 = math.log(tau0), math.log(tau)
    if m == 1:
        val, abserr, flag = quad_piece(ode, s0, s1, epsrel=1e-11, limit=500)
        if flag is not None:
            raise QuadratureError(f"quad flagged the m=1 integral (tau {tau0:.4g} "
                                  f"to {tau:.4g}, abserr {abserr:.2g}): {flag}")
        return val
    _, pieces, flags = period_pieces(ode, s0, s1)
    if flags:
        raise QuadratureError("; ".join(flags))
    return sum(pieces)
