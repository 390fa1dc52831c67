"""Scalar solvers backing every closed form in the allocator.

One root solver: the monotone family  z*ln(z) + (Y - 1)*z + 1 = X  whose
unique root z > 1 fixes the charging-time and price-response expressions.
It works in u = z - 1, where every caller's cancellation lives.  The
principal branch of the Lambert W function is its Y = 0 case.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

_BRANCH_POINT = -1.0 / math.e
# solve_z stops once |residual| <= _ABS_TOL * (X - Y); _MAX_ITER Newton steps at most
_ABS_TOL = 1e-12
_MAX_ITER = 100


def lambert_w0(x: float) -> float:
    """Principal branch W(x): the w >= -1 with w * exp(w) = x.

    Defined for x >= -1/e.  With z = exp(w + 1), w * exp(w) = x becomes
    z*ln(z) - z + 1 = e*x + 1, so W is the Y = 0 case of ``solve_z``.
    """
    if x < _BRANCH_POINT:
        if x > _BRANCH_POINT * (1.0 + 1e-14) - 1e-300:
            x = _BRANCH_POINT  # round-off guard
        else:
            raise DomainError(f"lambert_w0 needs x >= -1/e, got {x}")
    a = math.e * x + 1.0
    if a <= 0.0:
        return -1.0
    return math.log(solve_z(a, 0.0)) - 1.0


def solve_z(x_target: float, y_coef: float) -> float:
    """Unique root z > 1 of  z*ln(z) + (y_coef - 1)*z + 1 = x_target.

    The left side is increasing for z > 1 with value y_coef at z = 1, so a
    root above 1 exists iff x_target > y_coef.  In u = z - 1 the equation is
    h(u) + Y*u = X - Y with h(u) = (1 + u)*log1p(u) - u convex, so near the
    branch point u keeps the digits that z - 1 would cancel (Corless et al.,
    "On the Lambert W function", 1996, section 4).  Newton with slope
    log1p(u) + Y runs inside a bracket from a cold start fixed by X - Y
    alone, so the root depends on (X, Y) and nothing else.
    """
    if y_coef < 0.0:
        raise DomainError(f"y_coef must be nonnegative, got {y_coef}")
    if x_target <= y_coef:
        raise DomainError(f"need x_target > y_coef, got X={x_target}, Y={y_coef}")

    d = x_target - y_coef
    lo, hi = 0.0, x_target + 1.0
    u = math.sqrt(2.0 * d) if d < 1.0 else d / math.log1p(d)

    tol = _ABS_TOL * d
    for _ in range(_MAX_ITER):
        log1p_u = math.log1p(u)
        if u < 1e-2:
            # h by its series sum_{k>=2} (-u)^k/(k(k-1)): the closed form
            # cancels for small u; eight terms reach round-off
            h = u * u * (1 / 2 - u * (1 / 6 - u * (1 / 12 - u * (1 / 20 - u * (
                1 / 30 - u * (1 / 42 - u * (1 / 56 - u / 72)))))))
        else:
            h = (1.0 + u) * log1p_u - u
        resid = h + y_coef * u - d
        if resid > 0.0:
            hi = u
        else:
            lo = u
        u_new = u - resid / (log1p_u + y_coef)
        if abs(resid) <= tol:
            # one last Newton step leaves the error quadratic in the residual
            return 1.0 + u_new
        if not lo <= u_new <= hi:
            u_new = 0.5 * (lo + hi)  # bisection fallback
        u = u_new
    raise ConvergenceError(
        f"solve_z did not converge for X={x_target}, Y={y_coef}"
    )
