"""The pure-bisection critical-point solver, kept as a test-only oracle.

This is the root finder ``critical.py`` used before interpolation replaced
it: bisection of the sweep bracket down to adjacent doubles, the end with
the smaller |value| as the root, and the absolute residual certificate
|value| + tail_bound <= solver_tol.  The new solver must end on the same
adjacent-double pair wherever this one certifies.
"""

from annulus_green.core import BracketingError


def bisect_bracket(f, lo, hi, sign_lo):
    """Bisect [lo, hi] until its ends are adjacent doubles; returns the ends,
    or one point twice where the computed value is exactly zero."""
    flo_sign = sign_lo
    a_, b_ = lo, hi
    while True:
        mid = 0.5 * (a_ + b_)
        if mid <= a_ or mid >= b_:
            break
        v = f.result(mid).value
        if v == 0.0:
            a_ = b_ = mid
            break
        if (1 if v > 0 else -1) == flo_sign:
            a_ = mid
        else:
            b_ = mid
    return a_, b_


def bisect(f, lo, hi, sign_lo, solver_tol):
    """Bisection to floating-point width, then a residual certificate.

    Returns (root, residual) or raises BracketingError.
    """
    a_, b_ = bisect_bracket(f, lo, hi, sign_lo)
    res_a, res_b = f.result(a_), f.result(b_)
    root, res = (a_, res_a) if abs(res_a.value) <= abs(res_b.value) else (b_, res_b)
    residual = abs(res.value) + res.tail_bound
    if residual > solver_tol:
        raise BracketingError(
            f"residual {residual} exceeds solver tolerance {solver_tol} at the "
            "bisection limit; tighten the truncation policy"
        )
    return root, residual
