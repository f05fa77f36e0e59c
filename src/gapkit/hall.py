"""The analytic limiting gap distribution (hyperbola-cut areas in a triangle).

Everything reduces to the area F(t) of

    { (u, v) in [0,1]^2 : u + v > 1, u v > 1/t },

the part of the triangle Omega above the hyperbola u v = 1/t.  Twice this
area is the cumulative distribution of the return time 1/(u v) under the
uniform measure on Omega, i.e. the limit law of unnormalized lattice slope
gaps; rescaling the argument by pi^2/3 gives the law of normalized Farey
gaps.  The closed form below is elementary calculus:

    F(t) = 0                                       for t <= 1
    F(t) = 1 - c + c log c,          c = 1/t,      for 1 < t <= 4
    F(t) = 1 - c + c log c - d/2 + c log(u+/u-)    for t > 4,

with d = sqrt(1 - 4c) and u+- = (1 +- d)/2 the points where the hyperbola
meets the line u + v = 1.  The two regime changes (hyperbola entering the
square at t = 1, touching the line at t = 4) are exactly the points where
the density has a corner.

The module loads numpy only when one of its array functions runs, so
importing it (as gapkit.cli does) costs no numpy import.
"""

from __future__ import annotations

import math

__all__ = [
    "FAREY_SCALE", "region_area", "region_area_quadrature", "hall_cdf",
    "hall_pdf", "kinks", "detect_kinks",
]

# normalized Farey gaps carry an extra factor N(Q)/Q^2 -> 3/pi^2
FAREY_SCALE = math.pi ** 2 / 3.0

_SCALINGS = ("unnormalized", "farey")


def _check_scaling(scaling: str):
    if scaling not in _SCALINGS:
        raise ValueError(f"scaling must be one of {_SCALINGS}, got {scaling!r}")


def _area_below(t):
    """F(t) as above, vectorized over t >= 0 (inf allowed)."""
    import numpy as np
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.where(t > 0, 1.0 / np.where(t > 0, t, 1.0), np.inf)
        c = np.where(np.isinf(t), 0.0, c)
        csafe = np.where(c > 0, c, 1.0)  # log argument placeholder for c == 0
        base = 1.0 - c + c * np.log(csafe)
        base = np.where(c == 0.0, 1.0, base)
        d = np.sqrt(np.maximum(1.0 - 4.0 * c, 0.0))
        up = (1.0 + d) / 2.0
        um = (1.0 - d) / 2.0
        umsafe = np.where(um > 0, um, 1.0)
        sliver = d / 2.0 - c * np.log(up / umsafe)
        sliver = np.where(c == 0.0, 0.5, sliver)
        out = np.where(t <= 1.0, 0.0, base - np.where(t > 4.0, sliver, 0.0))
    return out


def region_area(a: float, b: float) -> float:
    """Area of { (u,v) in Omega : 1/b < u v < 1/a }, 0 <= a < b <= inf."""
    if not (0 <= a < b):
        raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
    return float(_area_below(b) - _area_below(a))


def region_area_quadrature(a: float, b: float) -> float:
    """Independent oracle for region_area by adaptive quadrature.

    Integrates the exact vertical section length over u with breakpoints at
    every branch switch of the section bounds; shares no code with the
    closed form.
    """
    from scipy import integrate  # imported here: no CLI command needs it

    if not (0 <= a < b):
        raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
    clo = 1.0 / b if not math.isinf(b) else 0.0   # lower hyperbola u v = clo
    chi = 1.0 / a if a > 0 else math.inf          # upper hyperbola u v = chi

    def section(u):
        vlo = 1.0 - u
        if clo > 0:
            vlo = max(vlo, clo / u)
        vhi = 1.0 if math.isinf(chi) else min(1.0, chi / u)
        return max(0.0, vhi - vlo)

    pts = set()
    for c in (clo, chi):
        if 0 < c < math.inf:
            pts.add(min(c, 1.0))                 # hyperbola meets v = 1
            if c <= 0.25:                        # hyperbola meets u + v = 1
                d = math.sqrt(1.0 - 4.0 * c)
                pts.update(((1 - d) / 2, (1 + d) / 2))
    points = sorted(p for p in pts if 0.0 < p < 1.0)
    val, _ = integrate.quad(section, 0.0, 1.0, points=points or None,
                            limit=300, epsabs=1e-13, epsrel=1e-13)
    return val


def hall_cdf(t, scaling: str = "farey"):
    """CDF of the limiting gap law; vectorized, 0 below the first kink."""
    import numpy as np
    _check_scaling(scaling)
    t = np.asarray(t, dtype=float)
    arg = t * FAREY_SCALE if scaling == "farey" else t
    out = 2.0 * _area_below(arg)
    return float(out) if out.ndim == 0 else out


def hall_pdf(t, scaling: str = "farey"):
    """Density of the limiting gap law (analytic derivative of the CDF).

    Continuous everywhere; not differentiable at the two kinks.  On the
    middle regime it is 2 log(t)/t^2, beyond the second kink it is
    (4/t^2) log(1/u+).
    """
    import numpy as np
    _check_scaling(scaling)
    t = np.asarray(t, dtype=float)
    arg = t * FAREY_SCALE if scaling == "farey" else t
    with np.errstate(divide="ignore", invalid="ignore"):
        targ = np.where(arg > 1.0, arg, 2.0)  # placeholder below the support
        mid = 2.0 * np.log(targ) / targ ** 2
        d = np.sqrt(np.maximum(1.0 - 4.0 / targ, 0.0))
        up = (1.0 + d) / 2.0
        high = -4.0 * np.log(up) / targ ** 2
        out = np.where(arg <= 1.0, 0.0, np.where(arg <= 4.0, mid, high))
    if scaling == "farey":
        out = out * FAREY_SCALE
    return float(out) if out.ndim == 0 else out


def kinks(scaling: str = "farey") -> tuple[float, float]:
    """The two points where the density is not differentiable."""
    _check_scaling(scaling)
    if scaling == "farey":
        return (1.0 / FAREY_SCALE, 4.0 / FAREY_SCALE)
    return (1.0, 4.0)


def detect_kinks(cdf, lo: float, hi: float, n: int = 4001) -> tuple[float, float]:
    """Locate the two strongest curvature breaks of a CDF by second differences.

    Scans a uniform grid; a corner in the density makes the centered second
    difference of the CDF jump between plateaus, so the two largest jumps of
    the second-difference sequence mark the kinks.  Resolution is the grid
    step.
    """
    import numpy as np
    ts = np.linspace(lo, hi, n)
    f = np.asarray(cdf(ts), dtype=float)
    d2 = f[2:] - 2.0 * f[1:-1] + f[:-2]
    jump = np.abs(np.diff(d2))
    order = np.argsort(jump)[::-1]
    picks = []
    for idx in order:
        t = ts[idx + 2]
        if all(abs(t - p) > 10.0 * (ts[1] - ts[0]) for p in picks):
            picks.append(t)
        if len(picks) == 2:
            break
    return tuple(sorted(picks))
