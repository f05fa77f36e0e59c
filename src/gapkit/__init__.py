"""Gap distributions of slopes and angles of discrete planar point sets.

Subpackages by topic:

* :mod:`gapkit.core` -- exact scalars (rationals and Q(sqrt 5)), 2x2 matrices,
  the shear / diagonal / rotation subgroups, the strip and the ball;
* :mod:`gapkit.pointcloud` -- the slope / return-time machinery, read
  through the methods of a unimodular lattice;
* :mod:`gapkit.farey` -- streamed Farey fractions, their count, and exact
  normalized gap sets;
* :mod:`gapkit.bcz` -- the horocycle transversal, its return map and roof;
* :mod:`gapkit.hall` -- the analytic limiting gap distribution;
* :mod:`gapkit.lattice` -- unimodular lattices, the enumeration oracle and
  the return-map fast path;
* :mod:`gapkit.affine` -- lattice translates, wedge occupancy statistics,
  sqrt(n) mod 1;
* :mod:`gapkit.surface` -- L-shaped translation surfaces and saddle
  connections;
* :mod:`gapkit.stats` -- empirical distributions, circular gaps, KS distance;
* :mod:`gapkit.cli` -- the ``gapkit`` command.
"""

__version__ = "0.1.0"

from .core import GoldenNum, Mat2, PHI, Vec2, diag_flow, rotation, shear, slope
from .errors import (ExceptionalLatticeError, ExhaustionError, GapkitError,
                     ResourceLimitError, VerticalVectorError)

__all__ = [
    "__version__", "GoldenNum", "PHI", "Vec2", "Mat2", "shear", "diag_flow",
    "rotation", "slope", "GapkitError", "ExhaustionError", "ResourceLimitError",
    "VerticalVectorError", "ExceptionalLatticeError",
]
