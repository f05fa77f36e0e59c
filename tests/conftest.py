"""Shared fixtures; the expensive enumerations are session-scoped."""

import math
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

import gapkit
from gapkit import affine, lattice, surface
from gapkit.core import Mat2, Vec2

# tests that run "python -m gapkit.cli" in a subprocess get the gapkit these
# tests import: pyproject's pytest pythonpath reaches only this process
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(gapkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]))

# shared by the property-test files; no deadline, because on a loaded machine
# one slow example would otherwise fail a correct test
settings.register_profile("gapkit", max_examples=25, deadline=None)


def farey_fractions(q: int) -> list[Fraction]:
    """The level-q Farey sequence by brute force: every p/d with d <= q and
    0 <= p <= d, reduced, deduplicated and sorted; the oracle of the
    streamed farey.farey_pairs and of farey.farey_size."""
    return sorted({Fraction(p, d) for d in range(1, q + 1) for p in range(d + 1)})


@pytest.fixture(scope="session")
def golden_surface():
    return surface.golden_l()


@pytest.fixture(scope="session")
def generic_lshape():
    return surface.l_shape(1.7, 1.9)


@pytest.fixture(scope="session")
def seeded_lattices():
    return [lattice.seeded_lattice(seed) for seed in range(10)]


@pytest.fixture(scope="session")
def generic_affine():
    shift = Vec2(math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)
    return affine.AffineLattice(Mat2(1.0, 0.0, 0.0, 1.0), shift)


@pytest.fixture(scope="session")
def sqrt_gaps_million():
    return affine.sqrt_mod1_gaps(10 ** 6).floats()
