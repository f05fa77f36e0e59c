"""Farey sequences, their cardinality, and exact normalized gap sets.

Generation uses the classical next-term recurrence: given consecutive
fractions p0/q0 < p1/q1 of level Q, the next one is

    p2 = k*p1 - p0,  q2 = k*q1 - q0,  k = (Q + q0) // q1,

which needs only the previous pair, so levels of quadratic size stream in
constant memory.  The sequence is symmetric under x -> 1 - x, so its
denominators, and the gaps N(q)/(q_i q_{i+1}), read the same backwards:
farey_gaps builds one Fraction per distinct product q_i q_{i+1} and shares
it among the equal gaps.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterator

from .core import shared_fractions
from .errors import ResourceLimitError

__all__ = ["farey_pairs", "farey_size", "farey_gaps"]

# a level Q list holds ~ (3/pi^2) Q^2 fractions; cap the materialized form
DEFAULT_TERM_BUDGET = 50_000_000


def farey_pairs(q: int) -> Iterator[tuple[int, int]]:
    """Stream the level-q Farey fractions as (numerator, denominator) pairs."""
    if q < 1:
        raise ValueError("level must be >= 1")
    p0, q0, p1, q1 = 0, 1, 1, q
    yield p0, q0
    while (p0, q0) != (1, 1):
        yield p1, q1
        k = (q + q0) // q1
        p0, q0, p1, q1 = p1, q1, k * p1 - p0, k * q1 - q0


def farey_size(q: int) -> int:
    """N(q) = sum of Euler phi(i) for i <= q, the number of gaps at level q."""
    if q < 1:
        raise ValueError("level must be >= 1")
    phi = list(range(q + 1))
    for i in range(2, q + 1):
        if phi[i] == i:  # i prime
            for j in range(i, q + 1, i):
                phi[j] -= phi[j] // i
    return sum(phi[1:])


def farey_gaps(q: int) -> list[Fraction]:
    """The N(q) normalized gaps N(q) * (g_{i+1} - g_i) = N(q)/(q_i q_{i+1}), exact,
    equal gaps one shared Fraction.

    A level of more than DEFAULT_TERM_BUDGET terms (read at each call)
    raises ResourceLimitError before any gap is built."""
    n = farey_size(q)
    if n + 1 > DEFAULT_TERM_BUDGET:
        raise ResourceLimitError(
            f"Farey level {q} exceeds the {DEFAULT_TERM_BUDGET}-term budget")
    dens = [den for _, den in farey_pairs(q)]
    return shared_fractions(n, map(mul, dens, dens[1:]))
