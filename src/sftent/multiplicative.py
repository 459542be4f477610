"""Binary sequences constrained along geometric fibers i, i*q, i*q^2, ...

The constraint x_k * x_{qk} = 0 splits {1..n} into independent fibers, one per
integer i not divisible by q; each fiber of length L contributes a factor
a_L, where a is the Fibonacci-style count of binary strings with no adjacent
ones (a_1 = 2, a_2 = 3).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .counting import DEFAULT_BUDGET, _block_checks, _census, _check_budget, _count_blocks, _string_counts
from .lattice import _integer
from .sft import golden_mean_horizontal

_GOLDEN_MEAN = golden_mean_horizontal()     # its string counts are the a_k


def fibonacci(k: int) -> int:
    """Count of binary strings of length k without adjacent ones (a_1=2, a_2=3)."""
    k = _integer(k)
    if k < 0:
        raise ValueError("index must be >= 0")
    return _string_counts(_GOLDEN_MEAN, [k])[0]


class Fiber(NamedTuple):
    i: int        # fiber head, not divisible by q
    length: int   # number of elements i*q^j <= n


class SeriesValue(NamedTuple):
    value: float
    tail_bound: float


@dataclass(frozen=True)
class FiberDecomposition:
    q: int
    n: int
    fibers: tuple[Fiber, ...]

    def __post_init__(self):
        assert sum(f.length for f in self.fibers) == self.n


def fiber_decomposition(n: int, q: int) -> FiberDecomposition:
    """Partition {1..n} into fibers {i, i*q, i*q^2, ...} with q not dividing i."""
    n, q = _integer(n), _integer(q)
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    fibers = []
    for i in range(1, n + 1):
        if i % q == 0:
            continue
        length = 0
        m = i
        while m <= n:       # integer arithmetic only; no float logs
            m *= q
            length += 1
        fibers.append(Fiber(i, length))
    return FiberDecomposition(q, n, tuple(fibers))


def _fiber_lengths(n: int, q: int) -> dict[int, int]:
    """Fiber-length multiplicities of {1..n}, longest first, in O(log_q n).

    The fibers of length at least L are headed by the i <= m = n // q^(L-1)
    not divisible by q, so there are m - m // q of them.
    """
    n, q = _integer(n), _integer(q)
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    exactly = []            # exactly[L - 1]: number of fibers of length L
    while n:                # n now stands for n // q^(L-1), and m for n // q^L
        m = n // q
        exactly.append((n - m) - (m - m // q))
        n = m
    return {length: mult for length, mult in reversed(list(enumerate(exactly, 1))) if mult}


def _float_or_reject(value: int, what: str) -> float:
    """float(value), or ValueError when `value` is beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"q is too large: {what} is beyond the float range") from None


def count_multiplicative(n: int, q: int) -> int:
    """Exact number of binary strings x_1..x_n with x_k * x_{qk} = 0."""
    return _census(_GOLDEN_MEAN, _fiber_lengths(n, q), log_domain=False)


def log_count_multiplicative(n: int, q: int) -> float:
    """log of the count, summed over fiber lengths (no bigint materialisation)."""
    return _census(_GOLDEN_MEAN, _fiber_lengths(n, q), log_domain=True)


def count_multiplicative_bruteforce(n: int, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """The count by the block search, testing each pair (x_{k/q}, x_k)
    directly: x_k for k > n // q is read by no later pair, so it is counted
    (a factor per row), never built, and only the first n // q cells are."""
    n, q = _integer(n), _integer(q)
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    _check_budget(2, n, _integer(budget))
    # cell k - 1 holds x_k; the pairs (x_{k/q}, x_k), one shape, may not be (1, 1)
    pairs = [(k // q - 1, k - 1) for k in range(q, n + 1, q)]
    return _count_blocks(*_block_checks([(pairs, {(1,): {1}})], n, 2))


def multiplicative_entropy_series(q: int, terms: int) -> SeriesValue:
    """Partial sum of (q-1)^2 * sum_k q^-(k+1) * log a_k, with a tail bound."""
    return _fiber_entropy_series(q, terms, 1, 1)


def _fiber_entropy_series(q: int, terms: int, c: float, s: int) -> SeriesValue:
    """c (q-1)^2 * sum_{k <= terms} q^-(k+1) log a_{s k}, with a rigorous tail bound.

    Both series in use, (c, s) = (1, 1) here and (1/2, 2) on the mirrored
    wedge, have c log a_{s k} <= k log 2, so the tail is the closed geometric
    bound (q-1)^2 log2 * x^(K+2) * ((K+1) - K x) / (1-x)^2 with x = 1/q.
    The sum stops at the last K <= terms whose q^(K+1) is still a float:
    every later term lies far below one ulp of the sum.
    """
    q, terms = _integer(q), _integer(terms)
    if terms < 1:
        raise ValueError("need at least one term")
    if q < 2:
        raise ValueError("q must be >= 2")
    _float_or_reject(q ** 2, "q**2")      # the first term's divisor
    last = next((k for k in range(1, terms) if q ** (k + 2) > sys.float_info.max), terms)
    counts = _string_counts(_GOLDEN_MEAN, range(s, s * last + 1, s))     # a_{s k}, k = 1..last
    value = c * (q - 1) ** 2 * math.fsum(
        math.log(a) / q ** (k + 1) for k, a in enumerate(counts, 1)
    )
    x = 1.0 / q
    tail = (q - 1) ** 2 * math.log(2) * x ** (last + 2) * ((last + 1) - last * x) / (1 - x) ** 2
    return SeriesValue(value, tail)
