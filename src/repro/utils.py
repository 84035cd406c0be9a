"""Small shared utilities: seeding, product helpers, pretty formatting."""

from __future__ import annotations

import math
import time
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

_DEFAULT_SEED = 0x5EED


def wait_until(predicate: Callable[[], object], *, timeout: float,
               interval: float = 0.02, description: str = "condition"):
    """Poll ``predicate`` until it returns a truthy value; deadline-based.

    The one wait primitive for everything that watches an asynchronous
    process (service tests, smoke tools, clients): a monotonic deadline
    with a capped exponential backoff, so slow CI runners get the full
    ``timeout`` rather than a fixed number of fixed-length sleeps, and
    fast paths return on the first cheap poll.  Returns the predicate's
    truthy value; raises :class:`TimeoutError` naming ``description``
    when the deadline passes.

    Example::

        record = wait_until(lambda: endpoint.exists() or None,
                            timeout=30.0, description="service endpoint")
    """
    if timeout <= 0:
        raise ValueError(f"wait_until() needs a positive timeout, "
                         f"got {timeout}")
    deadline = time.monotonic() + timeout
    pause = max(min(interval, 0.5), 1e-4)
    while True:
        value = predicate()
        if value:
            return value
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"timed out after {timeout:.1f}s waiting "
                               f"for {description}")
        time.sleep(min(pause, remaining))
        pause = min(pause * 1.5, 0.5)


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a NumPy random generator with a stable default seed.

    All stochastic components of the library accept an explicit ``seed`` or
    ``rng`` so that experiments are reproducible run-to-run.
    """
    return np.random.default_rng(_DEFAULT_SEED if seed is None else seed)


def prod(values: Iterable[int]) -> int:
    """Integer product of an iterable (empty product is 1)."""
    result = 1
    for value in values:
        result *= int(value)
    return result


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    """Memoised divisor enumeration; searches ask for the same extents
    thousands of times, so the factorisation is done once per value."""
    small, large = [], []
    for candidate in range(1, int(math.isqrt(n)) + 1):
        if n % candidate == 0:
            small.append(candidate)
            if candidate != n // candidate:
                large.append(n // candidate)
    return tuple(small + large[::-1])


def divisors(n: int) -> list[int]:
    """Return the sorted list of positive divisors of ``n``."""
    if n <= 0:
        raise ValueError(f"divisors() requires a positive integer, got {n}")
    # A fresh list per call: callers are free to mutate the result without
    # corrupting the cache behind everyone else's back.
    return list(_divisors(n))


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division."""
    if b <= 0:
        raise ValueError(f"ceil_div() requires a positive divisor, got {b}")
    return -(-a // b)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values, used for aggregate speedups."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric_mean() requires at least one value")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean() requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))
