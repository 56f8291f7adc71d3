"""Classical Pluecker degrees of Grassmannians, with a tableau-counting oracle.

The oracle counts standard Young tableaux of a rectangle by dynamic
programming over subshapes.  It deliberately avoids the hook-length formula,
so the product formula and the count are genuinely independent.
"""

from __future__ import annotations

from math import factorial

from .errors import CrossCheckError, DomainError

__all__ = ["schubert_degree", "catalan_degree", "syt_count"]


def schubert_degree(l: int, r: int) -> int:
    """Pluecker degree of the Grassmannian of l-quotients of r-space."""
    if not 1 <= l < r:
        raise DomainError("need 1 <= l < r")
    num = factorial(l * (r - l))
    for k in range(1, l):
        num *= factorial(k)
    den = factorial(r - l)
    for k in range(1, l):
        den *= factorial(r - l + k)
    if num % den:
        raise CrossCheckError(f"Grassmannian degree {num}/{den} is not an integer")
    return num // den


def catalan_degree(r: int) -> int:
    """Degree for two-dimensional quotients: the (r-2)-nd Catalan number."""
    if r < 2:
        raise DomainError("need r >= 2")
    return factorial(2 * r - 4) // (factorial(r - 2) * factorial(r - 1))


def syt_count(rows: int, cols: int) -> int:
    """Number of standard Young tableaux of the rows x cols rectangle.

    Brute-force recursion over subshapes (remove one outer corner at a
    time), memoised per call.
    """
    if rows < 0 or cols < 0:
        raise DomainError("shape must be nonnegative")
    memo: dict[tuple[int, ...], int] = {(): 1}

    def count(shape: tuple[int, ...]) -> int:
        cached = memo.get(shape)
        if cached is not None:
            return cached
        total = 0
        for i, row in enumerate(shape):
            if i + 1 < len(shape) and shape[i + 1] == row:
                continue  # not a removable corner
            smaller = shape[:i] + (row - 1,) + shape[i + 1 :]
            smaller = tuple(x for x in smaller if x > 0)
            total += count(smaller)
        memo[shape] = total
        return total

    if rows == 0 or cols == 0:
        return 1
    return count((cols,) * rows)
