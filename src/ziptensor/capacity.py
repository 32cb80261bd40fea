"""One working budget, in array entries, for every exhaustive operation.

Each operation computes its cost, the number of entries in the largest array
or record list it builds, from its arguments after the domain checks and
before anything is allocated, and passes it to `admit`.  The budget is that of the innermost
`budget` block, else ZIPTENSOR_CAPACITY, else DEFAULT_CAPACITY; no library
signature carries it, so no caller can switch the guard off.  Up to
`ORACLE_MAX_K` the brute-force oracles run beside the array code.

Costs are built from `binomial`, which gives up past `CEILING` entries, so
a cost takes bounded time and prints in bounded space however large k is.
"""
import os
from contextlib import contextmanager
from contextvars import ContextVar
from math import inf

from .errors import CapacityError

DEFAULT_CAPACITY = 1 << 22
ORACLE_MAX_K = 8
# costs past this many entries are not computed exactly
CEILING = 1 << 64
_BUDGET: ContextVar[int | None] = ContextVar("budget", default=None)


def _hold(entries: int | None) -> None:
    """Set the budget for the rest of the context (a pool initializer)."""
    _BUDGET.set(entries)


@contextmanager
def budget(entries: int | None):
    """Use entries as the budget in the block; None fixes the current one."""
    token = _BUDGET.set(current() if entries is None else entries)
    try:
        yield
    finally:
        _BUDGET.reset(token)


def current() -> int:
    """The budget in effect."""
    raw = _BUDGET.get()
    if raw is None:
        raw = os.environ.get("ZIPTENSOR_CAPACITY", DEFAULT_CAPACITY)
    try:
        return int(raw)
    except ValueError:
        raise CapacityError(
            f"ZIPTENSOR_CAPACITY must be an integer, got {raw!r}") from None


def admit(what: str, cost: int | float) -> None:
    """Raise CapacityError when an operation's cost exceeds the budget."""
    entries = current()
    if cost > entries:
        shown = cost if cost <= CEILING else f"more than {CEILING}"
        raise CapacityError(
            f"{what} needs {shown} entries; capped at {entries}")


def binomial(n: int, r: int) -> int | float:
    """C(n, r) while it is at most CEILING, else inf.

    Built as C(n-r+j, j) for j = 1..min(r, n-r), each term at least twice
    the last, so it gives up within 65 steps of passing CEILING.
    """
    r = min(r, n - r)
    value = 1 if r >= 0 else 0
    for j in range(1, r + 1):
        value = value * (n - r + j) // j
        if value > CEILING:
            return inf
    return value


def grid_cost(k: int, i: int) -> int | float:
    """Entries of grid (k,i), its tensor or its decomposition; 0 outside the
    domain (its own check).

    That is its C(k-1, i-1)^2 cells or, when i is near k, the blocks or
    strip prefix parts of its decomposition if they are more: over all
    levels an axis has C(k-1, i-2) strips, at most C(k-2, i-2) in one level,
    each with a prefix of at most i-2 parts.
    """
    if not 1 <= i <= k or k < 2:
        return 0
    cells = binomial(k - 1, i - 1) ** 2
    if i == 1:
        return cells
    return max(cells,
               binomial(k - 1, i - 2) * max(binomial(k - 2, i - 2), i - 2))


def middle_cost(k: int) -> int | float:
    """Cost of the middle grid (k, (k+1)//2), the largest of order k."""
    return grid_cost(k, (k + 1) // 2)


def orbit_codes(k: int) -> int | float:
    """The 2 C(2k+1, k) class codes of the orbit enumeration of order k."""
    return 2 * binomial(2 * k + 1, k)
