"""Working-size ceilings for the exhaustive operations.

Everything here is desk-scale: words are enumerated, tensors are
materialized densely, and orbit classes are generated from the tree words
(by the cycle lemma) with every middle word listed as a member; only up to
k = 8 does the verifier also close orbits by brute force, as an oracle.  The
limits below keep those enumerations in check; the ZIPTENSOR_CAPACITY
environment variable raises (or lowers) them globally, and most entry points
take an explicit override.
"""
import os

from .errors import CapacityError

WORD_LIMIT = 31    # words of length 2k+1 beyond this stop being desk-scale
COUNT_LIMIT = 14   # tensor censuses: sum of C(k-1,i-1)^2 grows fast past this
ORBIT_LIMIT = 9    # generated orbit classes list all 2*C(2k+1,k) middle words


def effective_limit(explicit: int | None, default: int) -> int:
    """An explicit override wins; else ZIPTENSOR_CAPACITY; else the default."""
    if explicit is not None:
        return explicit
    raw = os.environ.get("ZIPTENSOR_CAPACITY")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise CapacityError(
            f"ZIPTENSOR_CAPACITY must be an integer, got {raw!r}") from None


def ensure_within(k: int, limit: int, what: str) -> None:
    """Raise CapacityError when k exceeds the operative limit."""
    if k > limit:
        raise CapacityError(f"{what} capped at k <= {limit} (got k = {k})")
