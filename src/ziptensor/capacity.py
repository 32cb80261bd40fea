"""Working-size ceilings for the exhaustive operations.

Everything here is desk-scale: words are enumerated and tensors are
materialized densely.  Orbit classes are generated from the tree words (by
the cycle lemma) and held as one array of (2k+1)-bit integer codes, so their
cost is that of the tree words plus 2(2k+1) codes per class; member strings
are built only when read.  Up to `ORACLE_MAX_K` the brute-force oracles run
too: the middle-word scan, the array orbit closure over all 2^(2k+1) codes
of length 2k+1, and the scalar zipper and tree codes.  The limits below keep
those enumerations in check; the ZIPTENSOR_CAPACITY environment variable
raises (or lowers) them globally, and most entry points take an explicit
override.
"""
import os

from .errors import CapacityError

WORD_LIMIT = 31    # words of length 2k+1 beyond this stop being desk-scale
COUNT_LIMIT = 14   # tensor censuses: sum of C(k-1,i-1)^2 grows fast past this
ORBIT_LIMIT = 9    # orbit classes: the tree-word listing and 2(2k+1) codes each
# up to here the brute-force oracles run beside the array code
ORACLE_MAX_K = 8


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
