"""Exception taxonomy shared by all primechain modules, and the one set of
checks every public entry runs on its numbers.

Every failure mode raised on purpose by the library maps to one of these
classes so the CLI can translate it into a machine-readable error record
and a stable exit code.  ``check_bytes`` is the one memory ceiling.
"""

import math
import numbers
import operator
import sys
from decimal import Decimal

import numpy as np


class PrimechainError(Exception):
    """Base class for all errors raised deliberately by primechain."""


class DomainError(PrimechainError, ValueError):
    """An argument is outside the documented domain of an operation."""


class CapacityError(PrimechainError):
    """A request would exceed a configured size, depth or memory budget."""


class IntegrityError(PrimechainError):
    """A structural consistency check failed (e.g. a rebuilt chain element
    is composite)."""


class NumericalError(PrimechainError):
    """An iterative numerical routine failed to converge to tolerance."""


class InfeasibleError(PrimechainError):
    """No admissible parameter in the search region satisfies the
    feasibility condition (e.g. no grid point with contraction < 1)."""


class CensoringError(PrimechainError):
    """Too many Monte Carlo replicates were censored by the truncation cap
    for the requested estimate to be valid."""


# Ceiling on the bytes one call allocates: the factor table (limits below 2**29),
# singular_series, phi_iter_stats, hist's table and tree fill, the residue
# matrix's dense Perron copy, the walk's batches in flight and rde_iterate.
MAX_BYTES = 1 << 29


def check_bytes(need: float, what: str) -> None:
    """Refuse, with a CapacityError, ``what`` needing more than MAX_BYTES."""
    if need > MAX_BYTES:
        mib = Decimal(need) / (1 << 20)  # exact for an int of any size and a float, inf included
        raise CapacityError(f"{what} needs about {mib:.4g} MiB, above the {MAX_BYTES >> 20} MiB ceiling")


def as_int(value, name: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` as a Python int in [lo, hi]: numpy integers pass; a float, even
    an integral one, or a bound passed is a DomainError, a non-number (None, a
    string) a TypeError."""
    if not isinstance(value, int) and isinstance(value, numbers.Number) and not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    n = operator.index(value)
    if not lo <= n <= hi:
        raise DomainError(f"{name}={n} outside {lo}..{hi}")
    return n


def as_real(value, name: str, lo: float = -sys.float_info.max, hi: float = sys.float_info.max, *, lo_open: bool = False) -> float:
    """``value`` as a Python float in [lo, hi], or (lo, hi] if ``lo_open``; by default
    the finite floats, so nan and inf are a DomainError, a non-number a TypeError.
    An int past the floats that an infinite bound admits is +-inf."""
    if not isinstance(value, (int, float)) and not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    x = value if isinstance(value, int) else float(value)  # an int compares exactly, a float32 at its value
    if not (lo < x if lo_open else lo <= x) or not x <= hi:
        raise DomainError(f"{name}={x} outside {'(' if lo_open else '['}{lo}, {hi}]")
    try:
        return float(x)
    except OverflowError:  # an int past the floats, inside an infinite bound
        return math.inf if x > 0 else -math.inf


def as_int_array(values, name: str, lo: int | None = None, hi: int | None = None) -> np.ndarray:
    """``values`` flattened into int64, never float64: uint64 for a uint64
    array or a list reaching 2**63, unless a bound below 2**63 is stated.
    Arrays pass uncopied, other input entry by entry through ``as_int``.  An
    entry from 2**64 on is a CapacityError, one outside [lo, hi] or a float array a DomainError."""
    arr = np.ravel(values)
    if arr.dtype.kind not in "iu":
        if isinstance(values, np.ndarray) and arr.dtype != object and arr.size:
            raise DomainError(f"{name} must hold integers, not {arr.dtype}")
        ints = [as_int(v, name) for v in np.ravel(np.asarray(values, dtype=object)).tolist()]
        top = max(ints, default=0)
        if top >= 1 << 64:
            raise CapacityError(f"entries of {name} must lie below 2**64")
        try:
            arr = np.array(ints, dtype=np.uint64 if top >= 1 << 63 else np.int64)
        except OverflowError:
            raise DomainError(f"{name} holds entries that fit neither int64 nor uint64") from None
    if arr.size and (lo is not None and int(arr.min()) < lo or hi is not None and int(arr.max()) > hi):
        raise DomainError(f"entries of {name} outside {lo}..{hi}")
    wide = arr.dtype == np.uint64 and (hi is None or hi >= 1 << 63)
    return arr.astype(np.uint64 if wide else np.int64, copy=False)
