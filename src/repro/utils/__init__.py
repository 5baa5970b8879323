"""Shared utilities: units, deterministic RNG, validation, tables.

These helpers are deliberately small and dependency-free so that every
other subpackage (DNN IR, accelerator models, simulator, GA) can use them
without import cycles.
"""

from repro.utils.cache import LruCache
from repro.utils.rng import make_rng, spawn_rngs, stable_digest, stable_seed
from repro.utils.tables import format_table
from repro.utils.units import (
    GBPS,
    GIB,
    KIB,
    MIB,
    MHZ,
    bytes_to_human,
    gbps,
    mhz,
    seconds_to_human,
    transfer_seconds,
)
from repro.utils.validation import require, require_positive

__all__ = [
    "GBPS",
    "GIB",
    "KIB",
    "LruCache",
    "MIB",
    "MHZ",
    "bytes_to_human",
    "format_table",
    "gbps",
    "make_rng",
    "mhz",
    "require",
    "require_positive",
    "seconds_to_human",
    "spawn_rngs",
    "stable_digest",
    "stable_seed",
    "transfer_seconds",
]
