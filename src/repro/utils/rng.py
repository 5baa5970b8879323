"""Deterministic random-number-generator helpers.

Every stochastic component in the reproduction (GA populations, workload
jitter, failure injection in tests) receives an explicit
:class:`numpy.random.Generator`. These helpers centralize construction so
experiments are reproducible from a single integer seed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def make_rng(seed: int | None) -> np.random.Generator:
    """Build a :class:`numpy.random.Generator` from an integer seed.

    ``None`` yields a nondeterministic generator; experiment runners
    always pass an explicit seed.
    """
    return np.random.default_rng(seed)


def spawn_rngs(parent: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``parent``.

    Children are produced by drawing 64-bit seeds from the parent, which
    keeps the whole tree reproducible from the root seed while letting
    sub-searches (e.g. each second-level GA instance) own a private
    stream.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


def stable_seed(*parts: object) -> int:
    """A 63-bit seed derived deterministically from ``parts``.

    Unlike :func:`hash`, the derivation is stable across processes and
    interpreter runs (it never consults ``PYTHONHASHSEED``): the parts'
    ``repr`` is digested with BLAKE2b. This is what makes content-keyed
    RNG streams possible — e.g. each level-2 sub-problem derives its
    generator from its (layer range, accelerator set, design) key, so a
    sub-problem solved in any search, any process, any session always
    walks the identical GA trajectory and its solution can be cached
    and shared without breaking bit-identity.

    Parts must have deterministic ``repr``s (ints, strings, tuples —
    not objects falling back to ``object.__repr__``'s memory address).
    """
    blob = repr(parts).encode("utf-8")
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def stable_digest(*parts: object) -> str:
    """A 128-bit hex digest derived deterministically from ``parts``.

    The string-valued sibling of :func:`stable_seed`, with the same
    contract: stable across processes, interpreter runs and
    ``PYTHONHASHSEED`` values, provided every part has a deterministic
    ``repr``. This is the primitive behind content fingerprints
    (:meth:`repro.dnn.graph.ComputationGraph.fingerprint`,
    :meth:`repro.system.topology.SystemTopology.fingerprint`) — keys
    that, unlike object identity, survive a pickle round-trip across a
    process boundary.
    """
    blob = repr(parts).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()
