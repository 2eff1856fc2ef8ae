"""Deterministic derivation of independent random streams from one root seed.

Every source of randomness in a run (index draws, posterior draws, data
simulation, termination draw) gets its own named stream keyed by
``(root_seed, label, *indices)``; a run builds one per label, and each
posterior role draws its E-steps from its stream in visit order.  Streams
are Philox counter-based generators whose 128-bit keys come from a BLAKE2b
hash of the full path, so distinct paths are independent for all practical
purposes and the draws consumed on one stream never shift another: changing
the Monte Carlo sample count leaves the index draws untouched, which makes
the algorithm-reduction identities testable bit for bit.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["stream_key", "named_stream", "derive_seed"]

_LABELS = {
    "data": 1,        # dataset simulation
    "index_i": 2,     # primary per-iteration index draws
    "index_j": 3,     # secondary index draws (fiTTEM j-stream)
    "mc": 4,          # posterior sampling, primary role
    "mc_j": 5,        # posterior sampling, fiTTEM j-stream role
    "term": 6,        # randomized termination draw
    "rep": 8,         # replicate fan-out in the benchmark harness
    "test": 9,        # scratch streams in tests
}


def stream_key(seed: int, label: str, *indices: int) -> int:
    """Return the 128-bit Philox key for the stream at the given path."""
    if label not in _LABELS:
        raise ValueError(f"unknown stream label {label!r}")
    parts = (np.uint64(seed), _LABELS[label]) + tuple(indices)
    packed = struct.pack(f"<{len(parts)}Q", *(int(p) & (2**64 - 1) for p in parts))
    digest = hashlib.blake2b(packed, digest_size=16).digest()
    return int.from_bytes(digest, "little")


def named_stream(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Create the generator for stream ``(seed, label, *indices)``.

    Recreating a stream with the same path replays exactly the same draws.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(seed, label, *indices)))


def derive_seed(seed: int, label: str, *indices: int) -> int:
    """Derive an independent 64-bit child seed (e.g. one per replicate)."""
    return stream_key(seed, label, *indices) & (2**64 - 1)
