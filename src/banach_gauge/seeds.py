"""Deterministic sub-seed derivation.

One 64-bit root seed per run; every component draws sub-seeds by stable
hashing of (root, label, index), so results are reproducible regardless of
evaluation order or parallelism.
"""

from __future__ import annotations

import hashlib

from .errors import DomainError


def derive_seed(root: int, label: str, index: int = 0) -> int:
    data = f"{root}\x1f{label}\x1f{index}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def seeded_rng(seed: int):
    """numpy's generator for a caller's seed, which numpy requires to be >= 0.
    numpy is imported here, so that ``derive_seed`` alone does not load it."""
    import numpy as np

    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)
