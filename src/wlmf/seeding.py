"""Deterministic random-number-generator derivation.

Every stochastic entry point accepts either a ready generator or an integer
seed. Monte Carlo drivers derive one independent generator per (stream,
trial) pair through SeedSequence spawn keys, so results are reproducible and
independent of trial execution order.
"""

from __future__ import annotations

import numpy as np

from .errors import _as_int

__all__ = ["as_generator", "derive_rng", "DERIVATION_RULE"]

DERIVATION_RULE = "default_rng(SeedSequence(entropy=master_seed, spawn_key=key))"


def as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce an int seed, None, or Generator into a Generator; any other
    value, a bool or a negative seed raises ``InvalidParameterError``."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(None if rng is None else _as_int("seed", rng, 0))


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for stream/trial ``key`` under ``master_seed``;
    the seed and each key are integers >= 0 (else ``InvalidParameterError``)."""
    seed = _as_int("seed", master_seed, 0)
    key = tuple(_as_int("key", k, 0) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
