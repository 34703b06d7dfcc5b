"""Named, splittable random streams on top of a counter-based bit generator.

Every stochastic component in the engine receives a `Rng` rather than the
global numpy state. Children are derived by name, so e.g. the k-th rollout
sample draws from `rng.child("sample", k)` and is reproducible regardless of
how many draws any sibling consumed.
"""

from __future__ import annotations

import hashlib

import numpy as np


class Rng:
    """Deterministic random stream addressed by (seed, path).

    The Philox key is the SHA-256 of the seed and the path components, so
    distinct paths give statistically independent, order-insensitive streams.
    """

    def __init__(self, seed, path=()):
        self.seed = int(seed)
        self.path = tuple(str(p) for p in path)
        digest = hashlib.sha256(
            ("\x1f".join([str(self.seed), *self.path])).encode("utf-8")
        ).digest()
        key = np.frombuffer(digest[:16], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, *names) -> "Rng":
        """Derive an independent stream named by `names` under this one."""
        return Rng(self.seed, self.path + tuple(names))

    def normal(self, shape=()):
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, low=0.0, high=1.0, shape=()):
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low, high, shape=()):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n):
        return self._gen.permutation(n)

    def describe(self):
        return {"seed": self.seed, "path": list(self.path)}
