"""Deterministic random number generation for simulations.

Every stochastic element (node permutations, fault injection, host skew)
draws from a :class:`DeterministicRng` derived from a single experiment
seed, so any run is exactly reproducible.  Sub-streams are derived by
name, so adding a new consumer never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence


class DeterministicRng:
    """A named, seedable random stream with derivable sub-streams."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = seed
        self.name = name
        self._random = random.Random(self._mix(seed, name))

    @staticmethod
    def _mix(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def substream(self, name: str) -> "DeterministicRng":
        """Derive an independent stream; same (seed, name) → same stream."""
        return DeterministicRng(self.seed, f"{self.name}/{name}")

    # -- draws -----------------------------------------------------------
    def uniform(self, lo: float, hi: float) -> float:
        return self._random.uniform(lo, hi)

    def random(self) -> float:
        return self._random.random()

    def random_fn(self) -> Callable[[], float]:
        """:meth:`random` as the stream's own C-level bound method.

        Same draws from the same stream, without a Python frame per
        call — for hot loops such as the tie-break replay kernel, which
        draws once per scheduled call.
        """
        return self._random.random

    def randint(self, lo: int, hi: int) -> int:
        return self._random.randint(lo, hi)

    def choice(self, seq: Sequence):
        return self._random.choice(seq)

    def permutation(self, n: int) -> list[int]:
        """A random permutation of ``range(n)``.

        The paper runs its barrier tests "with random permutation of the
        nodes" to wash out topology/allocation effects.
        """
        order = list(range(n))
        self._random.shuffle(order)
        return order

    def exponential(self, mean: float) -> float:
        return self._random.expovariate(1.0 / mean) if mean > 0 else 0.0

    def bernoulli(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        return self._random.random() < p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DeterministicRng seed={self.seed} name={self.name!r}>"
