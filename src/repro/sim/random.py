"""Named, seeded random streams.

Every source of randomness in the library (link bit errors, MODIFY byte
perturbation, workload jitter, ...) draws from its own named stream derived
from one master seed.  Two properties follow:

* **Reproducibility** — a scenario is fully determined by
  (topology, script, master seed).
* **Isolation** — adding a new consumer of randomness does not perturb the
  sequences seen by existing consumers, because streams are keyed by name
  rather than by draw order.
"""

from __future__ import annotations

import hashlib
import random as _stdlib_random
from typing import Dict


def _derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable per-stream seed from the master seed and stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A single named stream; a thin deterministic wrapper over ``random.Random``."""

    __slots__ = ("name", "_rng", "_draws")

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self._rng = _stdlib_random.Random(seed)
        self._draws = 0

    @property
    def draws(self) -> int:
        """Number of values drawn so far (useful in tests)."""
        return self._draws

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        self._draws += 1
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        self._draws += 1
        return self._rng.randint(low, high)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        self._draws += 1
        return self._rng.random() < probability

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        self._draws += 1
        return self._rng.choice(seq)

    def shuffle(self, seq) -> None:
        """Shuffle *seq* in place."""
        self._draws += 1
        self._rng.shuffle(seq)

    def exponential(self, mean: float) -> float:
        """Exponentially distributed value with the given mean (for traffic)."""
        self._draws += 1
        return self._rng.expovariate(1.0 / mean) if mean > 0 else 0.0

    def __repr__(self) -> str:
        return f"RandomStream({self.name!r}, draws={self._draws})"


class RandomRegistry:
    """Factory and cache of named :class:`RandomStream` objects."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for *name*, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        created = RandomStream(name, _derive_seed(self.master_seed, name))
        self._streams[name] = created
        return created

    def __repr__(self) -> str:
        return (
            f"RandomRegistry(seed={self.master_seed}, "
            f"streams={len(self._streams)})"
        )
