"""Deterministic derivation of independent RNG seeds, and the package's one shuffle.

The stable hash is SHA-256 over the '|'-joined string forms of the parts,
truncated to 64 bits.  It does not depend on process hash randomization, so
identical coordinates always yield identical streams, and adding new
coordinates never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import random

from .cascade import check_count


def stable_seed(*parts: object) -> int:
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def seeded_random(rng_seed: int) -> random.Random:
    """``random.Random(rng_seed)`` for a seed ``check_count`` takes: CPython seeds -7 as 7, silently repeating its
    stream, and takes 2.5, True or "abc" as seeds too."""
    return random.Random(check_count(rng_seed, "rng_seed"))


def shuffled_range(n: int, rng_seed: int) -> list[int]:
    """``random.Random(rng_seed).shuffle(list(range(n)))``'s order, about twice as fast: the same Fisher-Yates
    swaps, with ``_randbelow``'s ``getrandbits`` draws and rejections inlined."""
    order = list(range(n))
    getrandbits = seeded_random(rng_seed).getrandbits
    for i in range(n - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order
