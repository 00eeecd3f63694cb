"""Deterministic seed derivation and counter-based variates.

Every random decision in the package flows from explicit integer seeds.
Sub-streams (dataset draw, split shuffle, selection coins, ...) are derived
with ``derive_seed`` so that no two purposes share an underlying bit stream.
Selection coins use the counter-based Philox generator keyed by the pass
seed: the variate for stream position ``i`` is a pure function of
``(seed, i)``, which keeps traces reproducible and independent of how the
surrounding code is refactored.
"""

from __future__ import annotations

import numpy as np

# Fixed role tags for derive_seed so call sites stay collision-free.
ROLE_POOL = 1
ROLE_SPLIT = 2
ROLE_SELECTION = 3


def derive_seed(*parts: int) -> int:
    """Collapse a tuple of non-negative integers into one 64-bit seed."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def coin_stream(seed: int) -> np.random.Generator:
    """The Philox generator of one selection pass's coins.

    Successive ``random`` draws continue the stream, so drawing it in
    blocks gives the same variates as one ``pass_uniforms`` call.
    """
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**128 - 1)))


def pass_uniforms(seed: int, n: int) -> np.ndarray:
    """Uniform[0,1) variates for one selection pass, one per stream index."""
    return coin_stream(seed).random(n)
