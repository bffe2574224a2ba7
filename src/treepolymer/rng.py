"""Counter-based random streams addressed by tree node.

Every node of the b-ary tree owns one 4-word Philox block, addressed by its
global breadth-first index.  A draw therefore depends only on
(seed, replica, node), never on traversal order or thread count, so the
depth-first evaluator, the brute-force path enumerator, and partial
resampling all see the same environment realization.

Two stream families share the Philox key space without collision:

* ``TreeStream``  -- key carries (seed, replica); counter = node index.
  One key per replica; blocks for a contiguous node range come from one
  ``random_raw`` call.
* ``BatchStream`` -- key carries (seed, namespace bit); counter packs the
  node index into the high word and the replica into the low word, so all
  replicas of one node are contiguous.  Used by the moment verifiers where
  replicas are many and trees are small.

The replica field of ``TreeStream`` is masked to 63 bits; ``BatchStream``
sets bit 63 of the same key word, so the families never share a key.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import Philox

_MASK63 = (1 << 63) - 1
_MASK64 = (1 << 64) - 1
_U53 = float(2.0**-53)

# Sequential draws (plain i.i.d. sampling detached from any tree) live in
# counter region >= 2^64; node indices stay far below under any budget.
_SEQ_BASE = 1 << 64


def node_offset(b: int, g: int) -> int:
    """Global index of the first node at generation g (root = generation 0)."""
    return (b**g - 1) // (b - 1)


_local = threading.local()


def _raw_blocks(key: int, counter: int, count: int) -> np.ndarray:
    """count consecutive 4-word Philox blocks starting at counter.

    Each thread keeps one generator and resets its key and counter here,
    which gives the words of a fresh ``Philox(key=key, counter=counter)``
    without building one (and reading OS entropy) per call.
    """
    bg = getattr(_local, "philox", None)
    if bg is None:
        bg = _local.philox = Philox(key=0)
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": [(counter >> s) & _MASK64 for s in (0, 64, 128, 192)],
                  "key": [key & _MASK64, key >> 64]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return bg.random_raw(4 * count).reshape(count, 4)


class TreeStream:
    """Node-addressed stream for one (seed, replica) pair."""

    def __init__(self, seed: int, replica: int):
        self.seed = int(seed)
        self.replica = int(replica)
        self._key = ((self.seed & _MASK64) << 64) | (self.replica & _MASK63)
        self._cursor = _SEQ_BASE

    def node_block(self, b: int, g: int, i0: int, count: int) -> np.ndarray:
        """Raw words for nodes i0 .. i0+count-1 of generation g, shape (count, 4)."""
        return _raw_blocks(self._key, node_offset(b, g) + i0, count)

    def seq_block(self, count: int) -> np.ndarray:
        """Raw words for the next `count` sequential draws, shape (count, 4)."""
        out = _raw_blocks(self._key, self._cursor, count)
        self._cursor += count
        return out


class BatchStream:
    """Node-addressed stream vectorized across replicas (counter-transposed)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key = ((self.seed & _MASK64) << 64) | (1 << 63)

    def node_block(self, b: int, g: int, i: int, r0: int, count: int) -> np.ndarray:
        """Raw words for node (g, i) in replicas r0 .. r0+count-1, shape (count, 4)."""
        counter = ((node_offset(b, g) + i) << 64) | r0
        return _raw_blocks(self._key, counter, count)


def to_uniform(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map uint64 words to uniforms in [0, 1) with 53-bit resolution, into
    out if given.  The shifted words are cast to float64 on their way into
    out, exactly, since they are below 2^53."""
    if out is None:
        out = np.empty(raw.shape)
    np.right_shift(raw, np.uint64(11), out=out)
    out *= _U53
    return out


def _box_muller(raw0: np.ndarray, raw1: np.ndarray,
                out: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller radius and angle per word pair: the two standard normals
    are rho * cos(angle) and rho * sin(angle).  They are written into
    out = (rho, angle), which callers may transform in place."""
    rho, ang = out
    to_uniform(raw0, rho)
    np.negative(rho, out=rho)
    np.log1p(rho, out=rho)
    rho *= -2.0
    np.sqrt(rho, out=rho)
    to_uniform(raw1, ang)
    ang *= 2.0 * np.pi
    return rho, ang


def normal_pair(raw0: np.ndarray, raw1: np.ndarray,
                out: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Two standard normals per word pair via Box-Muller, written into
    out = (z1, z2, work) if given, else into fresh arrays."""
    n = len(raw0)
    z1, z2, rho = out if out is not None else \
        (np.empty(n), np.empty(n), np.empty(n))
    _box_muller(raw0, raw1, (rho, z2))
    np.cos(z2, out=z1)
    z1 *= rho
    np.sin(z2, out=z2)
    z2 *= rho
    return z1, z2
