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

The replica field of ``TreeStream`` holds 63 bits; ``BatchStream`` sets
bit 63 of the same key word, so the families never share a key.  A stream
refuses, with ``DomainError``, a seed outside [0, 2^64) and a replica
outside its field (``TreeStream``: [0, 2^63); ``BatchStream``: [0, 2^64)),
which would otherwise alias another stream's words.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import Philox

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_U53 = float(2.0**-53)
_TURNS = 1 << 12   # table entries per turn of the Box-Muller angle

# Sequential draws (plain i.i.d. sampling detached from any tree) live in
# counter region >= 2^64; node indices stay far below under any budget.
_SEQ_BASE = 1 << 64


def node_offset(b: int, g: int) -> int:
    """Global index of the first node at generation g (root = generation 0)."""
    return (b**g - 1) // (b - 1)


def _field(name: str, value, bits: int) -> int:
    """value as an int in [0, 2^bits), the key or counter field it fills."""
    value = int(value)
    if not 0 <= value < 1 << bits:
        raise DomainError(f"{name} must be in [0, 2^{bits}), got {value}")
    return value


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
        self.seed = _field("seed", seed, 64)
        self.replica = _field("replica", replica, 63)
        self._key = (self.seed << 64) | self.replica
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
        self.seed = _field("seed", seed, 64)
        self._key = (self.seed << 64) | (1 << 63)

    def node_block(self, b: int, g: int, i: int, r0: int, count: int) -> np.ndarray:
        """Raw words for node (g, i) in replicas r0 .. r0+count-1, shape (count, 4)."""
        if r0 < 0 or r0 + count > 1 << 64:
            raise DomainError(f"replicas {r0} .. {r0 + count - 1} must lie "
                              "in [0, 2^64)")
        counter = ((node_offset(b, g) + i) << 64) | r0
        return _raw_blocks(self._key, counter, count)


def to_uniform(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map uint64 words to uniforms in [0, 1) with 53-bit resolution, into
    out if given (the shifted words, below 2^53, cast to float64 exactly)."""
    out = np.empty(raw.shape) if out is None else out
    np.right_shift(raw, np.uint64(11), out=out)
    out *= _U53
    return out


# normal_pair's table: rows cos, sin of _H j, j = 0 .. _TURNS; numpy's on the
# first octant, its exact reflections elsewhere (a quarter turn is 0 or +-1).
_H = 2.0 * np.pi / _TURNS
_C2, _C4, _S1, _S3 = -_H**2 / 2, _H**4 / 24, _H, -_H**3 / 6
_c, _s = np.cos(np.arange(_TURNS // 8 + 1) * _H), \
    np.sin(np.arange(_TURNS // 8 + 1) * _H)
_c, _s = np.r_[_c, _s[-2::-1]], np.r_[_s, _c[-2::-1]]     # a quarter turn
_CS = np.array([np.r_[_c, -_s[1:], -_c[1:], _s[1:]],
                np.r_[_s, _c[1:], -_s[1:], -_c[1:]]])


def normal_pair(raw0: np.ndarray, raw1: np.ndarray,
                out: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller normals rho cos(2 pi u), rho sin(2 pi u), rho = sqrt(-2
    ln(1 - u0)), of the uniforms u0, u of each word pair, into out = (z1,
    z2, work) if given, work of at least 4 rows of n floats.  The angle takes
    no cos or sin (Tang's table method): j = rint(_TURNS u) leaves f =
    _TURNS u - j in [-1/2, 1/2] exactly, and with C, S = cos, sin(_H j),
    cm = cos(_H f) - 1 (degree 4) and sf = sin(_H f) (degree 3),
    cos 2 pi u = C + (C cm - S sf) and sin 2 pi u = S + (S cm + C sf)."""
    n = len(raw0)
    z1, z2, work = out or (np.empty(n), np.empty(n), np.empty((4, n)))
    w, t, c, s = work[0], work[1], work[2], work[3]
    np.right_shift(raw1, np.uint64(11), out=z2)
    z2 *= _TURNS * _U53
    np.rint(z2, out=w)
    np.copyto(t.view(np.intp), w, casting="unsafe")  # j
    z2 -= w                                      # f
    np.take(_CS, t.view(np.intp), axis=1, out=work[2:4], mode="clip")  # C, S
    np.multiply(z2, z2, out=z1)                  # q = f^2
    np.multiply(z1, _S3, out=w)
    w += _S1
    z2 *= w                                      # sf
    np.multiply(z1, _C4, out=w)
    w += _C2
    z1 *= w                                      # cm
    np.multiply(c, z1, out=w)
    z1 *= s
    np.multiply(s, z2, out=t)
    w -= t                                       # C cm - S sf
    z2 *= c
    z2 += z1                                     # S cm + C sf
    np.add(c, w, out=z1)
    z2 += s
    np.right_shift(raw0, np.uint64(11), out=w)   # rho
    w *= -_U53
    np.log1p(w, out=w)
    w *= -2.0
    np.sqrt(w, out=w)
    z1 *= w
    z2 *= w
    return z1, z2
