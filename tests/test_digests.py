"""Bit-identity guard: SHA-256 digests of the small-tree draw paths.

Each case hashes the exact bytes of an output of ``batch_z_values``,
``ratio4`` (per-tree ratios and their jackknife SEs) or ``dfs_evaluate``
over b in {2, 3} and the four built-in laws.  The digests were recorded
before the draw paths were rewritten to draw and transform whole counter
ranges, so a change to these functions that moves any output by one bit
fails here.  To list the current digests, run
``PYTHONPATH=src python tests/test_digests.py``.
"""

import hashlib
import struct

import numpy as np
import pytest

from treepolymer import (
    DeterministicConstant,
    GaussianIndep,
    LogNormalUniformPhase,
    RademacherPhase,
    TreeStream,
    batch_z_values,
    dfs_evaluate,
    ratio4,
)

LAWS = {
    "gaussian": GaussianIndep(0.5, 0.7),
    "uniform": LogNormalUniformPhase(0.4, 0.6),
    "rademacher": RademacherPhase(t=0.5, beta=0.3),
    "constant": DeterministicConstant(0.6 + 0.3j),
    # signed zeros: a zero phase scale makes half the phases -0.0
    "gaussian0": GaussianIndep(0.5, 0.0),
}

# (b, n, replicas): several replica chunks, the last one partial
BATCH_SIZES = {2: (10, 1100), 3: (6, 1100)}
# (b, n, omega replicas, phase resamples)
RATIO4_SIZES = {2: (5, 2, 1000), 3: (3, 2, 1000)}
# n = 15 at b = 2 goes past the vectorized bottom blocks
DFS_DEPTHS = {2: (6, 15), 3: (5,)}


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if p is None:
            h.update(b"none")
        elif isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, complex):
            h.update(struct.pack("<dd", p.real, p.imag))
        else:
            h.update(struct.pack("<d", float(p)))
    return h.hexdigest()[:24]


def _batch(law, b):
    n, reps = BATCH_SIZES[b]
    return _hash(batch_z_values(LAWS[law], b, n, seed=17, replicas=reps))


def _ratio4(law, b, exact=False):
    n, omegas, m = RATIO4_SIZES[b]
    est = ratio4(LAWS[law], b, n, omegas, m, seed=5, exact_denominator=exact)
    return _hash(*est.values, *est.value_ses)


def _ratio4_slabs():
    # 2046 nodes x 1500 resamples: more draws than one transform slab
    est = ratio4(LAWS["gaussian"], 2, 10, 1, 1500, seed=8)
    return _hash(*est.values, *est.value_ses)


def _dfs(law, b):
    parts = []
    for n in DFS_DEPTHS[b]:
        for r in range(3):
            include_w = law != "constant" or r == 0
            fs = dfs_evaluate(LAWS[law], b, n, TreeStream(11, r),
                              include_w=include_w)
            parts += [fs.z, fs.z_abs, fs.z_abs2, fs.t_damped, fs.w_cond,
                      fs.ln_abs_z, fs.ln_z_abs, fs.ln_z_abs2, fs.ln_t_damped,
                      fs.ln_w_cond, fs.arg_z]
    return _hash(*parts)


CASES = {}
for _b in (2, 3):
    for _law in LAWS:
        CASES[f"batch-{_law}-b{_b}"] = lambda law=_law, b=_b: _batch(law, b)
        CASES[f"ratio4-{_law}-b{_b}"] = lambda law=_law, b=_b: _ratio4(law, b)
        CASES[f"dfs-{_law}-b{_b}"] = lambda law=_law, b=_b: _dfs(law, b)
    CASES[f"ratio4-exact-gaussian-b{_b}"] = \
        lambda b=_b: _ratio4("gaussian", b, exact=True)
CASES["ratio4-slabs-gaussian-b2"] = _ratio4_slabs

DIGESTS = {
    "batch-constant-b2": "251fe8336a06c933666537fd",
    "batch-constant-b3": "c6db489c389b6c3d13ea2300",
    "batch-gaussian-b2": "3ce6bbc7b13937253e774709",
    "batch-gaussian-b3": "5913462b4dee00844ef9cd84",
    "batch-gaussian0-b2": "29d47de4fe6e592bd9603cd2",
    "batch-gaussian0-b3": "e6b35fa06bd60614c18f497e",
    "batch-rademacher-b2": "7724e8b23cdc8653cb661b10",
    "batch-rademacher-b3": "270981951793fa0df93a5377",
    "batch-uniform-b2": "ea4a3d4ce173258cf32bd643",
    "batch-uniform-b3": "bbfa7b4dbe9d1aecca5fc16a",
    "dfs-constant-b2": "d7bb47dcae27215ba2b5cc34",
    "dfs-constant-b3": "eee254fa9f9ba6ffb928d1ea",
    "dfs-gaussian-b2": "b291e31960dca6da79c645a9",
    "dfs-gaussian-b3": "fb6d0712b08a967ca0703ae7",
    "dfs-gaussian0-b2": "d53f6e45eb816bc4dffad035",
    "dfs-gaussian0-b3": "3c23a6f1bd390eec3d77b790",
    "dfs-rademacher-b2": "25e47c2acef80fea7887b58f",
    "dfs-rademacher-b3": "64234d8abeea80662cd2fd34",
    "dfs-uniform-b2": "2477949798219a9f7031c2b9",
    "dfs-uniform-b3": "3be8c6468a2d5c2c95f695f7",
    "ratio4-constant-b2": "145869cd3d319d75381d9026",
    "ratio4-constant-b3": "2f4a273cc86fc42180d576d0",
    "ratio4-exact-gaussian-b2": "49d9da541ab217546ed186c4",
    "ratio4-exact-gaussian-b3": "f1afc09cdbb79ac1b3cbf886",
    "ratio4-gaussian-b2": "495cd5cd41931683e1035ec2",
    "ratio4-gaussian-b3": "37be6dcfee151948dfa49c3c",
    "ratio4-gaussian0-b2": "a48dc79296efa5b1258caf79",
    "ratio4-gaussian0-b3": "2b61c8683720d5ede37ecfc9",
    "ratio4-rademacher-b2": "8cdfb5aef93e04efbcdcd5a9",
    "ratio4-rademacher-b3": "db712d1450da8c85ab27cee7",
    "ratio4-slabs-gaussian-b2": "005d44c3281b879bd56994ac",
    "ratio4-uniform-b2": "ec031e5fb754447dff2c696c",
    "ratio4-uniform-b3": "17e9e6fbfb767cead27f67b5",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bits_match_the_recorded_digest(name):
    assert CASES[name]() == DIGESTS[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
