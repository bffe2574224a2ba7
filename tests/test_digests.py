"""Bit-identity guard: SHA-256 digests of the draw paths and the diagram.

Each case hashes the exact bytes of an output of ``batch_z_values``,
``ratio4`` (per-tree ratios and their jackknife SEs), ``dfs_evaluate`` or
``one_step_identity_check`` (its residuals and SEs) over b in {2, 3} and
the four built-in laws, of ``dfs_evaluate`` at b = 2 where it used to
compensate its sums or on trees deeper than its bottom blocks, or of the
CSV, pixmap, stdout and stderr of one ``diagram`` run.  A change to these
functions that moves any output by one bit fails here.  To list the
current digests, run ``PYTHONPATH=src python tests/test_digests.py``; each
line whose digest differs from ``DIGESTS`` ends in ``# was <old digest>``.

History.  The ``batch`` and ``ratio4`` digests were recorded before the
draw paths were rewritten to draw and transform whole counter ranges, the
diagram digests before the diagram was classified by column, and the
``batch-deep`` digests before a batch pass drew each node once for all its
replicas.  The ``dfs`` digests were re-recorded when the level sweep
stopped carrying T (it derives T = q^n Z(|xi|) at the root, and W's pair
term from Z(|xi|)'s update) and its top sweep took numpy's complex
product, as the bottom blocks do; ``dfs-constant-b3`` and
``dfs-compensated-n6-z`` kept their older bits.  The ``onestep`` digests
were re-recorded when the resamples moved to the batch stream and their
path sums became row-by-row numpy sums instead of BLAS dot products, and
again when Z_{n+1} became the bottom-up sum of ``sim._column_z`` instead of
path products and Z_n came from ``dfs_evaluate``.  ``onestep-constant-b2``
and ``onestep-constant-b3`` were re-recorded when a gap within roundoff of
the target (1e-12 relative) began to score 0 whatever the SE: their
residuals went from noise (44.7 and 20, 10) to 0, their SEs held.

Z from ``dfs_evaluate`` takes numpy's complex array product, which uses
fused multiply-adds where the CPU has them (see ``treepolymer.sim``), so
the dfs digests hold on machines whose numpy dispatches to the same loops
as the one they were recorded on (x86-64 with AVX-512, numpy 2.4).
"""

import contextlib
import hashlib
import io
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from treepolymer import (
    DeterministicConstant,
    GaussianIndep,
    LogNormalUniformPhase,
    RademacherPhase,
    TreeStream,
    batch_z_values,
    cli,
    dfs_evaluate,
    ratio4,
)
from treepolymer import sim

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
# (n, replicas): trees whose one pass spans nested bottom subtrees, with
# levels wider than one transform slab
BATCH_DEEP = {2: (12, 1000), 3: (8, 1000)}
# (b, n, omega replicas, phase resamples)
RATIO4_SIZES = {2: (5, 2, 1000), 3: (3, 2, 1000)}
# (b, n, resamples): one pass, whose generation n+1 is transformed in four
# slabs of nodes, the last one partial
ONESTEP_SIZES = {2: (10, 100), 3: (6, 100)}
# n = 15 at b = 2 goes past the vectorized bottom blocks
DFS_DEPTHS = {2: (6, 15), 3: (5,)}
# (b, n): where sums were once Neumaier-compensated, by default above
# n = 16 and on request at n = 6.  At b = 2 a compensated pair sum rounds
# back to the plain one, so the Z-only n = 6 case keeps the bits of then.
DFS_COMPENSATED = {"n17": (2, 17), "n6": (2, 6)}
# (b, n, bottom-block leaves or None for the default): trees that take the
# level sweep above the bottom blocks; each case hashes 52 trees, with W,
# over the four random laws.
DFS_TOP = {"b2-n9-block4": (2, 9, 4),
           "b3-n6-block4": (3, 6, 4),
           "b2-n15": (2, 15, None),
           "b3-n10": (3, 10, None)}
TOP_LAWS = ("gaussian", "uniform", "rademacher", "gaussian0")
TOP_TREES = 52
# diagram flags per case; the default model is gaussian and b is 2
DIAGRAMS = {
    "gaussian": ["--grid", "0:2:100"],
    "uniform": ["--model", "uniform", "--grid", "0:2:100,0:1:100"],
    "b3": ["--b", "3", "--grid", "0:2:50,0:2:40"],
    "slice": ["--grid", "0:2:40,0:0:1"],
    "estimates": ["--grid", "0.2:1.8:4", "--replicas", "2", "--n", "8"],
}


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


def _batch_deep(b):
    n, reps = BATCH_DEEP[b]
    return _hash(batch_z_values(LAWS["gaussian"], b, n, seed=19,
                                replicas=reps))


def _ratio4(law, b):
    n, omegas, m = RATIO4_SIZES[b]
    est = ratio4(LAWS[law], b, n, omegas, m, seed=5)
    return _hash(*est.values, *est.value_ses)


def _ratio4_slabs():
    # 2046 nodes x 1500 resamples: more draws than one transform slab
    est = ratio4(LAWS["gaussian"], 2, 10, 1, 1500, seed=8)
    return _hash(*est.values, *est.value_ses)


def _onestep(law, b):
    n, m = ONESTEP_SIZES[b]
    rep = sim.one_step_identity_check(LAWS[law], b, n, TreeStream(13, 0),
                                      resamples=m)
    return _hash(rep.mean_residual, rep.second_residual, rep.mean_se,
                 rep.second_se)


def _fields(fs):
    return [fs.z, fs.z_abs, fs.z_abs2, fs.t_damped, fs.w_cond, fs.ln_abs_z,
            fs.ln_z_abs, fs.ln_z_abs2, fs.ln_t_damped, fs.ln_w_cond, fs.arg_z]


def _dfs(law, b):
    parts = []
    for n in DFS_DEPTHS[b]:
        for r in range(3):
            include_w = law != "constant" or r == 0
            fs = dfs_evaluate(LAWS[law], b, n, TreeStream(11, r),
                              include_w=include_w)
            parts += _fields(fs)
    return _hash(*parts)


def _dfs_compensated(key, include_w):
    b, n = DFS_COMPENSATED[key]
    parts = []
    for r in range(2):
        fs = dfs_evaluate(LAWS["gaussian"], b, n, TreeStream(23, r),
                          include_w=include_w)
        parts += _fields(fs)
    return _hash(*parts)


def _dfs_top(key):
    b, n, leaves = DFS_TOP[key]
    block = leaves if leaves is not None else sim._BLOCK_LEAVES
    parts = []
    with mock.patch.object(sim, "_BLOCK_LEAVES", block):
        for r in range(TOP_TREES):
            law = LAWS[TOP_LAWS[r % len(TOP_LAWS)]]
            fs = dfs_evaluate(law, b, n, TreeStream(31, r))
            parts += _fields(fs)
    return _hash(*parts)


def _dfs_blocks():
    """One depth-20 tree with W per random law: 64 bottom blocks at b = 2."""
    parts = []
    for r, law in enumerate(TOP_LAWS):
        parts += _fields(dfs_evaluate(LAWS[law], 2, 20, TreeStream(37, r)))
    return _hash(*parts)


def _diagram(flags):
    """Digest of the CSV, pixmap, stdout and stderr of one diagram run; the
    output stem in stdout is replaced, so the digest is path-free."""
    with tempfile.TemporaryDirectory() as tmp:
        stem = str(Path(tmp) / "map")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["diagram", *flags, "--out", stem])
        h = hashlib.sha256(str(code).encode())
        for data in (Path(stem + ".csv").read_bytes(),
                     Path(stem + ".ppm").read_bytes(),
                     out.getvalue().replace(stem, "STEM").encode(),
                     err.getvalue().encode()):
            h.update(struct.pack("<q", len(data)))
            h.update(data)
    return h.hexdigest()[:24]


CASES = {}
for _b in (2, 3):
    for _law in LAWS:
        CASES[f"batch-{_law}-b{_b}"] = lambda law=_law, b=_b: _batch(law, b)
        CASES[f"ratio4-{_law}-b{_b}"] = lambda law=_law, b=_b: _ratio4(law, b)
        CASES[f"dfs-{_law}-b{_b}"] = lambda law=_law, b=_b: _dfs(law, b)
        CASES[f"onestep-{_law}-b{_b}"] = \
            lambda law=_law, b=_b: _onestep(law, b)
    CASES[f"batch-deep-gaussian-b{_b}"] = lambda b=_b: _batch_deep(b)
CASES["ratio4-slabs-gaussian-b2"] = _ratio4_slabs
CASES["dfs-blocks-b2-n20"] = _dfs_blocks
for _key in DFS_COMPENSATED:
    CASES[f"dfs-compensated-{_key}-w"] = \
        lambda key=_key: _dfs_compensated(key, True)
    CASES[f"dfs-compensated-{_key}-z"] = \
        lambda key=_key: _dfs_compensated(key, False)
for _key in DFS_TOP:
    CASES[f"dfs-top-{_key}"] = lambda key=_key: _dfs_top(key)
for _name, _flags in DIAGRAMS.items():
    CASES[f"diagram-{_name}"] = lambda flags=_flags: _diagram(flags)

DIGESTS = {
    "batch-constant-b2": "251fe8336a06c933666537fd",
    "batch-constant-b3": "c6db489c389b6c3d13ea2300",
    "batch-deep-gaussian-b2": "990d057ad383c541cf060f37",
    "batch-deep-gaussian-b3": "ca19fd6ed65c3e07b9fdcec8",
    "batch-gaussian-b2": "3ce6bbc7b13937253e774709",
    "batch-gaussian-b3": "5913462b4dee00844ef9cd84",
    "batch-gaussian0-b2": "29d47de4fe6e592bd9603cd2",
    "batch-gaussian0-b3": "e6b35fa06bd60614c18f497e",
    "batch-rademacher-b2": "7724e8b23cdc8653cb661b10",
    "batch-rademacher-b3": "270981951793fa0df93a5377",
    "batch-uniform-b2": "ea4a3d4ce173258cf32bd643",
    "batch-uniform-b3": "bbfa7b4dbe9d1aecca5fc16a",
    "dfs-blocks-b2-n20": "a02338d0a9488844a0ea2139",
    "dfs-compensated-n17-w": "720cdd6916b7b4515ed13f09",
    "dfs-compensated-n17-z": "bb70e45dec8127a6f1454101",
    "dfs-compensated-n6-w": "9097400c3b925745ec6d0ddf",
    "dfs-compensated-n6-z": "9fe6c3832d8d4ff2cba2994b",
    "dfs-constant-b2": "a2959a8a5b9b14f4eb4db593",
    "dfs-constant-b3": "eee254fa9f9ba6ffb928d1ea",
    "dfs-gaussian-b2": "0f91b3ff57a5801e1c360a83",
    "dfs-gaussian-b3": "4870b928bff562f8e2b462e1",
    "dfs-gaussian0-b2": "6e7cac2a862aa9975131d16b",
    "dfs-gaussian0-b3": "e3b191e14d761d015070e9a7",
    "dfs-rademacher-b2": "0fd5ccf107e7607344ecdace",
    "dfs-rademacher-b3": "d90308420f528b03c57ab2c2",
    "dfs-uniform-b2": "018685b4d888e2f2aeab59db",
    "dfs-top-b2-n15": "d3ad1e90244d3651b1765df0",
    "dfs-top-b2-n9-block4": "3fd898722e9310c75e114ec6",
    "dfs-top-b3-n10": "1a3ed6a0186327552c8ebd58",
    "dfs-top-b3-n6-block4": "0185d825186c2b899a548013",
    "dfs-uniform-b3": "402a15edd0ec74715b26fad2",
    "diagram-b3": "46f38d231bd0f5af8334c093",
    "diagram-estimates": "5057fbde978e0ca19ad0a414",
    "diagram-gaussian": "6dcbb41714cc5014e3ac6ab7",
    "diagram-slice": "e23676fe1a8d52f2bdea3e95",
    "diagram-uniform": "b32d6f96d5e9bf2fdfac0128",
    "onestep-constant-b2": "c4971c8ee8aa3330f6a40262",
    "onestep-constant-b3": "407ed97dab01f4586c8942b0",
    "onestep-gaussian-b2": "e2b520839e17a6a8e5c4dc71",
    "onestep-gaussian-b3": "fb4fb576bce04477381b83dd",
    "onestep-gaussian0-b2": "17d8f0bcc5337b731af6d602",
    "onestep-gaussian0-b3": "401ce49d0def581b7ec99be9",
    "onestep-rademacher-b2": "86c52cab8a5d83c5c79de0cf",
    "onestep-rademacher-b3": "f93a13a7f1ca969f45242633",
    "onestep-uniform-b2": "bb2f8eaff3731631fed14f68",
    "onestep-uniform-b3": "3fb2968302f453d465af8a50",
    "ratio4-constant-b2": "145869cd3d319d75381d9026",
    "ratio4-constant-b3": "2f4a273cc86fc42180d576d0",
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


def test_every_recorded_digest_has_a_case():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bits_match_the_recorded_digest(name):
    assert CASES[name]() == DIGESTS[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        new, old = CASES[name](), DIGESTS.get(name, "absent")
        was = "" if new == old else f"  # was {old}"
        print(f'    "{name}": "{new}",{was}')
