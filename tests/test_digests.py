"""Bit-identity guard: SHA-256 digests of the draw paths and the diagram.

Each case hashes the exact bytes of an output of ``batch_z_values``,
``ratio4`` (per-tree ratios and their jackknife SEs), ``dfs_evaluate`` or
``one_step_identity_check`` (its residuals and SEs) over b in {2, 3} and
the four built-in laws, of ``dfs_evaluate`` at b = 2 where it used to
compensate its sums or on trees deeper than its bottom blocks, or of the
CSV, pixmap, stdout and stderr of one ``diagram`` run.  A change to these
functions that moves any output by one bit fails here.  To list the
current digests, run ``PYTHONPATH=src python tests/test_digests.py``; each
line whose digest differs from ``DIGESTS`` ends in ``# was <old digest>``,
and when any differs the script says how many on stderr and exits 1.

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
residuals went from noise (44.7 and 20, 10) to 0, their SEs held.  Every
digest of a log-normal law (43 of 57: the ``batch``, ``ratio4``, ``dfs``
and ``onestep`` cases of the gaussian, gaussian0, uniform and rademacher
laws but ``ratio4-gaussian0``, whose ratios are exactly 1, and every
``batch-deep``, ``ratio4-slabs``, ``dfs-blocks``, ``dfs-compensated`` and
``dfs-top`` case, and ``diagram-estimates``) was re-recorded when
``rng.normal_pair`` began to take the Box-Muller angle from a table of turn
fractions instead of numpy's cos and sin, which moves most normals in their
last bits.  Two of them moved for a second reason too: the beta axis of
``diagram-estimates`` now ends at exactly 1.8, not at 1.8000000000000003,
and ``onestep-gaussian-b2``'s target reads sigma^2, now formed as
E|xi|^2 (1 - |E xi|^2 / E|xi|^2).  The constant-law and the other four
diagram digests held.  The five diagram digests were re-recorded when
``phase.alpha_min`` began to search ln a down to a = 1e-300 and
``critical_set`` to set beta_0 = beta_c / 2: f moved by roundoff in about
4 of every 10 cells, all in R2 (at most 4.3e-16 relative), the critical
comment's beta_0 moved by 1.7e-13 relative at b = 2, and no region changed.

Z from ``dfs_evaluate`` takes numpy's complex array product, which uses
fused multiply-adds where the CPU has them (see ``treepolymer.sim``), so
the dfs digests hold on machines whose numpy dispatches to the same loops
as the one they were recorded on (x86-64 with AVX-512, numpy 2.4).
"""

import contextlib
import hashlib
import io
import struct
import sys
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
# (b, n, resamples): one pass, whose generation n+1 is transformed in
# several slabs of nodes (13 and 14), the last one partial
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
    "batch-deep-gaussian-b2": "321661837ee57aa336ab70c4",
    "batch-deep-gaussian-b3": "946a8f4269b44c0c822fd164",
    "batch-gaussian-b2": "01f7d6e27803e52a5c721bd4",
    "batch-gaussian-b3": "5fe6320fe87c4934c449344c",
    "batch-gaussian0-b2": "69b3d0d22e39b51d1d7a968c",
    "batch-gaussian0-b3": "158c3efb8d27d7462bc22e92",
    "batch-rademacher-b2": "cfdbfb0a3d5806355dead2a8",
    "batch-rademacher-b3": "2e2e4cc1cc083842783d7305",
    "batch-uniform-b2": "ff8a84c76b34816949d71390",
    "batch-uniform-b3": "0ddc5fa5379465f1999e908b",
    "dfs-blocks-b2-n20": "3fe0bed6a36368d3c0176f8d",
    "dfs-compensated-n17-w": "6f01e2d93cc4c1a0b07ad5df",
    "dfs-compensated-n17-z": "bcdc059711bd6026707184b3",
    "dfs-compensated-n6-w": "e8cc5d77a9321e7693dbb561",
    "dfs-compensated-n6-z": "5dab655af2a3dcde13379257",
    "dfs-constant-b2": "a2959a8a5b9b14f4eb4db593",
    "dfs-constant-b3": "eee254fa9f9ba6ffb928d1ea",
    "dfs-gaussian-b2": "77f782e9defac6d80d9c251f",
    "dfs-gaussian-b3": "85f96cf0193083eab35bcd2a",
    "dfs-gaussian0-b2": "cee9f4d97e1664702bbd1936",
    "dfs-gaussian0-b3": "ab4c5f8d5eb19b143f093b0e",
    "dfs-rademacher-b2": "efba27436e13c5b99e77dc26",
    "dfs-rademacher-b3": "4450d1250bdb8d99240a3971",
    "dfs-top-b2-n15": "b8220b1876e45e23acaa33e3",
    "dfs-top-b2-n9-block4": "e228e2df47ceb15734bdc997",
    "dfs-top-b3-n10": "532023a669e5c4ee0d92cc2a",
    "dfs-top-b3-n6-block4": "1fb73cc1d70e2d01b9c249a2",
    "dfs-uniform-b2": "edfbdb8b35f5f176aae25182",
    "dfs-uniform-b3": "03a513263c1cf4fb3dc098c8",
    "diagram-b3": "4629d8cd12c27225a15291e6",
    "diagram-estimates": "2a2e280cdb5ddfef0a9b6ea1",
    "diagram-gaussian": "c3f55f723357738a43d5181a",
    "diagram-slice": "0bd1c4668c968cad996b073d",
    "diagram-uniform": "326d41d16e0217ce66d73139",
    "onestep-constant-b2": "c4971c8ee8aa3330f6a40262",
    "onestep-constant-b3": "407ed97dab01f4586c8942b0",
    "onestep-gaussian-b2": "625daf34cd904e7e70de6041",
    "onestep-gaussian-b3": "3ef9e12662193b49f8d40a8c",
    "onestep-gaussian0-b2": "5c6f977427111b6b69447ffd",
    "onestep-gaussian0-b3": "bc4fffdc3c09ad0eaa4e291c",
    "onestep-rademacher-b2": "0efd0149393af785d740dd89",
    "onestep-rademacher-b3": "b2b11b85377e01ace8914508",
    "onestep-uniform-b2": "f3f272282f50abc367aa8bc1",
    "onestep-uniform-b3": "1be3ec453c9f6aa0035194b9",
    "ratio4-constant-b2": "145869cd3d319d75381d9026",
    "ratio4-constant-b3": "2f4a273cc86fc42180d576d0",
    "ratio4-gaussian-b2": "005a64143a3b4f5e8a09cbe2",
    "ratio4-gaussian-b3": "feadbe5c5d43974eb8a14e0c",
    "ratio4-gaussian0-b2": "a48dc79296efa5b1258caf79",
    "ratio4-gaussian0-b3": "2b61c8683720d5ede37ecfc9",
    "ratio4-rademacher-b2": "fd7db71a97c8f6e76be6bb92",
    "ratio4-rademacher-b3": "f545beaab4837bfefa5a2293",
    "ratio4-slabs-gaussian-b2": "e8aea18fb68173982c56f035",
    "ratio4-uniform-b2": "f6591011f66ad4470af64e97",
    "ratio4-uniform-b3": "c9c14a31d22e0f2d8fd6adf8",
}


def test_every_recorded_digest_has_a_case():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bits_match_the_recorded_digest(name):
    assert CASES[name]() == DIGESTS[name]


def _trees(case):
    """(law, b, n, stream, bottom-block leaves or None) of every tree that
    the dfs digests hash: all of ``_dfs``'s, or one dfs-blocks or dfs-top
    case's."""
    if case == "dfs":
        return [(LAWS[law], b, n, TreeStream(11, r), None)
                for b, depths in DFS_DEPTHS.items() for law in LAWS
                for n in depths for r in range(3)]
    if case == "dfs-blocks-b2-n20":
        return [(LAWS[law], 2, 20, TreeStream(37, r), None)
                for r, law in enumerate(TOP_LAWS)]
    b, n, leaves = DFS_TOP[case.removeprefix("dfs-top-")]
    return [(LAWS[TOP_LAWS[r % len(TOP_LAWS)]], b, n, TreeStream(31, r),
             leaves) for r in range(TOP_TREES)]


@pytest.mark.parametrize("case", ["dfs", "dfs-blocks-b2-n20",
                                  *(f"dfs-top-{key}" for key in DFS_TOP)])
def test_z_keeps_its_bits_with_and_without_w(case):
    # one walk with W serves both rates, so Z's fields must not read W;
    # z_abs2 is left out, since W's root bound may refuse it
    for law, b, n, stream, leaves in _trees(case):
        with mock.patch.object(sim, "_BLOCK_LEAVES",
                               leaves or sim._BLOCK_LEAVES):
            with_w, alone = [dfs_evaluate(law, b, n, stream, include_w=w)
                             for w in (True, False)]
        assert _hash(with_w.z, with_w.ln_abs_z, with_w.arg_z) \
            == _hash(alone.z, alone.ln_abs_z, alone.arg_z)


if __name__ == "__main__":
    differ = 0
    for name in sorted(CASES):
        new, old = CASES[name](), DIGESTS.get(name, "absent")
        differ += new != old
        was = "" if new == old else f"  # was {old}"
        print(f'    "{name}": "{new}",{was}')
    if differ:
        print(f"{differ} of {len(CASES)} digests differ", file=sys.stderr)
        sys.exit(1)
