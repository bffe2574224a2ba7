"""Grid cells as columns of one level sweep: ``sim._evaluate_cells`` gives
every law the bits ``dfs_evaluate`` gives it alone.

The digests pin ``dfs_evaluate``'s own bits, field by field, on the same
trees, so a change that moved both sides alike fails too.  To list the
current digests, run ``PYTHONPATH=src python tests/test_cells.py``.
"""

import hashlib
import math

import pytest

from treepolymer import (
    DeterministicConstant,
    GaussianIndep,
    LogNormalUniformPhase,
    RademacherPhase,
    TreeStream,
    dfs_evaluate,
)
from treepolymer import mc
from treepolymer import sim as sim_module
from treepolymer.sim import DEFAULT_NODE_BUDGET

FIELDS = ("z", "z_abs", "z_abs2", "t_damped", "w_cond", "ln_abs_z",
          "ln_z_abs", "ln_z_abs2", "ln_t_damped", "ln_w_cond", "arg_z")

# the four built-in laws mixed with a gaussian and a uniform-phase beta x
# gamma block
MIXED = [GaussianIndep(0.3, 0.3), LogNormalUniformPhase(0.8, 0.5),
         RademacherPhase(t=0.5, beta=0.3), DeterministicConstant(0.7 + 0.3j)]
MIXED += [GaussianIndep(beta, gamma) for beta in (0.3, 1.5)
          for gamma in (0.1, 1.2)]
MIXED += [LogNormalUniformPhase(beta, gamma) for beta in (0.3, 1.5)
          for gamma in (0.4, 1.0)]
# beta = 120 loses Z(|xi|^2) and W to underflow (refused as nan), and
# beta = 1000 overflows a radius; their neighbours keep their values
RANGE = [GaussianIndep(0.5, 0.5), GaussianIndep(120.0, 0.5),
         LogNormalUniformPhase(0.8, 0.5), GaussianIndep(1000.0, 0.5),
         RademacherPhase(t=0.5, beta=0.3)]
# 70 cells where one sweep holds 2^14 / 2^8 = 64
LONG = [GaussianIndep(0.2 * i, 0.25 * j) for j in range(7) for i in range(10)]

# name: (laws, b, n, stream, include_w)
CASES = {
    f"mixed-b{b}-n{n}-{'w' if w else 'z'}": (MIXED, b, n, (17, 3), w)
    for b in (2, 3) for n in (1, 4, 8) for w in (True, False)}
CASES.update({f"range-{'w' if w else 'z'}": (RANGE, 2, 8, (1, 27), w)
              for w in (True, False)})
CASES["long-z"] = (LONG, 2, 8, (5, 1), False)

DIGESTS = {
    "mixed-b2-n1-w": "ae732e0c5cf450f38d4d97de",
    "mixed-b2-n1-z": "7d787b77009d6c21fb3592c0",
    "mixed-b2-n4-w": "ca31c66058fd47d55073afd9",
    "mixed-b2-n4-z": "42195dc96f7db2b564992636",
    "mixed-b2-n8-w": "1957d4997c91471861c56c37",
    "mixed-b2-n8-z": "e07083f17566baac5001cc53",
    "mixed-b3-n1-w": "86ac32d454b77547f7694f2d",
    "mixed-b3-n1-z": "5289e99a2754746a8e73d525",
    "mixed-b3-n4-w": "2755e8b5a42d79da6ca76946",
    "mixed-b3-n4-z": "cc5fcb5943b8ddce7d9fdf03",
    "mixed-b3-n8-w": "daa5021cc55401edc03e3eb1",
    "mixed-b3-n8-z": "d40e9d3bb8d497b162ca8fe6",
    "range-w": "ac39b8ece1855c439e9b4f11",
    "range-z": "c9b4b9032d0dfc12f3363d68",
    "long-z": "7ee1b3d9f22b7796799c036e",
}


def _hex(fs) -> str:
    """Every field of a FunctionalSet in hex; nan reads 'nan' whatever its
    sign or payload, and an absent field '-'."""
    out = []
    for name in FIELDS:
        v = getattr(fs, name)
        if v is None:
            out.append("-")
        elif isinstance(v, complex):
            out += [v.real.hex(), v.imag.hex()]
        else:
            out.append(float(v).hex())
    return " ".join(out)


def _alone(case: str) -> list[str]:
    laws, b, n, (seed, replica), w = CASES[case]
    return [_hex(dfs_evaluate(law, b, n, TreeStream(seed, replica),
                              include_w=w)) for law in laws]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:24]


@pytest.mark.parametrize("case", CASES)
def test_each_law_alone_keeps_its_bits(case):
    assert _digest(_alone(case)) == DIGESTS[case]


@pytest.mark.parametrize("case", CASES)
def test_cells_give_each_law_its_bits_alone(case):
    laws, b, n, (seed, replica), w = CASES[case]
    cells = sim_module._evaluate_cells(laws, b, n, TreeStream(seed, replica),
                                       include_w=w)
    assert [_hex(fs) for fs in cells] == _alone(case)


def test_refused_and_overflowing_columns_leave_their_neighbours_alone():
    cells = sim_module._evaluate_cells(RANGE, 2, 8, TreeStream(1, 27))
    assert math.isnan(cells[1].z_abs2) and math.isnan(cells[1].w_cond)
    assert math.isfinite(cells[1].ln_abs_z)
    assert math.isnan(cells[3].ln_abs_z)
    for fs in cells[0::2]:
        assert all(math.isfinite(getattr(fs, name)) for name in FIELDS
                   if name != "z")


def test_trees_wider_than_a_block_take_one_column_per_sweep(monkeypatch):
    # the bottom blocks and the top sweep over their roots, law by law:
    # mc's replica map takes no cell sweep here; its replica 2 at seed 7
    # is TreeStream(7, 2)
    monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", 4)
    for b, n in [(2, 6), (3, 4)]:
        for w in (True, False):
            cells = mc._replica_map(MIXED, b, n, 3, 7, DEFAULT_NODE_BUDGET,
                                    w)[2]
            alone = [dfs_evaluate(law, b, n, TreeStream(7, 2), include_w=w)
                     for law in MIXED]
            assert [_hex(fs) for fs in cells] == [_hex(fs) for fs in alone]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}": "{_digest(_alone(case))}",')
