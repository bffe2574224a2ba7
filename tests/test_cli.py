"""Command-line interface: JSON/CSV/pixmap outputs, config plumbing, exit codes."""

import json
import math
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from treepolymer import cli, phase, spec_from_config
from treepolymer.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNDETERMINED,
    EXPERIMENT_HEADER,
    _fmt,
    _parse_grid,
    main,
    rows_to_csv,
)
from treepolymer.errors import ConfigError

from laws import CoupledGaussian

LN2 = math.log(2.0)


def strict_loads(text):
    def no_constants(token):
        raise ValueError(f"non-strict JSON token: {token}")

    return json.loads(text, parse_constant=no_constants)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- serializers


def test_cell_formatting_is_round_trip_stable():
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(3) == "3"
    assert _fmt(np.int64(7)) == "7"
    assert _fmt(0.1) == "0.1"
    assert _fmt(np.float64(0.25)) == "0.25"
    assert float(_fmt(1.0 / 3.0)) == 1.0 / 3.0
    assert _fmt("R2a") == "R2a"


def test_csv_layout():
    text = rows_to_csv(["a", "b"], [[1, 2.5], ["x", True]])
    assert text == "a,b\n1,2.5\nx,true\n"


def test_grid_parsing():
    assert _parse_grid("0:2:5") == ((0.0, 2.0, 5), (0.0, 2.0, 5))
    assert _parse_grid("0:1:3,0.5:0.9:2") == ((0.0, 1.0, 3), (0.5, 0.9, 2))
    for bad in ("0:2", "0:2:0", "2:0:5", "a:b:c", "0:2:5,0:1:2,0:1:2", "0:inf:4"):
        with pytest.raises(ConfigError):
            _parse_grid(bad)


# ------------------------------------------------------------- phase-point


def test_phase_point_reports_both_classifiers(capsys):
    code, out, err = run(["phase-point", "--beta", "0.3", "--gamma", "0.3"], capsys)
    assert code == EXIT_OK
    payload = strict_loads(out)
    assert payload["generic"]["region"] == "R1"
    assert payload["closed_form"]["region"] == "R1"
    assert payload["agree"] is True
    assert payload["generic"]["predicted_f"] == pytest.approx(LN2, abs=1e-9)
    assert payload["critical"]["beta_c"] == pytest.approx(math.sqrt(2 * LN2), abs=1e-8)
    # closed-form reports carry no minimizer; NaN must arrive as null
    assert payload["closed_form"]["alpha_min"] is None
    assert "region R1" in err


def test_phase_point_strong_disorder_example(capsys):
    code, out, _ = run(["phase-point", "--beta", "1.5", "--gamma", "0.1"], capsys)
    assert code == EXIT_OK
    payload = strict_loads(out)
    assert payload["generic"]["region"] == "R2a"
    assert payload["generic"]["predicted_f"] == pytest.approx(
        1.5 * math.sqrt(2 * LN2), abs=1e-6)


def test_phase_point_writes_json_artifact(tmp_path, capsys):
    out_file = tmp_path / "point.json"
    code, out, _ = run(["phase-point", "--beta", "0.8", "--gamma", "0.8",
                        "--out", str(out_file)], capsys)
    assert code == EXIT_OK
    assert strict_loads(out_file.read_text()) == strict_loads(out)


def test_phase_point_infinite_critical_values_serialize_as_strings(capsys):
    code, out, _ = run(["phase-point", "--model", "constant", "--c", "1", "0"],
                       capsys)
    assert code == EXIT_OK
    payload = strict_loads(out)
    assert payload["critical"]["beta_c"] == "inf"
    assert payload["generic"]["region"] == "R1"
    assert payload["agree"] is True


def test_strict_flag_turns_undetermined_into_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_law", lambda cfg: CoupledGaussian(0.8, 0.5))
    code, out, _ = run(["phase-point", "--strict"], capsys)
    assert code == EXIT_UNDETERMINED
    payload = strict_loads(out)
    assert payload["generic"]["region"] == "Undetermined"
    assert payload["generic"]["predicted_f"] is None  # NaN sanitized
    assert payload["closed_form"] is None
    code, _, _ = run(["phase-point"], capsys)
    assert code == EXIT_OK


# ----------------------------------------------------------------- diagram


def test_diagram_writes_grid_cells_and_pixmap(tmp_path, capsys):
    stem = tmp_path / "map"
    code, out, err = run(["diagram", "--grid", "0:2:3", "--out", str(stem)],
                         capsys)
    assert code == EXIT_OK
    payload = strict_loads(out)
    assert payload["grid"] == {"beta": [0.0, 2.0, 3], "gamma": [0.0, 2.0, 3]}
    assert sum(payload["region_counts"].values()) == 9

    csv_lines = (stem.with_suffix(".csv")).read_text().splitlines()
    assert csv_lines[0].startswith("# critical beta_0=")
    assert csv_lines[1] == "beta,gamma,region,f"
    assert len(csv_lines) == 2 + 9
    first = csv_lines[2].split(",")
    assert first[0] == "0.0" and first[1] == "0.0"  # gamma-major, ascending

    ppm = (stem.with_suffix(".ppm")).read_bytes()
    assert ppm.startswith(b"P6\n# critical ")
    header_end = ppm.index(b"255\n") + 4
    assert b"3 3\n" in ppm[:header_end]
    pixels = ppm[header_end:]
    assert len(pixels) == 3 * 9
    top_left = tuple(pixels[0:3])        # beta=0, gamma=2: diagonal regime
    bottom_left = tuple(pixels[6 * 3: 6 * 3 + 3])   # beta=0, gamma=0: weak
    bottom_right = tuple(pixels[8 * 3: 8 * 3 + 3])  # beta=2, gamma=0: strong
    assert top_left == cli._REGION_COLORS["R3"]
    assert bottom_left == cli._REGION_COLORS["R1"]
    assert bottom_right == cli._REGION_COLORS["R2a"]
    assert "diagram 3x3" in err


def test_diagram_reruns_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for stem in (first, second):
        code, _, _ = run(["diagram", "--grid", "0:2:21,0:1.5:17",
                          "--out", str(stem)], capsys)
        assert code == EXIT_OK
    assert first.with_suffix(".csv").read_bytes() == second.with_suffix(".csv").read_bytes()
    assert first.with_suffix(".ppm").read_bytes() == second.with_suffix(".ppm").read_bytes()


def test_diagram_zero_phase_slice_has_no_diagonal_region(tmp_path, capsys):
    stem = tmp_path / "slice"
    code, out, _ = run(["diagram", "--grid", "0:2:40,0:0:1", "--out", str(stem)],
                       capsys)
    assert code == EXIT_OK
    counts = strict_loads(out)["region_counts"]
    assert "R3" not in counts
    assert counts.get("R1", 0) > 0
    assert counts.get("R2a", 0) > 0


def test_diagram_with_cell_estimates_extends_the_header(tmp_path, capsys):
    stem = tmp_path / "est"
    code, _, _ = run(["diagram", "--grid", "0.2:1:2,0.2:0.8:2",
                      "--n", "4", "--replicas", "3", "--out", str(stem)],
                     capsys)
    assert code == EXIT_OK
    lines = stem.with_suffix(".csv").read_text().splitlines()
    assert lines[1] == "beta,gamma,region,f,mc_mean,mc_ci_lo,mc_ci_hi"
    cells = lines[2].split(",")
    assert len(cells) == 7
    assert math.isfinite(float(cells[4]))


def test_diagram_refuses_zero_replicas_from_flag_and_config(tmp_path,
                                                            capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "replicas": 0}))
    stem = tmp_path / "zero"
    for source in (["--n", "4", "--replicas", "0"], ["--config", str(cfg)]):
        code, out, err = run(["diagram", "--grid", "0:2:3", "--out",
                              str(stem)] + source, capsys)
        assert code == EXIT_CONFIG
        assert out == "" and "replicas must be an integer >= 1" in err
        assert not stem.with_suffix(".csv").exists()


# (model, b, grid): round axes; offset, non-round axes shaped like the
# benchmark's; gamma axes ending at exactly 1.0 (E xi = 0 for uniform);
# 1 x N and N x 1 grids; b = 3
DIAGRAM_GRIDS = [
    ("gaussian", 2, "0:2:9,0:2:7"),
    ("uniform", 2, "0:2:9,0:1:7"),
    ("gaussian", 3, "0:2:6,0:2:5"),
    ("gaussian", 2, "0.0137:2.0137:23,0.0213:2.0213:19"),
    ("uniform", 2, "0.0137:2.0137:23,0.0213:0.9713:19"),
    ("uniform", 3, "0.0137:2.0137:23,0.0441:1.0:19"),
    ("gaussian", 3, "0.7:0.7:1,0:2:9"),
    ("uniform", 2, "0:2:9,0.4:0.4:1"),
]


@pytest.mark.parametrize("model, b, grid", DIAGRAM_GRIDS)
def test_diagram_rows_match_per_cell_classify(model, b, grid, tmp_path,
                                              capsys):
    stem = tmp_path / "cells"
    code, _, _ = run(["diagram", "--model", model, "--b", str(b),
                      "--grid", grid, "--out", str(stem)], capsys)
    assert code == EXIT_OK
    lines = stem.with_suffix(".csv").read_text().splitlines()[2:]
    (blo, bhi, bn), (glo, ghi, gn) = _parse_grid(grid)
    assert len(lines) == bn * gn
    for line in lines:
        beta, gamma, region, f = line.split(",")
        rep = phase.classify(
            spec_from_config({"model": model, "beta": float(beta),
                              "gamma": float(gamma)}),
            b, eps_boundary=1e-3)
        assert region == rep.region
        assert struct.pack("<d", float(f)) == \
            struct.pack("<d", rep.predicted_f)


@pytest.mark.parametrize("model, b, grid", DIAGRAM_GRIDS)
def test_scale_families_split_the_log_mean_bit_for_bit(model, b, grid):
    # the diagram forms ln|E xi| of a cell from one part per axis value
    law = cli._SCALE_FAMILIES[model]
    (blo, bhi, bn), (glo, ghi, gn) = _parse_grid(grid)
    for beta in cli._axis(blo, bhi, bn):
        for gamma in cli._axis(glo, ghi, gn):
            split = law(beta, 0.0).log_mean_abs() \
                + law(0.0, gamma).log_mean_abs()
            assert struct.pack("<d", split) == \
                struct.pack("<d", law(beta, gamma).log_mean_abs())


@pytest.mark.parametrize("flags, message", [
    (["--grid=-1:1:3"], "beta must be >= 0"),
    (["--model", "uniform", "--grid", "0:1:3,0:1.5:3"],
     "uniform-phase scale is limited to gamma <= 1"),
    (["--model", "uniform", "--grid", "0:1:3,-0.5:1:3"],
     "gamma must be in [0, 1]"),
    (["--grid", "0:1e200:3,0:1:2"],
     "beta must be <= 1e+150 so that the moments stay finite, got 5e+199"),
])
def test_diagram_refusals_write_nothing(flags, message, tmp_path, capsys):
    code, out, err = run(["diagram", *flags, "--out", str(tmp_path / "x")],
                         capsys)
    assert code == EXIT_CONFIG and out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


def test_diagram_axes_end_at_exactly_their_upper_bounds(tmp_path, capsys):
    # 0.0213 + (1.0 - 0.0213) rounds to 1.0000000000000002, which the
    # uniform law refuses as a gamma; the axis ends at 1.0 itself
    stem = tmp_path / "edge"
    code, _, err = run(["diagram", "--model", "uniform", "--grid",
                        "0.0137:2.0137:23,0.0213:1.0:19", "--out", str(stem)],
                       capsys)
    assert code == EXIT_OK, err
    rows = [line.split(",") for line in
            stem.with_suffix(".csv").read_text().splitlines()[2:]]
    assert len(rows) == 23 * 19
    assert max(float(r[0]) for r in rows) == 2.0137
    assert max(float(r[1]) for r in rows) == 1.0
    for lo, hi, steps in [(0.0213, 1.0, 19), (0.2, 1.8, 4), (0.0, 2.0, 100)]:
        axis = cli._axis(lo, hi, steps)
        assert axis[0] == lo and axis[-1] == hi and len(axis) == steps
        assert all(a < b for a, b in zip(axis, axis[1:]))


def test_diagram_cell_count_is_capped_by_the_budget(tmp_path, capsys):
    stem = tmp_path / "big"
    code, out, err = run(["diagram", "--grid", "0:2:20", "--budget-nodes",
                          "100", "--out", str(stem)], capsys)
    assert code == EXIT_CONFIG
    assert "20x20 = 400 cells exceeds budget 100" in err
    assert out == "" and not stem.with_suffix(".csv").exists()
    code, _, _ = run(["diagram", "--grid", "0:2:10", "--budget-nodes", "100",
                      "--out", str(stem)], capsys)
    assert code == EXIT_OK  # a grid of exactly the budget runs


def test_diagram_guards(tmp_path, capsys):
    code, _, err = run(["diagram", "--grid", "0:2:4", "--out",
                        str(tmp_path / "x"), "--model", "constant",
                        "--c", "1", "0"], capsys)
    assert code == EXIT_CONFIG and "error:" in err
    code, _, err = run(["diagram", "--grid", "0:2:4,0:2:4", "--out",
                        str(tmp_path / "y"), "--model", "uniform"], capsys)
    assert code == EXIT_CONFIG  # uniform phase scale cannot exceed 1
    code, _, err = run(["diagram", "--grid", "0:2:4"], capsys)
    assert code == EXIT_CONFIG  # diagram requires --out
    code, _, err = run(["diagram", "--grid", "nope", "--out",
                        str(tmp_path / "z")], capsys)
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------- simulate


def test_simulate_constant_law_writes_exact_experiment_rows(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code, out, err = run(["simulate", "--model", "constant", "--c", "1", "0",
                          "--n", "3", "--replicas", "4", "--out",
                          str(out_file)], capsys)
    assert code == EXIT_OK
    payload = strict_loads(out)
    result = payload["results"]["free_energy"]
    assert result["mean"] == pytest.approx(LN2, rel=1e-12)
    assert result["std_error"] == 0.0
    assert result["region"] == "R1"
    assert result["predicted"] == pytest.approx(LN2, rel=1e-12)
    lines = out_file.read_text().splitlines()
    assert lines[0] == ",".join(EXPERIMENT_HEADER)
    cells = lines[1].split(",")
    assert cells[0] == "constant"
    assert cells[7] == "free_energy"
    assert float(cells[8]) == pytest.approx(LN2, rel=1e-12)
    assert cells[13] == "R1"
    assert cells[14] == "0"
    assert "free_energy: mean" in err


def test_simulate_both_functionals_yields_two_rows(tmp_path, capsys):
    out_file = tmp_path / "both.csv"
    code, out, _ = run(["simulate", "--beta", "0.3", "--gamma", "0.3",
                        "--n", "4", "--replicas", "3", "--only", "both",
                        "--out", str(out_file)], capsys)
    assert code == EXIT_OK
    payload = strict_loads(out)
    assert set(payload["results"]) == {"free_energy", "w_free_energy"}
    lines = out_file.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[7] == "free_energy"
    assert lines[2].split(",")[7] == "w_free_energy"
    # weak-disorder pair prediction: ln b dominates the damped route
    assert payload["results"]["w_free_energy"]["predicted"] == pytest.approx(
        LN2, abs=1e-9)


def test_simulate_trace_mode(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    code, out, _ = run(["simulate", "--beta", "0.5", "--gamma", "0.5",
                        "--n", "5", "--replicas", "1", "--only", "trace",
                        "--out", str(out_file)], capsys)
    assert code == EXIT_OK
    assert strict_loads(out)["trace_rows"] == 5
    lines = out_file.read_text().splitlines()
    assert lines[0] == "n,ln_abs_z_over_n,ln_z_abs_over_n,ln_z_abs2_over_n,ln_w_cond_over_2n"
    assert len(lines) == 6
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4", "5"]


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    files = []
    for name in ("one.csv", "two.csv"):
        out_file = tmp_path / name
        code, _, _ = run(["simulate", "--beta", "0.8", "--gamma", "0.8",
                          "--n", "6", "--replicas", "8", "--only", "both",
                          "--out", str(out_file)], capsys)
        assert code == EXIT_OK
        files.append(out_file.read_bytes())
    assert files[0] == files[1]


def test_simulate_guards(capsys):
    code, _, err = run(["simulate", "--beta", "0.5", "--gamma", "0.5",
                        "--replicas", "4"], capsys)
    assert code == EXIT_CONFIG and "missing required parameter: --n" in err
    code, _, err = run(["simulate", "--beta", "0.5", "--gamma", "0.5",
                        "--n", "4", "--replicas", "4", "--only", "bogus"],
                       capsys)
    assert code == EXIT_CONFIG and "unknown simulate selector" in err
    code, _, err = run(["simulate", "--beta", "0.5", "--gamma", "0.5",
                        "--n", "40", "--replicas", "1"], capsys)
    assert code == EXIT_CONFIG and "budget" in err


def test_simulate_subnormal_constant_runs(capsys):
    code, out, _ = run(["simulate", "--model", "constant", "--c", "1e-320",
                        "0", "--n", "4", "--replicas", "2", "--only",
                        "free_energy"], capsys)
    assert code == EXIT_OK
    mean = strict_loads(out)["results"]["free_energy"]["mean"]
    assert mean == pytest.approx(LN2 + math.log(1e-320), rel=1e-6)


def test_simulate_refuses_an_overflowed_functional(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["simulate", "--beta", "120", "--gamma", "0.5",
                              "--n", "8", "--replicas", "4", "--only",
                              "w_free_energy"], capsys)
    assert code == EXIT_CONFIG and out == ""
    assert caught == []
    assert len(err.splitlines()) == 1
    assert err.startswith("error: w_free_energy is nan")


def test_simulate_carries_w_past_a_squared_radius_overflow(capsys):
    # |c|^2 = 1e600 overflows float64; q = 1 and W = |Z|^2 for a constant
    code, out, _ = run(["simulate", "--model", "constant", "--c", "1e300",
                        "0", "--n", "6", "--replicas", "2", "--only", "both"],
                       capsys)
    assert code == EXIT_OK
    results = strict_loads(out)["results"]
    want = LN2 + math.log(1e300)
    assert results["free_energy"]["mean"] == pytest.approx(want, rel=1e-12)
    assert results["w_free_energy"]["mean"] == \
        pytest.approx(results["free_energy"]["mean"], rel=1e-12)


def test_simulate_trace_refuses_an_overflowed_radius(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, out, err = run(["simulate", "--beta", "600", "--gamma", "0.5",
                          "--n", "4", "--replicas", "1", "--only", "trace",
                          "--out", str(out_file)], capsys)
    assert code == EXIT_CONFIG and out == ""
    assert not out_file.exists()
    assert err.startswith("error: trace ") and "at depth 1" in err


# ------------------------------------------------------------------ verify


def test_verify_single_check_passes(tmp_path, capsys):
    out_file = tmp_path / "verify.csv"
    code, out, err = run(["verify", "--only", "pz", "--out", str(out_file)],
                         capsys)
    assert code == EXIT_OK
    payload = strict_loads(out)
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "pz"
    assert payload["checks"][0]["min_margin"] >= -1e-12
    assert out_file.read_text() == "check,passed\npz,true\n"
    assert "pz: pass" in err


def test_verify_rejects_unknown_check(capsys):
    code, _, err = run(["verify", "--only", "nonsense"], capsys)
    assert code == EXIT_CONFIG and "unknown check" in err


@pytest.mark.parametrize("replicas", ["0", "1", "-5"])
def test_verify_refuses_fewer_than_two_replicas(replicas, capsys):
    # one replica has no sample variance; none used to mean the default
    code, out, err = run(["verify", "--only", "moments", "--replicas",
                          replicas], capsys)
    assert code == EXIT_CONFIG
    assert out == "" and "replicas must be an integer >= 2" in err


def test_verify_reads_a_given_replica_count(capsys):
    code, out, _ = run(["verify", "--only", "moments", "--replicas", "2000"],
                       capsys)
    assert code == EXIT_OK
    results = strict_loads(out)["checks"][0]["results"]
    assert {r["replicas"] for r in results} == {2000}


def test_verify_detects_injected_defect(capsys):
    code, out, err = run(["verify", "--only", "oracle", "--inject-defect"],
                         capsys)
    assert code == EXIT_CHECK_FAILED
    payload = strict_loads(out)
    assert payload["passed"] is False
    assert payload["checks"][0]["failing_invariant"] == "w_cond_pair_recursion"
    assert "oracle: FAIL" in err


def test_verify_oracle_clean_run_passes(capsys):
    code, out, _ = run(["verify", "--only", "oracle"], capsys)
    assert code == EXIT_OK
    payload = strict_loads(out)
    assert payload["checks"][0]["worst_rel_err"] <= 1e-12


# ------------------------------------------------------------------ config


def test_config_file_fills_flags_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "gaussian", "beta": 0.3,
                               "gamma": 0.3, "b": 2}))
    code, out, _ = run(["phase-point", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert strict_loads(out)["generic"]["region"] == "R1"
    code, out, _ = run(["phase-point", "--config", str(cfg), "--beta", "1.5"],
                       capsys)
    assert code == EXIT_OK
    payload = strict_loads(out)
    assert payload["beta"] == 1.5
    assert payload["generic"]["region"] == "R2a"


def test_config_rejects_unknown_keys_and_bad_files(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(["phase-point", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG and "unknown config key: bogus" in err
    cfg.write_text("[1, 2]")
    code, _, err = run(["phase-point", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG and "JSON object" in err
    code, _, err = run(["phase-point", "--config", str(tmp_path / "missing.json")],
                       capsys)
    assert code == EXIT_CONFIG and "cannot read config" in err


def test_budget_environment_variable_sets_the_default(monkeypatch, capsys):
    monkeypatch.setenv("TREEPOLYMER_BUDGET_NODES", "64")
    code, _, err = run(["simulate", "--beta", "0.5", "--gamma", "0.5",
                        "--n", "8", "--replicas", "2"], capsys)
    assert code == EXIT_CONFIG and "exceeds per-tree budget 64" in err
    code, _, _ = run(["simulate", "--beta", "0.5", "--gamma", "0.5",
                      "--n", "8", "--replicas", "2",
                      "--budget-nodes", "16777216"], capsys)
    assert code == EXIT_OK  # explicit flag overrides the environment


def test_missing_law_parameters_exit_as_config_errors(capsys):
    code, _, err = run(["phase-point", "--model", "rademacher"], capsys)
    assert code == EXIT_CONFIG and "missing field" in err


@pytest.mark.parametrize("argv", [
    ["phase-point", "--model", "constant", "--c", "1", "0", "--beta", "0.5",
     "--gamma", "3"],
    ["simulate", "--model", "rademacher", "--t", "0.5", "--gamma", "0.5",
     "--n", "4", "--replicas", "2"],
])
def test_law_fields_the_model_does_not_take_exit_as_config_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_CONFIG and out == ""
    assert err.splitlines() == [
        f"error: model {argv[2]!r} does not take "
        + ("beta, gamma" if argv[2] == "constant" else "gamma")]


@pytest.mark.parametrize("argv", [
    ["phase-point", "--beta", "nan", "--gamma", "0.5"],
    ["phase-point", "--beta", "inf", "--gamma", "0.5"],
    ["simulate", "--beta", "nan", "--gamma", "0.5", "--n", "4",
     "--replicas", "2"],
])
def test_non_finite_law_parameters_exit_as_config_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_CONFIG and "beta must be finite" in err
    assert out == ""


@pytest.mark.parametrize("argv, name, value", [
    (["phase-point", "--beta", "1e200", "--gamma", "0.5"], "beta", "1e+200"),
    (["phase-point", "--model", "rademacher", "--t", "0.5", "--beta", "1e300"],
     "beta", "1e+300"),
    (["phase-point", "--beta", "0.5", "--gamma", "1e200"], "gamma", "1e+200"),
    (["simulate", "--n", "3", "--replicas", "2", "--beta", "1e300",
      "--gamma", "0"], "beta", "1e+300"),
])
def test_law_scales_whose_moments_overflow_exit_as_config_errors(
        argv, name, value, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_CONFIG and out == ""
    assert err.splitlines() == [
        f"error: {name} must be <= 1e+150 so that the moments stay finite, "
        f"got {value}"]


def test_non_numeric_config_parameter_exits_as_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": "abc", "gamma": 0.5}))
    code, _, err = run(["phase-point", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG and "beta must be a real number" in err


_SIM = ["--beta", "0.5", "--gamma", "0.5", "--n", "4", "--replicas", "2"]


@pytest.mark.parametrize("record, argv, message", [
    ({"budget_nodes": "abc"}, ["simulate", *_SIM],
     "budget_nodes must be an integer, got 'abc'"),
    ({"budget_nodes": "abc"}, ["simulate", "--only", "trace", *_SIM],
     "budget_nodes must be an integer, got 'abc'"),
    ({"budget_nodes": "abc"}, ["verify", "--only", "oracle"],
     "budget_nodes must be an integer, got 'abc'"),
    ({"budget_nodes": 1.5}, ["simulate", *_SIM],
     "budget_nodes must be an integer, got 1.5"),
    ({"grid": 5}, ["diagram", "--out", "d"], "grid must be a string, got 5"),
    ({"out": 5}, ["diagram"], "out must be a string, got 5"),
    ({"out": 5}, ["simulate", *_SIM], "out must be a string, got 5"),
    ({"out": 5}, ["phase-point", "--beta", "0.5", "--gamma", "0.5"],
     "out must be a string, got 5"),
    ({"only": ["oracle"]}, ["verify"],
     "only must be a string, got ['oracle']"),
    ({"c": 2.0}, ["phase-point", "--model", "constant"],
     "c must be [re, im], got 2.0"),
    ({"strict": 1}, ["phase-point", "--beta", "0.5", "--gamma", "0.5"],
     "strict must be true or false, got 1"),
])
def test_config_values_of_the_wrong_type_exit_as_config_errors(
        record, argv, message, tmp_path, monkeypatch, capsys):
    # each would otherwise reach a traceback, or open(5, "w") on a file
    # descriptor, or run with a fractional budget
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(record))
    monkeypatch.chdir(tmp_path)
    code, out, err = run([*argv, "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", str(2**64 + 1), f"seed must be below 2^64, got {2**64 + 1}"),
    ("--budget-nodes", "0", "budget_nodes must be an integer >= 1, got 0"),
])
def test_seeds_past_64_bits_and_empty_budgets_exit_as_config_errors(
        flag, value, message, capsys):
    # seed 2^64 + 1 would otherwise draw seed 1's trees
    code, out, err = run(["simulate", *_SIM, flag, value], capsys)
    assert code == EXIT_CONFIG and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_non_integer_budget_variable_exits_as_config_error(monkeypatch, capsys):
    monkeypatch.setenv("TREEPOLYMER_BUDGET_NODES", "abc")
    code, _, err = run(["simulate", "--beta", "0.5", "--gamma", "0.5",
                        "--n", "4", "--replicas", "2"], capsys)
    assert code == EXIT_CONFIG and "TREEPOLYMER_BUDGET_NODES" in err


# ------------------------------------------------------------- dependencies


@pytest.mark.parametrize("argv", [
    ["phase-point", "--beta", "0.5", "--gamma", "0.5"],
    ["simulate", "--beta", "0.5", "--gamma", "0.5", "--n", "4",
     "--replicas", "2", "--only", "both"],
    ["verify", "--only", "oracle"],
])
def test_commands_run_without_scipy(argv, tmp_path):
    # numpy is the only runtime dependency: with scipy's import blocked,
    # any use of scipy would fail the command
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys; sys.modules['scipy'] = None\n"
              "from treepolymer.cli import main\n"
              "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
