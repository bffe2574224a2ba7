"""Command-line driver: phase classification, diagram rendering, Monte Carlo
experiments, and the self-check suite.

Machine-readable JSON goes to stdout; human summaries go to stderr; CSV and
P6 pixmap files are written only under --out.  Output bytes are a pure
function of the merged config, so repeated runs diff clean.

Each run parameter is stated once, in ``_PARAMS``: its kind builds the
flag and checks a config-file value, and ``merge_config`` checks each
integer against its least value (``_LEAST``) for every command.  A law's
fields are its constructor's arguments, and ``env.spec_from_config`` finds
the law by its model name.  ``_sanitize`` is the one JSON encoder: a
report dataclass becomes its fields and a complex number [re, im].

Exit codes: 0 ok, 1 check failed, 2 config error (an unwritable --out
included), 3 undetermined region under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from . import mc, phase, sim
from .env import (_MODELS, EnvironmentSpec, GaussianIndep,
                  LogNormalUniformPhase, _fields, spec_from_config)
from .errors import BudgetExceeded, ConfigError, TreePolymerError
from .rng import TreeStream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_UNDETERMINED = 3

_BUDGET_ENV = "TREEPOLYMER_BUDGET_NODES"

_REGION_COLORS = {
    "R1": (64, 128, 240),
    "R2a": (220, 60, 48),
    "R2b": (244, 146, 42),
    "R3": (56, 160, 88),
    "Boundary": (24, 24, 24),
    "Undetermined": (190, 190, 190),
}


def _fmt(x) -> str:
    """Stable cell formatting: shortest round-trip repr for floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def rows_to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _sanitize(obj):
    """Strict-JSON values: a report dataclass becomes its fields, a complex
    number [re, im], NaN null and infinities strings."""
    if dataclasses.is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if math.isnan(val):
            return None
        if math.isinf(val):
            return "inf" if val > 0 else "-inf"
        return val
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _dumps(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2,
                      allow_nan=False)


def _emit_json(obj) -> None:
    sys.stdout.write(_dumps(obj) + "\n")


def _say(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _write(path: str, data) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    try:
        with open(path, mode) as fh:
            fh.write(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") \
            from None


# --- config plumbing -------------------------------------------------------

def _whole(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _real(val) -> bool:
    return _whole(val) or isinstance(val, float)


# Each kind of value: the test a config-file value must pass, and the
# argparse keywords of a flag that parses to it.
_KINDS = {
    "a string": (lambda val: isinstance(val, str), {}),
    "an integer": (_whole, {"type": int}),
    "a real number": (_real, {"type": float}),
    "true or false": (lambda val: isinstance(val, bool),
                      {"action": "store_const", "const": True}),
    "[re, im]": (lambda val: isinstance(val, list) and len(val) == 2
                 and all(map(_real, val)),
                 {"type": float, "nargs": 2, "metavar": ("RE", "IM")}),
}

# Each run parameter with its kind: the flag --name (underscores as
# dashes) and the config key name.  A law's fields are among them.
_PARAMS = {
    "model": "a string", "beta": "a real number", "gamma": "a real number",
    "t": "a real number", "c": "[re, im]", "b": "an integer",
    "n": "an integer", "replicas": "an integer", "seed": "an integer",
    "grid": "a string", "out": "a string", "budget_nodes": "an integer",
    "strict": "true or false", "only": "a string",
}

# The least value of each integer parameter, checked for every command.
_LEAST = {"b": 2, "n": 1, "replicas": 1, "seed": 0, "budget_nodes": 1}

# The parameters any registered law takes, in table order; `_law` hands
# each one that is set to the law, which refuses those it does not take.
_LAW_FIELDS = [key for key in _PARAMS
               if any(key in _fields(law) for law in _MODELS.values())]


def merge_config(args: argparse.Namespace) -> dict:
    """File values, each of its parameter's kind, fill flags left unset
    (null leaves a key unset); explicit flags win; the budget environment
    variable supplies only the default budget.  Each integer is then
    checked once against its least value, and the seed against 2^64: it
    fills a 64-bit Philox key word, and a larger one would alias a smaller
    one's streams."""
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key not in _PARAMS:
                raise ConfigError(f"unknown config key: {key}")
            kind = _PARAMS[key]
            if val is not None and not _KINDS[kind][0](val):
                raise ConfigError(f"{key} must be {kind}, got {val!r}")
            cfg[key] = val
    for key in _PARAMS:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if cfg.get("budget_nodes") is None:
        env_val = os.environ.get(_BUDGET_ENV)
        try:
            cfg["budget_nodes"] = int(env_val) if env_val \
                else sim.DEFAULT_NODE_BUDGET
        except ValueError:
            raise ConfigError(f"{_BUDGET_ENV} must be an integer, "
                              f"got {env_val!r}") from None
    for key, val in (("model", "gaussian"), ("b", 2), ("seed", 1),
                     ("strict", False)):
        if cfg.get(key) is None:
            cfg[key] = val
    # verify's moment check needs two replicas for a sample variance
    least = dict(_LEAST, replicas=2) if args.command == "verify" else _LEAST
    for key, lo in least.items():
        if cfg.get(key) is not None and cfg[key] < lo:
            raise ConfigError(f"{key} must be an integer >= {lo}, "
                              f"got {cfg[key]!r}")
    if cfg["seed"] >= 1 << 64:
        raise ConfigError(f"seed must be below 2^64, got {cfg['seed']}")
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg.get(key) is None:
            raise ConfigError(f"missing required parameter: --{key}")


def _law(cfg: dict) -> EnvironmentSpec:
    return spec_from_config({key: cfg[key] for key in ("model", *_LAW_FIELDS)
                             if cfg.get(key) is not None})


# --- phase-point -----------------------------------------------------------

def _closed_form_report(spec: EnvironmentSpec, b: int, eps: float):
    """Closed-form inequality classification for independent laws, with the
    critical set it derives from; None when phases are coupled."""
    if not spec.independent:
        return None, None
    crit = phase.critical_set(spec, b)
    return phase.classify_indep_closed_form(spec, b, crit, eps), crit


def cmd_phase_point(cfg: dict) -> int:
    b = cfg["b"]
    spec = _law(cfg)
    generic = phase.classify(spec, b)
    closed, crit = _closed_form_report(spec, b, eps=1e-9)
    agree = None if closed is None else closed.region == generic.region
    out = {
        "model": cfg["model"], "b": b,
        "beta": spec.beta_scale, "gamma": spec.gamma_scale,
        "generic": generic, "closed_form": closed, "critical": crit,
        "agree": agree,
    }
    if cfg.get("out"):
        _write(cfg["out"], _dumps(out) + "\n")
    _emit_json(out)
    family = generic.region.rstrip("ab")
    tag = "" if agree is None else \
        ("  [classifiers agree]" if agree else "  [CLASSIFIERS DISAGREE]")
    _say(f"region {family} ({generic.region})  f = {generic.predicted_f:.6f}"
         f"{tag}")
    if cfg["strict"] and generic.region == "Undetermined":
        return EXIT_UNDETERMINED
    return EXIT_OK


# --- diagram ---------------------------------------------------------------

def _parse_grid(text: str) -> tuple[tuple[float, float, int], ...]:
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2:
        raise ConfigError("grid must be 'lo:hi:steps[,lo:hi:steps]'")
    axes = []
    for part in parts:
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(f"bad grid axis: {part!r}")
        try:
            lo, hi, steps = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError:
            raise ConfigError(f"bad grid axis: {part!r}")
        if steps < 1 or hi < lo or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"bad grid axis: {part!r}")
        axes.append((lo, hi, steps))
    return tuple(axes)


def _axis(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced values from lo to exactly hi (the formula's last
    point can land one ulp above hi, outside a range hi was checked for)."""
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps - 1)] + [hi]


# The laws a diagram can map, by model name; each is built from (beta, gamma)
# and puts beta on the radius alone: ln E|xi|^a = (a beta)^2 / 2.  Each also
# splits ln|E xi| bit for bit: law(beta, gamma).log_mean_abs() equals
# law(beta, 0).log_mean_abs() + law(0, gamma).log_mean_abs(), one IEEE
# addition either way (-inf on both sides where E xi = 0), so a diagram
# builds one law per axis value, not one per cell.
_SCALE_FAMILIES = {"gaussian": GaussianIndep,
                   "uniform": LogNormalUniformPhase}


def cmd_diagram(cfg: dict) -> int:
    b = cfg["b"]
    _require(cfg, "out")
    law = _SCALE_FAMILIES.get(cfg["model"])
    if law is None:
        raise ConfigError("diagram supports scale families only "
                          "(gaussian, uniform)")
    (blo, bhi, bsteps), (glo, ghi, gsteps) = \
        _parse_grid(cfg.get("grid") or "0:2:200")
    budget = cfg["budget_nodes"]
    if bsteps * gsteps > budget:
        raise BudgetExceeded(f"grid of {bsteps}x{gsteps} = {bsteps * gsteps} "
                             f"cells exceeds budget {budget}")
    betas = _axis(blo, bhi, bsteps)
    gammas = _axis(glo, ghi, gsteps)
    if cfg["model"] == "uniform" and ghi > 1.0:
        raise ConfigError("uniform-phase scale is limited to gamma <= 1")

    unit = law(1.0, 1.0)
    crit = phase.critical_set(unit, b)
    eps = 1e-3
    replicas = cfg.get("replicas") or 0
    if replicas and cfg.get("n") is None:
        raise ConfigError("per-cell estimates need --n")

    # Per beta: its CSV text, ln|E xi| at gamma = 0, the radius part of
    # classify and the region,f text of the regions whose f is that part's
    # G(a_min) or G(2); per gamma: its CSV text and ln|E xi| at beta = 0.
    columns = []
    for beta in betas:
        spec = law(beta, 0.0)
        rad = phase._radius_part(spec, b)
        g_amin, g2 = repr(rad[1]), repr(rad[3])
        columns.append((beta, repr(beta) + ",", spec.log_mean_abs(), rad,
                        {"R2a": "R2a," + g_amin, "R2b": "R2b," + g_amin,
                         "R3": "R3," + g2}))
    rows = [(gamma, repr(gamma) + ",", law(0.0, gamma).log_mean_abs())
            for gamma in gammas]
    lnb = math.log(b)
    crit_comment = ("critical beta_0=%s beta_c=%s gamma_0=%s gamma_c=%s"
                    % (_fmt(crit.beta_0), _fmt(crit.beta_c),
                       _fmt(crit.gamma_0), _fmt(crit.gamma_c)))
    lines = ["# " + crit_comment, "beta,gamma,region,f"
             + (",mc_mean,mc_ci_lo,mc_ci_hi" if replicas else "")]
    labels = []
    for gamma, gamma_text, lg in rows:
        for beta, beta_text, lb, rad, texts in columns:
            region, f, _ = phase._decide(lnb + (lb + lg), unit.independent,
                                         eps, rad)
            labels.append(region)
            lines.append(beta_text + gamma_text
                         + (texts.get(region) or region + "," + repr(f)))
    if replicas:
        specs = [law(beta, gamma) for gamma in gammas for beta in betas]
        ests = mc.estimate_free_energy_cells(specs, b, cfg["n"], replicas,
                                             cfg["seed"], budget)
        for i, est in enumerate(ests, start=2):
            lines[i] += "," + ",".join(map(_fmt, (est.mean, *est.ci95)))
    out = cfg["out"]
    _write(out + ".csv", "\n".join(lines) + "\n")
    color = {k: bytes(v) for k, v in _REGION_COLORS.items()}
    pixels = b"".join(color[region]                 # top row = largest gamma
                      for gi in range(gsteps - 1, -1, -1)
                      for region in labels[gi * bsteps:(gi + 1) * bsteps])
    _write(out + ".ppm", f"P6\n# {crit_comment}\n{bsteps} {gsteps}\n255\n"
           .encode("ascii") + pixels)

    counts = dict(sorted(Counter(labels).items()))
    _emit_json({
        "b": b, "model": cfg["model"],
        "grid": {"beta": [blo, bhi, bsteps], "gamma": [glo, ghi, gsteps]},
        "critical": crit,
        "region_counts": counts,
        "csv": out + ".csv", "ppm": out + ".ppm",
    })
    _say(f"diagram {bsteps}x{gsteps}: " +
         ", ".join(f"{k}={v}" for k, v in counts.items()))
    _say(crit_comment)
    return EXIT_OK


# --- simulate --------------------------------------------------------------

def experiment_row(model: str, b: int, spec: EnvironmentSpec, n: int,
                   replicas: int, seed: int, functional: str,
                   est: mc.McEstimate, predicted: float,
                   region: str) -> list:
    return [model, b, spec.beta_scale, spec.gamma_scale, n, replicas, seed,
            functional, est.mean, est.std_error, est.ci95[0], est.ci95[1],
            predicted, region, est.excluded_count]


EXPERIMENT_HEADER = ["model", "b", "beta", "gamma", "n", "R", "seed",
                     "functional", "mean", "se", "ci_lo", "ci_hi",
                     "predicted", "region", "excluded_count"]

TRACE_HEADER = ["n", "ln_abs_z_over_n", "ln_z_abs_over_n",
                "ln_z_abs2_over_n", "ln_w_cond_over_2n"]


def cmd_simulate(cfg: dict) -> int:
    _require(cfg, "n")
    b, n, replicas, seed, budget = (cfg.get(key) for key in (
        "b", "n", "replicas", "seed", "budget_nodes"))
    spec = _law(cfg)
    what = cfg.get("only") or "free_energy"
    if what not in ("free_energy", "w_free_energy", "both", "trace"):
        raise ConfigError(f"unknown simulate selector: {what!r}")

    if what == "trace":
        trace = sim.trace_depths(spec, b, n, TreeStream(seed, 0),
                                 node_budget=budget,
                                 include_w=spec.independent)
        rows = [[row[c] for c in TRACE_HEADER] for row in trace]
        csv_text = rows_to_csv(TRACE_HEADER, rows)
        if cfg.get("out"):
            _write(cfg["out"], csv_text)
        _emit_json({"trace_rows": len(rows), "n": n, "b": b, "seed": seed,
                    "out": cfg.get("out")})
        _say(f"trace to depth {n}: {len(rows)} rows")
        return EXIT_OK

    _require(cfg, "replicas")
    rep = phase.classify(spec, b)
    rows = []
    results = {}
    wanted = ["free_energy", "w_free_energy"] if what == "both" else [what]
    # one walk of each replica's tree serves both rates
    trees = [fs for fs, in mc._replica_map(
        [spec], b, n, replicas, seed, budget, what != "free_energy")]
    for functional in wanted:
        est = mc._replica_estimate(trees, functional)
        predicted = rep.predicted_f if functional == "free_energy" \
            else phase.predicted_w_rate(spec, b)
        rows.append(experiment_row(cfg["model"], b, spec, n, replicas, seed,
                                   functional, est, predicted, rep.region))
        summary = {k: v for k, v in vars(est).items()
                   if k not in ("values", "value_ses")}
        results[functional] = {**summary, "predicted": predicted,
                               "region": rep.region}
        _say(f"{functional}: mean {est.mean:.6f} +- {est.std_error:.6f}  "
             f"predicted {predicted:.6f} [{rep.region}]  "
             f"excluded {est.excluded_count}")
    if cfg.get("out"):
        _write(cfg["out"], rows_to_csv(EXPERIMENT_HEADER, rows))
    _emit_json({"model": cfg["model"], "b": b, "beta": spec.beta_scale,
                "gamma": spec.gamma_scale, "n": n, "replicas": replicas,
                "seed": seed, "results": results, "out": cfg.get("out")})
    return EXIT_OK


# --- verify ----------------------------------------------------------------

def check_oracle(seed: int, budget: int, corrupt: bool) -> dict:
    worst = 0.0
    worst_at = ""
    laws = [GaussianIndep(0.8, 0.8), LogNormalUniformPhase(0.5, 0.5)]
    for b, n_max in ((2, 5), (3, 3)):
        for n in range(1, n_max + 1):
            for k in range(3):
                spec = laws[k % len(laws)]
                stream = TreeStream(seed, k)
                fast = sim.dfs_evaluate(spec, b, n, stream,
                                        node_budget=budget,
                                        _corrupt_w_pair=corrupt)
                slow = sim.brute_force_evaluate(spec, b, n, stream)
                for name in ("z", "z_abs", "z_abs2", "w_cond"):
                    err = abs(getattr(fast, name) - getattr(slow, name)) \
                        / max(abs(getattr(slow, name)), 1e-300)
                    if err > worst:
                        worst, worst_at = err, f"{name}@b{b}n{n}s{k}"
    passed = worst <= 1e-12
    detail = {"worst_rel_err": worst, "worst_at": worst_at}
    if not passed:
        detail["failing_invariant"] = \
            "w_cond_pair_recursion" if "w_cond" in worst_at \
            else "partition_recursion"
    return {"name": "oracle", "passed": passed, **detail}


def check_moments(seed: int, replicas: int) -> dict:
    cases = [("gaussian_0.5_0.5", GaussianIndep(0.5, 0.5)),
             ("uniform_unit_modulus", LogNormalUniformPhase(0.0, 1.0))]
    results = []
    ok = True
    for label, spec in cases:
        plan = mc.ExperimentPlan(spec=spec, b=2, n=6, replicas=replicas,
                                 seed=seed)
        for rep in mc.verify_moments(plan):
            results.append({"case": label, **vars(rep)})
            ok = ok and rep.passed
    return {"name": "moments", "passed": ok, "results": results}


def pz_property_trials(seed: int, trials: int) -> dict:
    """Randomized bounded empirical distributions: the bound from empirical
    moments never exceeds the exact empirical tail probability."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    min_margin = math.inf
    count = 0
    for _ in range(trials):
        k = int(rng.integers(2, 40))
        vals = rng.uniform(0.0, float(rng.uniform(0.5, 10.0)), size=k)
        probs = rng.uniform(0.1, 1.0, size=k)
        probs /= probs.sum()
        mean = float(probs @ vals)
        if mean <= 0.0:
            continue
        for theta in (0.1, 0.5, 0.9):
            for nu in (1.5, 2.0, 3.0):
                m_nu = float(probs @ vals**nu)
                bound = mc.paley_zygmund_bound(mean, m_nu, nu, theta)
                tail = float(probs[vals > theta * mean].sum())
                min_margin = min(min_margin, tail - bound)
                count += 1
    return {"name": "pz", "passed": min_margin >= -1e-12,
            "trials": count, "min_margin": min_margin}


def check_ratio4(seed: int, budget: int) -> dict:
    spec = GaussianIndep(0.8, 0.8)
    est = mc.ratio4(spec, b=2, n=6, omega_replicas=5, phase_resamples=1200,
                    seed=seed, node_budget=budget)
    margins = [3.0 + 3.0 * se - r
               for r, se in zip(est.values, est.value_ses)]
    return {"name": "ratio4", "passed": min(margins) >= 0.0,
            "max_ratio": max(est.values), "ratios": est.values,
            "ses": est.value_ses}


def check_onestep(seed: int, budget: int) -> dict:
    spec = GaussianIndep(0.5, 0.5)
    rep = sim.one_step_identity_check(spec, 2, 4, TreeStream(seed, 0),
                                      resamples=4000, node_budget=budget)
    worst = max(rep.mean_residual, rep.second_residual)
    return {"name": "onestep", "passed": worst <= 5.0,
            "mean_residual": rep.mean_residual,
            "second_residual": rep.second_residual}


def check_tau(seed: int) -> dict:
    spec = GaussianIndep(1.0, 0.5)
    rep = mc.tau_moment_check(spec, tau=1.0, samples=50000, seed=seed)
    exact = math.exp(0.5)
    z = sim._zscore(abs(rep.estimate.mean - exact), rep.estimate.std_error,
                    exact)
    return {"name": "tau", "passed": (not rep.diverging) and z <= 5.0,
            "mean": rep.estimate.mean, "exact": exact, "z_score": z,
            "tail_slope": rep.tail_slope}


def cmd_verify(cfg: dict) -> int:
    seed, budget, only = cfg["seed"], cfg["budget_nodes"], cfg.get("only")
    corrupt = bool(cfg.get("inject_defect"))
    replicas = cfg.get("replicas") or 20000
    all_checks = {
        "oracle": lambda: check_oracle(seed, budget, corrupt),
        "moments": lambda: check_moments(seed, replicas),
        "pz": lambda: pz_property_trials(seed, 1000),
        "ratio4": lambda: check_ratio4(seed, budget),
        "onestep": lambda: check_onestep(seed, budget),
        "tau": lambda: check_tau(seed),
    }
    if only is not None:
        if only not in all_checks:
            raise ConfigError(f"unknown check: {only!r} "
                              f"(have {', '.join(all_checks)})")
        selected = [only]
    else:
        selected = list(all_checks)
    reports = [all_checks[name]() for name in selected]
    ok = all(r["passed"] for r in reports)
    for rep in reports:
        _say(f"{rep['name']}: {'pass' if rep['passed'] else 'FAIL'}")
    if cfg.get("out"):
        rows = [[r["name"], r["passed"]] for r in reports]
        _write(cfg["out"], rows_to_csv(["check", "passed"], rows))
    _emit_json({"seed": seed, "passed": ok, "checks": reports})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --- entry point -----------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file mirroring the flags")
    for key, kind in _PARAMS.items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key,
                         **_KINDS[kind][1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepolymer",
        description="Complex directed polymers on trees: phase "
                    "classification and Monte Carlo verification.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("phase-point", cmd_phase_point),
                     ("diagram", cmd_diagram),
                     ("simulate", cmd_simulate),
                     ("verify", cmd_verify)):
        sub = subs.add_parser(name)
        _add_common(sub)
        sub.set_defaults(fn=fn)
        if name == "verify":
            sub.add_argument("--inject-defect", dest="inject_defect",
                             action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
        if getattr(args, "inject_defect", False):
            cfg["inject_defect"] = True
        return args.fn(cfg)
    except TreePolymerError as exc:
        _say(f"error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
