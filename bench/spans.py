"""Spans and counts recorded from outside the program.

``Tracer.install`` replaces the public functions and methods of the six
modules ``rng``, ``env``, ``sim``, ``mc``, ``phase`` and ``cli`` (wherever a
module or the package namespace holds them) with wrappers, and
``uninstall`` puts the originals back; nothing under ``src/`` changes.  A
wrapper opens a span only at a layer boundary, when the caller is in
another layer or is the benchmark itself; a call inside its own layer is
only counted, which keeps the cost of the ~57 ``g_of_alpha`` calls per
phase-diagram cell down to one counter bump each.  ``normal_pair`` and
``to_uniform`` are rng functions wherever they are looked up, so the
Box-Muller work that ``env`` does through them is rng time.  The name
``Philox`` that ``rng`` looks up is replaced by a counting factory.

Not wrapped: the moment-surface methods of the laws (``log_moment_abs``,
``lambda_r`` and the rest).  ``phase`` calls them tens of times per cell;
spans there would cost more than the work they time.  Their time counts
as the calling layer's self time, which is phase's in practice.

Spans live in flat arrays and are written out once, when the run ends.  A
layer's self time is the duration of its spans minus the part their child
spans cover; the benchmark's own op spans are the roots, so the layers'
self times plus ``bench`` self time add up to the traced run time.
Each span opened from another layer also bumps ``<layer>.entries``.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("bench", "rng", "env", "sim", "mc", "phase", "cli")
BENCH = 0
MODULES = ("rng", "env", "sim", "mc", "phase", "cli")

# The law methods that turn raw words into weights; the rest of a law's
# public surface is the moment surface, left unwrapped (see above).
ENV_TRANSFORMS = ("radius_from_raw", "phase_from_raw", "polar_from_raw",
                  "radius_weight_from_raw", "sample")


def _tree_nodes(b: int, n: int) -> int:
    return (b ** (n + 1) - 1) // (b - 1)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _hook_block(counts, args, kwargs, out, outer):
    counts["rng.calls"] += 1
    counts["rng.words"] += out.size


def _hook_transform(counts, args, kwargs, out, outer):
    if outer and len(args) > 1 and isinstance(args[1], np.ndarray):
        counts["env.draws"] += len(args[1])


def _hook_tree(counts, args, kwargs, out, outer):
    counts["sim.trees"] += 1
    counts["sim.nodes"] += _tree_nodes(_arg(args, kwargs, 1, "b"),
                                       _arg(args, kwargs, 2, "n"))


def _hook_estimator(counts, args, kwargs, out, outer):
    counts["mc.replica_trees"] += _arg(args, kwargs, 0, "plan").replicas
    counts["mc.excluded_replicas"] += out.excluded_count


def _hook_batch(counts, args, kwargs, out, outer):
    counts["mc.replica_trees"] += _arg(args, kwargs, 4, "replicas")


def _hook_ratio4(counts, args, kwargs, out, outer):
    counts["mc.replica_trees"] += (_arg(args, kwargs, 3, "omega_replicas")
                                   * _arg(args, kwargs, 4, "phase_resamples"))


# A hook is a function of (counts, args, kwargs, output, outer) or, for a
# plain call count, the name of the counter.
HOOKS = {
    ("rng", "TreeStream.node_block"): _hook_block,
    ("rng", "TreeStream.seq_block"): _hook_block,
    ("rng", "BatchStream.node_block"): _hook_block,
    ("sim", "dfs_evaluate"): _hook_tree,
    ("sim", "brute_force_evaluate"): _hook_tree,
    ("mc", "estimate_free_energy"): _hook_estimator,
    ("mc", "estimate_w_free_energy"): _hook_estimator,
    ("mc", "batch_z_values"): _hook_batch,
    ("mc", "ratio4"): _hook_ratio4,
    ("phase", "classify"): "phase.classify_calls",
    ("phase", "g_of_alpha"): "phase.g_evals",
}


UNCOVERED_MAX = 0.01    # share of a traced round's wall time outside op spans
BENCH_SELF_MAX = 0.01   # share of the op spans' time outside every layer


def accounting_errors(wall: float, spans_s: float, bench_self_s: float) -> list[str]:
    """The layers account for a traced round: its op spans cover the round's
    wall time (less the reference-kernel timings), and the benchmark's own
    time inside them is small.  `spans_s` is the sum of the op spans; the
    layers' self times plus `bench_self_s` add up to it by construction."""
    errs = []
    if not wall - spans_s <= UNCOVERED_MAX * wall:
        errs.append(f"op spans cover {spans_s:.4f} s of a {wall:.4f}-s traced round")
    if not bench_self_s <= BENCH_SELF_MAX * spans_s:
        errs.append(f"bench.self_s {bench_self_s:.4f} s is above "
                    f"{BENCH_SELF_MAX:.0%} of the traced {spans_s:.4f} s")
    return errs


class Tracer:
    """In-memory spans plus counters, installed around the program."""

    def __init__(self, package):
        self.package = package
        self.start = array("d")
        self.end = array("d")
        self.layer = array("b")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._layers = [-1]
        self._saved: list = []

    # -- spans ------------------------------------------------------------
    def open(self, layer: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.layer.append(layer)
        self.end.append(0.0)
        self._stack.append(idx)
        self._layers.append(layer)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._layers.pop()

    def self_times(self, first: int, last: int) -> np.ndarray:
        """Self time per layer over spans first..last-1 (whole trees)."""
        start = np.frombuffer(self.start, dtype=np.float64)[first:last]
        end = np.frombuffer(self.end, dtype=np.float64)[first:last]
        layer = np.frombuffer(self.layer, dtype=np.int8)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child] - first, dur[child])
        return np.bincount(layer, weights=dur - covered,
                           minlength=len(LAYERS))

    def save(self, path) -> None:
        np.savez_compressed(
            path, layers=np.array(LAYERS),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int32))

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, fn, layer: int, hook):
        tracer = self
        counts = self.counts
        layers = self._layers
        entries_key = LAYERS[layer] + ".entries"
        count_key = hook if isinstance(hook, str) else None
        if count_key is not None:
            hook = None
            counts[count_key] += 0

        def traced(*args, **kwargs):
            if layers[-1] == layer:
                out = fn(*args, **kwargs)
                if count_key is not None:
                    counts[count_key] += 1
                elif hook is not None:
                    hook(counts, args, kwargs, out, False)
                return out
            idx = tracer.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            counts[entries_key] += 1
            if count_key is not None:
                counts[count_key] += 1
            elif hook is not None:
                hook(counts, args, kwargs, out, True)
            return out

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(owner, attribute, function, layer, hook) for every public
        function and method of the six modules, wherever it is bound."""
        pkg = self.package
        mods = {name: getattr(pkg, name) for name in MODULES}
        home = {mod.__name__: name for name, mod in mods.items()}
        found = []
        for owner in [pkg, *mods.values()]:
            for attr, val in list(vars(owner).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ in home:
                    layer = home[val.__module__]
                    found.append((owner, attr, val, layer,
                                  HOOKS.get((layer, val.__qualname__))))
                elif (inspect.isclass(val) and val.__module__ in home
                      and owner is mods[home[val.__module__]]):
                    layer = home[val.__module__]
                    for name, meth in list(vars(val).items()):
                        if name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        if layer == "env" and name not in ENV_TRANSFORMS:
                            continue
                        hook = _hook_transform if layer == "env" \
                            else HOOKS.get((layer, meth.__qualname__))
                        found.append((val, name, meth, layer, hook))
        return found

    def install(self) -> None:
        for owner, attr, fn, layer, hook in self._targets():
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, LAYERS.index(layer), hook))
        rng = self.package.rng
        philox = rng.Philox
        counts = self.counts

        def counted_philox(*args, **kwargs):
            counts["rng.generators"] += 1
            return philox(*args, **kwargs)

        self._saved.append((rng, "Philox", philox))
        rng.Philox = counted_philox

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
