"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics derived from its spans.

``Tracer.install`` wraps every module-level function of the eight labelfuse
layers at each place the package binds it (``from .x import f`` copies
included).  A wrapper records one span: name, parent span, start and end
from ``time.perf_counter``, plus the few shapes or byte counts a metric
needs.  ``Rng.next_u64`` only gets a draw counter.  ``uninstall`` puts every
original back.  The tracer keeps one span stack, so it assumes one thread:
every workload runs with ``threads=1``.

A span's self time is its duration minus its children's durations; children
never overlap because they come from nested calls on that one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
from time import perf_counter

import numpy as np

LAYERS = ("tensor_core", "label_model", "tape", "nn_ops", "fusion", "train_harness", "metrics_viz", "cli")

# helpers called per array element, per backward node or as context managers:
# not worth a span each
SKIP = {
    "tape": {"grad_enabled", "no_grad", "as_var", "_unbroadcast"},
    "tensor_core": {"check_tensor", "_tag_for", "_read_exact"},
    "nn_ops": {"_has_vars"},
}

TAPE_OPS = (
    "add", "sub", "mul", "neg", "matmul", "transpose", "reshape", "stack", "concat",
    "take_index", "sum_all", "mean_all", "relu", "gelu", "softmax", "layer_norm",
)
STAGES = (
    "proj", "ln", "qkv", "scores_softmax", "av", "wo", "mlp_up", "gelu", "mlp_down", "token_avg",
)

# flops per output element of the elementwise ops (tanh and exp count as one;
# sum_all and mean_all count per input element)
FLOPS_PER_ELEMENT = {
    "add": 1, "sub": 1, "mul": 1, "neg": 1, "relu": 1, "sum_all": 1, "mean_all": 1,
    "gelu": 9, "softmax": 5, "layer_norm": 7,
}
VIEW_OPS = ("reshape", "transpose")
PROJ_PARENTS = ("fusion._projected_tokens", "fusion.clam_graph")

READS = ("tensor_core.load_tensor", "tensor_core.read_tensor")
WRITES = ("tensor_core.save_tensor", "tensor_core.write_tensor")
PPMS = ("metrics_viz.save_ppm", "metrics_viz.write_ppm")
CLI_COMMANDS = ("synth-scene", "sparsify", "merge", "visualize")
# calls outside fusion that a merge makes as part of its own glue
MERGE_GLUE = ("label_model.validate_label_set",)


def _var_shapes(args) -> tuple:
    shapes = []
    for a in args:
        if isinstance(a, (list, tuple)):
            shapes.extend(v.value.shape for v in a if hasattr(v, "value"))
        elif hasattr(a, "value"):
            shapes.append(a.value.shape)
    return tuple(shapes)


def _tape_info(args, kwargs, result):
    return _var_shapes(args), result.value.shape


def _read_bytes(args, kwargs, result):
    # TLT1 header: magic, rank byte, one u32 per dim, dtype tag
    return 6 + 4 * result.ndim + result.nbytes


def _returned(args, kwargs, result):
    return result


def _mask_info(args, kwargs, result):
    sparsity = args[2] if len(args) > 2 else kwargs["sparsity"]
    present = sum(int(m.sum()) for m in result.masks.values())
    total = sum(m.size for m in result.masks.values())
    return sparsity, present, total


def _merge_info(args, kwargs, result):
    s, p = args[0], args[1]
    return len(s), p.d, p.heads, len(p.blocks), s.height * s.width


# what a span keeps about its call, taken after the call returns
INFO = {
    "tape.backward": lambda args, kwargs, result: len(result.nodes),
    "tensor_core.load_tensor": _read_bytes,
    "tensor_core.read_tensor": _read_bytes,
    "tensor_core.save_tensor": _returned,
    "tensor_core.write_tensor": _returned,
    "metrics_viz.save_ppm": _returned,
    "metrics_viz.write_ppm": _returned,
    "label_model.generate_sparse_masks": _mask_info,
    "fusion.tlam_merge": _merge_info,
}
INFO.update({f"tape.{op}": _tape_info for op in TAPE_OPS})


class Tracer:
    """Spans are lists ``[name, parent, t0, t1, info]``, indexed by start order."""

    def __init__(self):
        self.spans: list = []
        self.draws = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def mark(self) -> tuple[int, int]:
        return len(self.spans), self.draws

    def _wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            result = None
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = perf_counter()
                stack.pop()
                if info is not None and result is not None:
                    span[4] = info(args, kwargs, result)

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("labelfuse")
        modules = [importlib.import_module(f"labelfuse.{layer}") for layer in LAYERS]
        targets = []
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and attr not in SKIP.get(layer, ())
                    and not inspect.isgeneratorfunction(fn)
                ):
                    targets.append((f"{layer}.{attr}", fn))
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets}
        for ns in [package, *modules]:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    self._patched.append((ns, attr, value))

        rng_cls = modules[0].Rng
        next_u64 = rng_cls.next_u64

        def counted(rng):
            self.draws += 1
            return next_u64(rng)

        rng_cls.next_u64 = counted
        self._patched.append((rng_cls, "next_u64", next_u64))

    def uninstall(self) -> list[str]:
        """Restore every original; return the names that did not come back."""
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        left = [f"{getattr(ns, '__name__', ns)}.{attr}" for ns, attr, original in self._patched if getattr(ns, attr) is not original]
        self._patched = []
        return left


def dgemm_peak_gflops(n: int = 512, repeats: int = 10) -> float:
    """Best-of-``repeats`` GFLOP/s of one n x n float64 matrix product."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        a @ b
        best = min(best, perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def _matmul_stage(a: tuple, b: tuple, parent: str, prev_op: str) -> str:
    if len(a) == 4 and len(b) == 3:
        return "qkv"
    if len(a) == 4 and len(b) == 4:
        # attn @ V always follows the softmax; scores = Q @ K^T never does
        return "av" if prev_op == "softmax" else "scores_softmax"
    if len(a) == 3 and len(b) == 2:
        rows, cols = b
        return "wo" if rows == cols else "mlp_up" if cols > rows else "mlp_down"
    return "proj" if parent in PROJ_PARENTS else "other"


def classify(spans) -> list:
    """Per tape-op span: (op, stage, flops, bytes, attention MACs); None otherwise.

    Matmuls are named from their operand ranks and shapes; a bias add or
    score scaling right after a matmul joins that matmul's stage; every op
    under ``fusion._token_average`` is ``token_avg``.
    """
    out = [None] * len(spans)
    prev_op, prev_stage = "", "other"
    for sid, (name, parent, _, _, info) in enumerate(spans):
        if not name.startswith("tape.") or info is None or name == "tape.backward":
            continue
        op = name[5:]
        in_shapes, out_shape = info
        parent_name = spans[parent][0] if parent >= 0 else ""
        out_size = math.prod(out_shape)
        in_size = sum(math.prod(s) for s in in_shapes)
        macs = 0
        if op == "matmul":
            stage = _matmul_stage(in_shapes[0], in_shapes[1], parent_name, prev_op)
            flops = 2 * out_size * in_shapes[0][-1]
            if stage in ("scores_softmax", "av"):
                macs = out_size * in_shapes[0][-1]
        else:
            if op in ("gelu", "layer_norm", "softmax"):
                stage = {"gelu": "gelu", "layer_norm": "ln", "softmax": "scores_softmax"}[op]
            elif op in ("add", "mul") and prev_op == "matmul":
                stage = prev_stage
            elif op == "transpose" and parent_name in PROJ_PARENTS:
                stage = "proj"
            else:
                stage = "other"
            per = FLOPS_PER_ELEMENT.get(op, 0)
            flops = per * (in_size if op in ("sum_all", "mean_all") else out_size)
        if parent_name == "fusion._token_average":
            stage = "token_avg"
        nbytes = 0 if op in VIEW_OPS else 8 * (in_size + out_size)
        out[sid] = (op, stage, flops, nbytes, macs)
        prev_op, prev_stage = op, stage
    return out


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def _roots(spans, wanted: str) -> list[int]:
    """For each span, the index of its nearest ancestor-or-self named ``wanted``."""
    root = [-1] * len(spans)
    for sid, (name, parent, *_rest) in enumerate(spans):
        root[sid] = sid if name == wanted else (root[parent] if parent >= 0 else -1)
    return root


def figure_of(spans, ops, sid: int) -> str | None:
    """The figure a span's self time is reported in: its stage for a tape op,
    ``"other"`` for the rest of nn_ops, ``"fusion"`` for fusion code and the
    glue it calls; None for a span that is in none of them."""
    if ops[sid]:
        return ops[sid][1]
    name = spans[sid][0]
    if name.startswith("nn_ops."):
        return "other"
    if name.startswith("fusion.") or name in MERGE_GLUE:
        return "fusion"
    return None


def check_spans(spans, ops) -> tuple[int, list[str]]:
    """Tracer self-checks; returns (checks made, failures).

    * every span lies inside its parent and after its previous sibling;
    * per ``tlam_merge`` span, the traced scores + A.V MACs equal the closed
      form HW*l*h*2*N^2*(d/h) exactly;
    * per ``tlam_merge`` span, the figures reported for it (the ten nn_ops
      stage times, ``nn_ops.other.s`` and its fusion self time) add up to
      its duration: no span under it is left out of them.
    """
    errors = []
    last_end: dict[int, float] = {}
    for sid, (name, parent, t0, t1, _) in enumerate(spans):
        if parent < 0:
            continue
        p = spans[parent]
        if t0 < p[2] or t1 > p[3] or t0 < last_end.get(parent, p[2]):
            errors.append(f"span {sid} ({name}) is not nested inside span {parent} ({p[0]})")
            break
        last_end[parent] = t1
    checks = 1

    selfs = self_times(spans)
    root = _roots(spans, "fusion.tlam_merge")
    macs: dict[int, int] = {}
    figures: dict[int, dict[str, float]] = {}
    unreported: dict[int, set[str]] = {}
    for sid, r in enumerate(root):
        if r < 0:
            continue
        macs[r] = macs.get(r, 0) + (ops[sid][4] if ops[sid] else 0)
        figure = figure_of(spans, ops, sid)
        if figure is None:
            unreported.setdefault(r, set()).add(spans[sid][0])
        else:
            totals = figures.setdefault(r, {})
            totals[figure] = totals.get(figure, 0.0) + selfs[sid]
    for r in macs:
        if spans[r][4] is None:
            continue
        n, d, h, l, hw = spans[r][4]
        closed_form = hw * l * h * 2 * n * n * (d // h)
        if macs[r] != closed_form:
            errors.append(f"tlam_merge span {r}: traced {macs[r]} attention MACs, closed form {closed_form}")
        if r in unreported:
            errors.append(f"tlam_merge span {r}: {', '.join(sorted(unreported[r]))} in no reported figure")
        reported = math.fsum(figures.get(r, {}).values())
        duration = spans[r][3] - spans[r][2]
        if abs(reported - duration) > 1e-9 * duration + 1e-12:
            errors.append(f"tlam_merge span {r}: reported figures sum to {reported:.9f} s of {duration:.9f} s")
        checks += 2
    return checks, errors


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans, ops, setup: tuple, ops_phase: tuple, n_ops: int, sparsity: float, peak_gflops: float) -> dict:
    """Per-layer metrics from one traced run.

    ``ops`` is ``classify(spans)``.  ``setup`` and ``ops_phase`` are (first
    span, draws at start, end span, draws at end) of the traced set-up and of
    the traced operations.
    Set-up scoped: ``fusion.init_params.s`` and ``tensor_core.rng.draws``.
    ``label_model.present_frac`` covers every mask set drawn at the
    workload's sparsity in both phases.  Everything else is per operation.
    """
    s0, d0, s1, d1 = setup
    o0, _, o1, _ = ops_phase
    selfs = self_times(spans)
    per = 1.0 / n_ops
    dur = [s[3] - s[2] for s in spans]
    phase = range(o0, o1)
    m: dict[str, float] = {}

    def total(names, where=phase) -> float:
        return math.fsum(dur[i] for i in where if spans[i][0] in names)

    def outermost(family) -> list[int]:
        return [i for i in phase if spans[i][0] in family and (spans[i][1] < 0 or spans[spans[i][1]][0] not in family)]

    # nn_ops: tape ops by stage, plus nn_ops glue as "other"
    stage_s = {st: 0.0 for st in (*STAGES, "other")}
    stage_flops = {st: 0 for st in STAGES}
    gbytes = attention = mm_flops = 0
    mm_s = 0.0
    for i in phase:
        figure = figure_of(spans, ops, i)
        if figure in stage_s:
            stage_s[figure] += selfs[i]
        if ops[i]:
            op, stage, flops, nbytes, macs = ops[i]
            if stage in stage_flops:
                stage_flops[stage] += flops
            gbytes += nbytes
            attention += macs
            if op == "matmul":
                mm_flops += flops
                mm_s += selfs[i]
    for st in STAGES:
        m[f"nn_ops.{st}.s"] = stage_s[st] * per
        m[f"nn_ops.{st}.gflop"] = stage_flops[st] * per / 1e9
        m[f"nn_ops.{st}.gflops"] = stage_flops[st] / 1e9 / stage_s[st] if stage_s[st] > 0 else 0.0
    m["nn_ops.other.s"] = stage_s["other"] * per
    m["nn_ops.gbytes_computed"] = gbytes * per / 1e9
    m["nn_ops.attention_macs"] = attention * per
    m["nn_ops.matmul_peak_frac"] = (mm_flops / 1e9 / mm_s) / peak_gflops if mm_s > 0 else 0.0

    # tape
    tape_ops = [i for i in phase if ops[i]]
    backward = [i for i in phase if spans[i][0] == "tape.backward"]
    nodes = sum(spans[i][4] or 0 for i in backward)
    backward_s = math.fsum(dur[i] for i in backward)
    m["tape.ops"] = len(tape_ops) * per
    m["tape.forward.s"] = math.fsum(dur[i] for i in tape_ops) * per
    m["tape.backward.s"] = backward_s * per
    m["tape.backward.nodes"] = nodes * per
    m["tape.backward.s_per_node"] = backward_s / nodes if nodes else 0.0

    # train_harness: an iteration runs from its mask draw to the end of its Adam step
    iters, tail = [], 0.0
    for r in phase:
        if spans[r][0] != "train_harness.train_toy_with_params":
            continue
        starts = [i for i in range(r + 1, o1) if spans[i][1] == r and spans[i][0] == "label_model.generate_sparse_masks"]
        ends = [i for i in range(r + 1, o1) if spans[i][1] == r and spans[i][0] == "train_harness.adam_step"]
        iters += [spans[e][3] - spans[b][2] for b, e in zip(starts, ends)]
        if ends:
            tail += spans[r][3] - spans[ends[-1]][3]
    m["train_harness.iter_s.p50"] = statistics.median(iters) if iters else 0.0
    m["train_harness.iter_s.p95"] = _percentile(iters, 95) if iters else 0.0
    m["train_harness.adam.s"] = total({"train_harness.adam_step"}) * per
    m["train_harness.eval.s"] = tail * per

    # fusion: a merge's self_s is the self time of fusion code and its glue inside it
    for variant in ("tlam", "clam"):
        root = _roots(spans, f"fusion.{variant}_merge")
        m[f"fusion.{variant}_merge.s"] = total({f"fusion.{variant}_merge"}) * per
        m[f"fusion.{variant}_merge.self_s"] = math.fsum(
            selfs[i] for i in phase if root[i] >= 0 and figure_of(spans, ops, i) == "fusion"
        ) * per
    m["fusion.init_params.s"] = total({"fusion.init_merger_params"}, where=range(s0, s1))

    # tensor_core
    reads, writes = outermost(READS), outermost(WRITES)
    m["tensor_core.read.bytes"] = sum(spans[i][4] or 0 for i in reads) * per
    m["tensor_core.read.s"] = math.fsum(dur[i] for i in reads) * per
    m["tensor_core.write.bytes"] = sum(spans[i][4] or 0 for i in writes) * per
    m["tensor_core.write.s"] = math.fsum(dur[i] for i in writes) * per
    m["tensor_core.rng.draws"] = d1 - d0

    # label_model
    m["label_model.sparse_masks.s"] = total({"label_model.generate_sparse_masks"}) * per
    m["label_model.apply_masks.s"] = total({"label_model.apply_masks"}) * per
    m["label_model.synth_scene.s"] = total({"label_model.synth_scene"}) * per
    m["label_model.save.s"] = total({"label_model.save_label_set"}) * per
    m["label_model.load.s"] = total({"label_model.load_label_set"}) * per
    drawn = [
        spans[i][4] for i in (*range(s0, s1), *phase)
        if spans[i][0] == "label_model.generate_sparse_masks" and spans[i][4] and spans[i][4][0] == sparsity
    ]
    m["label_model.present_frac"] = sum(x[1] for x in drawn) / sum(x[2] for x in drawn) if drawn else 0.0

    # metrics_viz
    ppms = outermost(PPMS)
    m["metrics_viz.pca.s"] = total({"metrics_viz.pca_project_3"}) * per
    m["metrics_viz.jacobi.s"] = total({"metrics_viz.jacobi_eigh"}) * per
    m["metrics_viz.ppm.s"] = math.fsum(dur[i] for i in ppms) * per
    m["metrics_viz.ppm.bytes"] = sum(spans[i][4] or 0 for i in ppms) * per

    # cli
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = total({f"cli.cmd_{command.replace('-', '_')}"}) * per
    m["cli.self_s"] = math.fsum(selfs[i] for i in phase if spans[i][0].startswith("cli.")) * per

    m["machine.dgemm_peak_gflops"] = peak_gflops
    return m
