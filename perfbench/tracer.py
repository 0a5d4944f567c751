"""Span tracer that wraps peftlab's public entry points from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
each traced function or method with a thin wrapper for the duration of a
traced run and puts every original back on :meth:`Tracer.uninstall`.

A function that other peftlab modules imported by value (``registry``
imports ``validate_composition``; ``methods._NONLIN`` holds ``T.relu``)
is replaced wherever it is bound, so the wrapper sees every call, not only
calls made through its home module.

Spans live in flat typed arrays (about 30 bytes each): name id, parent
span id, unit id (one per grid cell, request or op), phase, start, end.
Parent ids come from a stack of open spans, so nested calls such as
``registry.encode`` -> ``model.encode`` -> ``tensor.matmul`` form a tree
and self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

SETUP, MEASURE, CHECK = 0, 1, 2     # CHECK: the benchmark's own checks, not reported

TENSOR_OPS = ("matmul", "add", "mul", "scale", "gelu", "layer_norm", "softmax",
              "log_softmax", "swapaxes", "reshape", "narrow", "concat",
              "gather_rows", "kron", "expand_dim0", "tsum", "relu", "tanh", "sigmoid")

ROUTING_HOOKS = ("embedding_stage", "attention", "post_attention",
                 "ffn_intermediate", "ffn_block", "exit_stage")

# (module, class, method, span name)
_METHOD_TARGETS = [
    ("tensor", "Tape", "backward", "tensor.backward"),
    ("model", "TransformerEncoder", "encode", "model.encode"),
    ("model", "PredictionHead", "logits", "model.logits"),
    *[("routing", "RoutingContext", h, f"routing.{h}") for h in ROUTING_HOOKS],
    ("methods", "BottleneckModule", "delta", "methods.bottleneck.delta"),
    ("methods", "CompacterModule", "delta", "methods.compacter.delta"),
    ("methods", "PhmLinear", "weight", "methods.phm.weight"),
    ("methods", "LoraModule", "delta", "methods.lora.delta"),
    ("methods", "IA3Module", "apply", "methods.ia3.apply"),
    ("methods", "GateModule", "value", "methods.gate.value"),
    ("methods", "PrefixModule", "materialize", "methods.prefix.materialize"),
    ("methods", "InvertibleModule", "forward", "methods.invertible.forward"),
    ("methods", "InvertibleModule", "inverse", "methods.invertible.inverse"),
    ("registry", "AdapterModel", "encode", "registry.encode"),
    ("registry", "AdapterModel", "set_active", "registry.set_active"),
    ("registry", "AdapterModel", "train_adapter", "registry.train_adapter"),
    ("registry", "AdapterModel", "add_adapter", "registry.add_adapter"),
    ("registry", "AdapterModel", "save_adapter", "registry.save_adapter"),
    ("registry", "AdapterModel", "load_adapter", "registry.load_adapter"),
    ("registry", "AdapterModel", "average_adapters", "registry.average"),
    ("registry", "AdapterModel", "merge_adapter", "registry.merge"),
    ("registry", "AdapterModel", "unmerge_adapter", "registry.unmerge"),
    ("training", "Adam", "step", "training.adam"),
]

# (module, function, span name, side counter); the benchmark calls cli.main
# only for check-paper
_FUNCTION_TARGETS = [
    *[("tensor", op, f"tensor.{op}", None) for op in TENSOR_OPS],
    ("composition", "validate_composition", "composition.validate", None),
    ("composition", "parse_setup", "composition.parse", None),
    ("configs", "parse_config", "configs.parse", None),
    ("configs", "validate_config", "configs.validate", None),
    ("configs", "run_count_audit", "configs.audit", None),
    ("training", "task_loss", "training.loss", None),
    ("training", "evaluate", "training.evaluate", None),
    ("training", "prepare_base", "training.prepare_base", None),
    ("training", "train_model", "training.train_model", "steps"),
    ("checkpoint", "write_weights", "checkpoint.write_weights", "written"),
    ("checkpoint", "read_weights", "checkpoint.read_weights", "read"),
    ("checkpoint", "write_manifest", "checkpoint.manifest", "written"),
    ("checkpoint", "read_manifest", "checkpoint.manifest", "read"),
    ("tasks", "make_task", "tasks.make_task", None),
    ("cli", "main", "cli.check_paper", None),
]

# The twelve cells of a full sweep, by the label train_model's head maps to.
STEP_METHODS = ("full-ft", "compacter", "double_seq_bn", "ia3", "lora", "mam",
                "par_bn", "prefix_tuning", "prompt_tuning", "seq_bn",
                "seq_bn_inv", "unipelt")

_WRAPPED = "__perfbench_wrapped__"


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for op in TENSOR_OPS:
        out += [(f"tensor.{op}.fwd_ms", "ms"), (f"tensor.{op}.calls", "count")]
    out += [("tensor.backward_ms", "ms"), ("tensor.records", "count"),
            ("model.encode_ms", "ms"), ("model.logits_ms", "ms"),
            ("model.encode.self_ms", "ms")]
    out += [(f"routing.{h}.ms", "ms") for h in ROUTING_HOOKS]
    out += [("routing.self_ms", "ms"), ("routing.contexts", "count"),
            ("composition.validate_ms", "ms"), ("composition.validate_calls", "count"),
            ("composition.parse_ms", "ms")]
    out += [(f"methods.{m}_ms", "ms") for m in (
        "bottleneck.delta", "compacter.delta", "phm.weight", "lora.delta", "ia3.apply",
        "gate.value", "prefix.materialize", "invertible.forward", "invertible.inverse")]
    out += [(f"registry.{r}_ms", "ms") for r in (
        "encode", "set_active", "train_adapter", "add_adapter", "save_adapter",
        "load_adapter", "average", "merge", "unmerge")]
    out += [("registry.encode.self_ms", "ms")]
    out += [(f"training.step_ms.{m}", "ms") for m in STEP_METHODS]
    out += [("training.adam_ms", "ms"), ("training.loss_ms", "ms"),
            ("training.evaluate_ms", "ms"), ("training.train_steps", "count"),
            ("training.prepare_base_ms", "ms")]
    out += [("checkpoint.write_weights_ms", "ms"), ("checkpoint.read_weights_ms", "ms"),
            ("checkpoint.manifest_ms", "ms"), ("checkpoint.bytes_written", "B"),
            ("checkpoint.bytes_read", "B")]
    out += [("configs.parse_ms", "ms"), ("configs.validate_ms", "ms"),
            ("configs.audit_ms", "ms"), ("tasks.make_task_ms", "ms"),
            ("cli.check_paper_ms", "ms"),
            ("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%")]
    return out


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self, pkg):
        self.pkg = pkg                    # the imported ``peftlab`` package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.phase = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        self.cur_unit = -1
        self.cur_phase = SETUP
        self.counters = defaultdict(float)     # (phase, key) -> value
        self.steps = defaultdict(lambda: [0, 0.0])   # method -> [steps, seconds]
        # train_model's head argument -> the method it trains
        self.head_labels = {"baseline": "full-ft", "_pretrain": "pretrain"}
        self._patches: list = []            # (owner, attr, original, is_dict)

    # -- span recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.cur_unit)
        self.phase.append(self.cur_phase)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> float:
        end = time.perf_counter()
        self.t1[sid] = end
        self._stack.pop()
        return end - self.t0[sid]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[(self.cur_phase, key)] += amount

    def _wrap(self, fn, span: str, after=None):
        nid = self._name_id(span)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._close(sid)
            if after is not None:
                after(args, kwargs, out, dur)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        setattr(wrapper, _WRAPPED, span)
        return wrapper

    # -- per-target side counters ----------------------------------------------

    def _after_backward(self, args, kwargs, out, dur):
        self.count("tensor.records", len(args[0]))

    def _after_write(self, args, kwargs, out, dur):
        self.count("checkpoint.bytes_written", _path_size(args[0]))

    def _after_read(self, args, kwargs, out, dur):
        self.count("checkpoint.bytes_read", _path_size(args[0]))

    def _after_train(self, args, kwargs, out, dur):
        head = args[1] if len(args) > 1 else kwargs["head"]
        acc = self.steps[self.head_labels.get(head, head)]
        acc[0] += out.steps
        acc[1] += dur
        self.count("training.train_steps", out.steps)

    def _context_init(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count("routing.contexts")
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        setattr(wrapper, _WRAPPED, "routing.contexts")
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.pkg
        mods = peftlab_modules()
        afters = {"steps": self._after_train, "written": self._after_write,
                  "read": self._after_read, None: None}
        for mod_name, fn_name, span, counter in _FUNCTION_TARGETS:
            orig = getattr(getattr(pkg, mod_name), fn_name)
            wrapped = self._wrap(orig, span, afters[counter])
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig, False))
                        setattr(mod, attr, wrapped)
                    elif isinstance(val, dict) and not attr.startswith("__"):
                        for key, item in list(val.items()):
                            if item is orig:
                                self._patches.append((val, key, orig, True))
                                val[key] = wrapped
        for mod_name, cls_name, attr, span in _METHOD_TARGETS:
            cls = getattr(getattr(pkg, mod_name), cls_name)
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig, False))
            after = self._after_backward if span == "tensor.backward" else None
            setattr(cls, attr, self._wrap(orig, span, after))
        ctx = pkg.routing.RoutingContext
        self._patches.append((ctx, "__init__", ctx.__dict__["__init__"], False))
        ctx.__init__ = self._context_init(ctx.__dict__["__init__"])

    def uninstall(self) -> None:
        for owner, attr, orig, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()


    # -- reporting -------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name and phase: calls, inclusive and self seconds."""
        n = len(self.t0)
        names = np.frombuffer(self.name, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        phase = np.frombuffer(self.phase, dtype=np.int8)[:n]
        dur = np.frombuffer(self.t1, dtype=np.float64)[:n] - np.frombuffer(self.t0, dtype=np.float64)[:n]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        out = {}
        for ph in (SETUP, MEASURE):
            sel = phase == ph
            calls = np.bincount(names[sel], minlength=k)
            incl = np.bincount(names[sel], weights=dur[sel], minlength=k)
            excl = np.bincount(names[sel], weights=self_time[sel], minlength=k)
            out[ph] = {self.names[i]: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                                       "self_s": float(excl[i])}
                       for i in range(k) if calls[i]}
        return out

    def per_layer(self, units: int, setups: int) -> dict:
        """Per-layer metrics: a value is per measured unit when the layer ran
        in the measured phase, else per traced set-up (layers such as
        ``training.prepare_base`` run only while setting up)."""
        summ = self.summary()

        def pick(measured: float, setup: float) -> float:
            if measured:
                return measured / units
            return setup / setups if setups else 0.0

        def span(name: str, field: str = "incl_s", scale: float = 1e3) -> float:
            m = summ[MEASURE].get(name, {}).get(field, 0.0)
            s = summ[SETUP].get(name, {}).get(field, 0.0)
            return pick(m, s) * scale

        def counter(key: str) -> float:
            return pick(self.counters.get((MEASURE, key), 0.0),
                        self.counters.get((SETUP, key), 0.0))

        def routing_self() -> float:
            m = sum(v["self_s"] for k, v in summ[MEASURE].items() if k.startswith("routing."))
            s = sum(v["self_s"] for k, v in summ[SETUP].items() if k.startswith("routing."))
            return pick(m, s) * 1e3

        vals = {}
        for metric, _unit in per_layer_names():
            if metric.startswith("tensor.") and metric.endswith(".fwd_ms"):
                vals[metric] = span(metric[:-len(".fwd_ms")])
            elif metric.startswith("tensor.") and metric.endswith(".calls"):
                vals[metric] = span(metric[:-len(".calls")], "calls", 1.0)
            elif metric in ("tensor.records", "routing.contexts", "training.train_steps",
                            "checkpoint.bytes_written", "checkpoint.bytes_read"):
                vals[metric] = counter(metric)
            elif metric == "composition.validate_calls":
                vals[metric] = span("composition.validate", "calls", 1.0)
            elif metric == "routing.self_ms":
                vals[metric] = routing_self()
            elif metric.endswith(".self_ms"):
                vals[metric] = span(metric[:-len(".self_ms")], "self_s")
            elif metric.startswith("training.step_ms."):
                steps, secs = self.steps.get(metric[len("training.step_ms."):], (0, 0.0))
                vals[metric] = secs * 1e3 / steps if steps else 0.0
            elif metric.startswith("routing.") and metric.endswith(".ms"):
                vals[metric] = span(metric[:-len(".ms")])
            elif metric.endswith("_ms") and not metric.startswith("trace."):
                vals[metric] = span(metric[:-len("_ms")])
        return vals

    def dump(self, path: Path, extra: dict) -> None:
        """Write the raw spans (``.npz``) and the per-name summary (``.json``)."""
        n = len(self.t0)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            name=np.frombuffer(self.name, dtype=np.int32)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            unit=np.frombuffer(self.unit, dtype=np.int32)[:n],
            phase=np.frombuffer(self.phase, dtype=np.int8)[:n],
            t0=np.frombuffer(self.t0, dtype=np.float64)[:n],
            t1=np.frombuffer(self.t1, dtype=np.float64)[:n],
            names=np.array(self.names),
        )
        summ = self.summary()
        doc = dict(extra)
        doc["spans"] = n
        doc["setup"] = summ[SETUP]
        doc["measure"] = summ[MEASURE]
        doc["counters"] = {f"{'setup' if ph == SETUP else 'measure'}.{k}": v
                           for (ph, k), v in sorted(self.counters.items())}
        doc["train_steps_by_method"] = {k: {"steps": v[0], "seconds": v[1]}
                                        for k, v in sorted(self.steps.items())}
        path.with_suffix(".json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def peftlab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "peftlab" or n.startswith("peftlab."))]


def find_wrappers() -> list:
    """Every ``module.attr``, ``Class.attr`` or dict entry of peftlab still
    bound to a tracer wrapper."""
    found = []
    for mod in peftlab_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, _WRAPPED):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, dict) and not attr.startswith("__"):
                found += [f"{mod.__name__}.{attr}[{k!r}]" for k, v in val.items()
                          if hasattr(v, _WRAPPED)]
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{val.__name__}.{a}"
                          for a, v in vars(val).items() if hasattr(v, _WRAPPED)]
    return found
