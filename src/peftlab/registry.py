"""Adapter lifecycle: a frozen encoder plus a registry of named adapters,
prediction heads, and fusion layers.

:class:`AdapterModel` is the façade tying everything together: it owns the
base weights, tracks which composition tree is active, splits parameters
into frozen/trainable partitions for training, merges low-rank adapters
into the base weights and back out, averages compatible adapters, and
saves and loads adapters, base weights and prediction heads (the file
formats and their checks live in :mod:`peftlab.checkpoint`).
"""

from __future__ import annotations

import re
import zlib
from hashlib import sha256
from pathlib import Path
from typing import Optional

import numpy as np

from .checkpoint import (BASE_CONFIG_FILE, BASE_KEYS, BASE_WEIGHTS_FILE, CONFIG_FILE,
                         WEIGHTS_FILE, CheckpointError, check_tensors, manifest_dims,
                         read_head, read_manifest, read_weights, storable,
                         write_base_manifest, write_head, write_manifest, write_weights)
from .composition import Leaf, Plan, leaves, parse_setup, validate_composition
from .configs import (LoraConfig, config_from_dict, config_to_dict, parse_config,
                      tensor_shapes)
from .methods import AdapterInstance, FusionLayer, StateError, instantiate_adapter
from .model import (CLASSIFICATION, DESK_DIMS, Activations, EncoderState, HookPoint,
                    ModelDims, PredictionHead, Stage, TransformerEncoder, encoder_shapes)
from .routing import RoutingContext
from .tensor import Tensor

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


class RegistryError(RuntimeError):
    """Registry misuse: duplicate names, deleting referenced adapters, ..."""


def _as_setup(setup):
    """Accept a node, an adapter name, or the textual composition form."""
    if isinstance(setup, str):
        if any(ch in setup for ch in "(),"):
            return parse_setup(setup)
        return Leaf(setup)
    return setup


class AdapterModel:
    """Frozen-backbone encoder with a full adapter registry."""

    def __init__(self, dims: ModelDims = DESK_DIMS, seed: int = 0,
                 base_state: Optional[dict] = None):
        """A seeded encoder, or with ``base_state`` one over those arrays,
        kept as :class:`TransformerEncoder` keeps them; ``seed`` still
        seeds every adapter, head and fusion layer added later."""
        self.dims = dims
        self.seed = seed
        self.encoder = TransformerEncoder(dims, seed, base_state)
        self._adapters: dict[str, AdapterInstance] = {}
        self._fusions: dict[tuple, FusionLayer] = {}
        self._heads: dict[str, PredictionHead] = {}
        self._active = None

    # -- deterministic per-object rngs --------------------------------------

    def _rng_for(self, label: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(label.encode("utf-8"))])

    # -- adapters ------------------------------------------------------------

    def add_adapter(self, name: str, config) -> AdapterInstance:
        """Register a new adapter under ``name``; its tensors start frozen
        and it is NOT activated."""
        if isinstance(config, str):
            config = parse_config(config)
        return self._register_adapter(name, config, None)

    def _register_adapter(self, name: str, config, arrays: Optional[dict]) -> AdapterInstance:
        """Register an adapter whose tensors are ``arrays`` (see
        :func:`instantiate_adapter`), or drawn from its own rng when that
        is ``None``."""
        if not _NAME_RE.match(name or ""):
            raise RegistryError(f"invalid adapter name {name!r}")
        if name in self._adapters:
            raise RegistryError(f"adapter {name!r} already exists")
        source = self._rng_for("adapter:" + name) if arrays is None else arrays
        inst = instantiate_adapter(name, config, self.dims, source)
        self._adapters[name] = inst
        return inst

    def adapter_instance(self, name: str) -> AdapterInstance:
        try:
            return self._adapters[name]
        except KeyError:
            raise KeyError(
                f"no adapter named {name!r}; registered: {sorted(self._adapters)}"
            ) from None

    def has_adapter(self, name: str) -> bool:
        return name in self._adapters

    def adapter_names(self) -> list:
        return sorted(self._adapters)

    def delete_adapter(self, name: str) -> None:
        inst = self.adapter_instance(name)
        if self._active is not None and name in leaves(self._active):
            raise RegistryError(f"adapter {name!r} is referenced by the active setup")
        for key in self._fusions:
            if name in key:
                raise RegistryError(f"adapter {name!r} is referenced by fusion {key}")
        if inst.merged:
            raise StateError(f"adapter {name!r} is merged into the base weights; unmerge first")
        del self._adapters[name]

    # -- fusion layers ---------------------------------------------------------

    def add_adapter_fusion(self, names) -> FusionLayer:
        key = tuple(names)
        if len(key) < 2:
            raise RegistryError("a fusion layer needs at least two adapters")
        for n in key:
            self.adapter_instance(n)
        if key in self._fusions:
            raise RegistryError(f"fusion layer for {key} already exists")
        fl = FusionLayer(key, self.dims.hidden, self._rng_for("fusion:" + "+".join(key)))
        self._fusions[key] = fl
        return fl

    # -- heads ------------------------------------------------------------------

    def add_prediction_head(self, name: str, kind: str = CLASSIFICATION,
                            num_labels: int = 2) -> PredictionHead:
        return self._register_head(name, kind, num_labels, None)

    def _register_head(self, name: str, kind: str, num_labels: int,
                       arrays: Optional[dict]) -> PredictionHead:
        """Register a head whose ``w`` and ``b`` are ``arrays``, or drawn
        from its own rng when that is ``None``."""
        if name in self._heads:
            raise RegistryError(f"prediction head {name!r} already exists")
        source = self._rng_for("head:" + name) if arrays is None else arrays
        head = PredictionHead(name, kind, num_labels, self.dims.hidden, source)
        self._heads[name] = head
        return head

    def head(self, name: str) -> PredictionHead:
        try:
            return self._heads[name]
        except KeyError:
            raise KeyError(f"no prediction head named {name!r}; have {sorted(self._heads)}") from None

    def has_head(self, name: str) -> bool:
        return name in self._heads

    # -- activation ----------------------------------------------------------------

    def validate_setup(self, setup, batch: Optional[int] = None,
                       seq: Optional[int] = None) -> Plan:
        """Check every composition rule and return the compiled plan."""
        node = _as_setup(setup)
        return validate_composition(node, self.adapter_instance, batch=batch, seq=seq,
                                    fusion_exists=self._fusions.get)

    def set_active(self, setup) -> None:
        """Choose the composition used by subsequent encodes.  Pure: never
        touches parameter values or trainability."""
        if setup is None:
            self._active = None
            return
        node = _as_setup(setup)
        self.validate_setup(node)
        self._active = node

    @property
    def active(self):
        return self._active

    # -- parameter partitions ----------------------------------------------------

    def all_parameters(self) -> dict:
        out = {}
        for k, t in self.encoder.parameter_items():
            out["base." + k] = t
        for name, inst in sorted(self._adapters.items()):
            for k, t in inst.tensors.items():
                out[f"adapter.{name}.{k}"] = t
        for key, fl in sorted(self._fusions.items()):
            for k, t in fl.tensors().items():
                out[f"fusion.{'+'.join(key)}.{k}"] = t
        for name, head in sorted(self._heads.items()):
            for k, t in head.tensors().items():
                out[f"head.{name}.{k}"] = t
        return out

    def trainable_parameters(self) -> dict:
        return {k: t for k, t in self.all_parameters().items() if t.requires_grad}

    def freeze_all(self) -> None:
        for t in self.all_parameters().values():
            t.requires_grad = False

    def train_adapter(self, setup, train_fused_members: bool = False,
                      extra_heads=()) -> None:
        """Freeze everything, then mark the referenced adapters (their
        fusion layers, and same-named heads) trainable and activate the
        setup.  Members under ``Fuse`` stay frozen unless requested."""
        node = _as_setup(setup)
        plan = self.validate_setup(node)
        self.freeze_all()
        names = set(plan.leaf_names)
        fused: set = set()
        for members, fl in plan.fused:
            for t in fl.tensors().values():
                t.requires_grad = True
            fused.update(members)
        if train_fused_members:
            fused = set()
        for n in names - fused:
            self._adapters[n].set_requires_grad(True)
        for n in sorted(names | set(extra_heads)):
            if n in self._heads:
                for t in self._heads[n].tensors().values():
                    t.requires_grad = True
        self._active = node

    def train_full(self, head: Optional[str] = None) -> None:
        """Full fine-tuning baseline: all base weights (plus one head)
        trainable, no adapter active."""
        self.freeze_all()
        self.encoder.set_requires_grad(True)
        if head is not None:
            for t in self.head(head).tensors().values():
                t.requires_grad = True
        self._active = None

    # -- forward --------------------------------------------------------------------

    def frozen_stage(self) -> Optional[Stage]:
        """The stage below which the active setup's encodes compute only
        frozen layers (``Plan.start``), so that they can start there from
        :meth:`TransformerEncoder.prefix` activations; None with no active
        setup, a trainable base weight, or a setup that acts at the
        embedding."""
        if self._active is None or self.encoder.trains():
            return None
        return self.validate_setup(self._active).start

    def encode(self, tokens, mask=None, pooled: bool = False,
               start: Optional[Activations] = None) -> EncoderState:
        """Encode through the active setup.  ``pooled`` asks for the
        encoder's pooled readout (see :meth:`TransformerEncoder.encode`),
        for heads that read one position; the setup's plan decides whether
        it can run or the full path is kept.  ``start`` holds these tokens'
        activations at a stage (:meth:`TransformerEncoder.prefix`), where
        the encode then starts; :class:`ValueError` when there is no active
        setup, a base weight is trainable, or the setup acts before that
        stage or reads an array there that ``start`` does not hold.

        The encoder copies a ``Parallel`` setup's rows where routing
        begins: over a frozen base, at the setup's first adapted stage
        (``Plan.start``), so its branches share the frozen layers below it
        (see :meth:`TransformerEncoder.encode`).

        With no tape recording, a batch of many tokens under a setup that
        does not route rows is encoded in row blocks on threads, each with
        its own router, and their hidden states are joined in row order
        (:meth:`TransformerEncoder.in_row_blocks`): the state, and every
        head's logits of it, equal one call's bit for bit.  The tokens and
        mask are checked first, so a bad batch raises what one call
        raises."""
        tokens = np.asarray(tokens)
        plan = None
        if self._active is not None:
            batch, seq = tokens.shape if tokens.ndim == 2 else (None, None)
            plan = self.validate_setup(self._active, batch=batch, seq=seq)
        if start is not None:
            need = None if plan is None or self.encoder.trains() else plan.start
            if need is None or not start.stage.serves(need):
                raise ValueError(f"activations at {start.stage} cannot start the active "
                                 f"setup, which starts at {need or 'the embedding'}")
        tokens, mask = self.encoder.check_batch(tokens, mask)

        def run(rows):
            return self.encoder.encode(tokens[rows], mask[rows],
                                       None if plan is None else RoutingContext(plan), pooled,
                                       None if start is None else start.take(rows))

        states = self.encoder.in_row_blocks(run, tokens.shape, plan)
        state = states[0]
        if len(states) > 1:
            state.hidden = Tensor(np.concatenate([s.hidden.data for s in states]))
            state.branches = [(state.branches[0][0], tokens.shape[0])]
        return state

    def logits(self, state: EncoderState, head_name: str) -> Tensor:
        return self.head(head_name).logits(state)

    def branch_logits(self, state: EncoderState) -> dict:
        """Per-branch head outputs for branched setups: maps branch label to
        logits computed by the same-named head (branches without a matching
        head are skipped)."""
        out = {}
        off = 0
        for label, rows in state.branches:
            if label is not None and label in self._heads:
                out[label] = self._heads[label].logits(state, rows=slice(off, off + rows))
            off += rows
        return out

    # -- low-rank merging --------------------------------------------------------------

    def _lora_pairs(self, inst: AdapterInstance):
        pairs = []
        for l in range(self.dims.num_layers):
            for hook, proj in ((HookPoint.ATTN_Q_PROJ, "wq"), (HookPoint.ATTN_V_PROJ, "wv")):
                for m, _ in inst.at(hook, l):
                    pairs.append((self.encoder.params[f"layer{l}.attn.{proj}"], m))
        return pairs

    def merge_adapter(self, name: str) -> None:
        """Fold a low-rank adapter's deltas into the frozen projections."""
        inst = self.adapter_instance(name)
        if not isinstance(inst.config, LoraConfig):
            raise StateError(f"adapter {name!r} is not a pure low-rank adapter; cannot merge")
        if inst.merged:
            raise StateError(f"adapter {name!r} is already merged")
        for w, m in self._lora_pairs(inst):
            w.data = w.data + m.weight_delta()
        inst.merged = True

    def unmerge_adapter(self, name: str) -> None:
        inst = self.adapter_instance(name)
        if not inst.merged:
            raise StateError(f"adapter {name!r} is not merged")
        for w, m in self._lora_pairs(inst):
            w.data = w.data - m.weight_delta()
        inst.merged = False

    # -- averaging ------------------------------------------------------------------------

    def average_adapters(self, new_name: str, sources, weights=None) -> AdapterInstance:
        """Register a new adapter whose tensors are the (normalized)
        weighted mean of the sources'.  Sources must share one config."""
        sources = list(sources)
        if not sources:
            raise RegistryError("average needs at least one source adapter")
        insts = [self.adapter_instance(n) for n in sources]
        cfg = insts[0].config
        for inst in insts[1:]:
            if inst.config != cfg:
                raise RegistryError(
                    f"cannot average {sources}: configs differ "
                    f"({inst.name!r} does not match {insts[0].name!r})"
                )
        if weights is None:
            weights = [1.0 / len(sources)] * len(sources)
        weights = np.asarray([float(w) for w in weights], dtype=np.float64)
        if weights.shape[0] != len(sources):
            raise RegistryError(
                f"{len(sources)} sources but {weights.shape[0]} weights"
            )
        with np.errstate(over="ignore"):
            total = weights.sum()
        if np.any(weights < 0) or total <= 0:
            raise RegistryError("average weights must be non-negative and sum to > 0")
        if not np.isfinite(total):          # a NaN or inf weight, or a sum that overflows
            raise RegistryError(f"average weights must be finite with a finite sum, "
                                f"got {weights.tolist()}")
        weights = weights / total
        averaged = {}
        for key, t in insts[0].tensors.items():
            acc = np.zeros_like(t.data)
            for w, inst in zip(weights, insts):
                acc += w * inst.tensors[key].data
            averaged[key] = acc
        return self._register_adapter(new_name, cfg, averaged)

    # -- persistence -------------------------------------------------------------------------

    def save_adapter(self, name: str, directory) -> Path:
        """Write ``weights.bin`` and then ``adapter_config.json`` for one
        adapter, each atomically, so a failed save leaves the directory's
        manifest as it was; tensors a load would refuse are refused before
        anything is written."""
        inst = self.adapter_instance(name)
        directory = Path(directory)
        tensors = storable(directory / WEIGHTS_FILE, {k: t.data for k, t in inst.tensors.items()})
        directory.mkdir(parents=True, exist_ok=True)
        write_weights(directory / WEIGHTS_FILE, tensors)
        write_manifest(directory / CONFIG_FILE, name, config_to_dict(inst.config),
                       self.dims.to_dict())
        return directory

    def load_adapter(self, directory, name: Optional[str] = None) -> str:
        """Load a checkpoint directory into the registry (frozen, inactive).
        Returns the registered name (the stored one unless overridden)."""
        path = Path(directory) / CONFIG_FILE
        doc = read_manifest(path)
        if manifest_dims(doc, path) != self.dims:
            raise CheckpointError(f"checkpoint dims {doc['dims']} do not match "
                                  f"model dims {self.dims.to_dict()}")
        if not _NAME_RE.match(doc["name"]):
            raise CheckpointError(f"{path} stores an invalid adapter name {doc['name']!r}")
        reg_name = name if name is not None else doc["name"]
        config = config_from_dict(doc["config"])
        # Check the file against a dry build, then build from its arrays.
        blobs = read_weights(Path(directory) / WEIGHTS_FILE, tensor_shapes(config, self.dims))
        self._register_adapter(reg_name, config, blobs)
        return reg_name

    def save_base(self, directory) -> Path:
        """Write ``base_weights.bin`` and then ``base_config.json`` for the
        encoder, each atomically, so a failed save leaves the directory's
        manifest as it was; weights a load would refuse are refused before
        anything is written."""
        directory = Path(directory)
        tensors = storable(directory / BASE_WEIGHTS_FILE,
                           {k: t.data for k, t in self.encoder.params.items()})
        directory.mkdir(parents=True, exist_ok=True)
        write_weights(directory / BASE_WEIGHTS_FILE, tensors)
        write_base_manifest(directory / BASE_CONFIG_FILE, self.dims.to_dict())
        return directory

    @classmethod
    def load_base(cls, directory) -> "AdapterModel":
        """A model (seed 0) whose encoder holds the base saved in
        ``directory``; its weights file is checked against the dims, and
        the encoder built from its arrays without drawing."""
        path = Path(directory) / BASE_CONFIG_FILE
        dims = manifest_dims(read_manifest(path, BASE_KEYS, "base manifest"), path)
        blobs = read_weights(Path(directory) / BASE_WEIGHTS_FILE, encoder_shapes(dims))
        return cls(dims, base_state=blobs)

    def save_head(self, name: str, path) -> None:
        """Write prediction head ``name`` to the head file ``path``, atomically,
        unless its weights hold NaN or an infinity."""
        h = self.head(name)
        check_tensors(path, {"w": h.w.data, "b": h.b.data})
        write_head(path, h.kind, h.num_labels, h.w.data, h.b.data)

    def load_head(self, name: str, path) -> None:
        """Register the head stored in the head file ``path`` under ``name``."""
        kind, num_labels, arrays = read_head(path, self.dims.hidden)
        self._register_head(name, kind, num_labels, arrays)

    # -- integrity helpers ------------------------------------------------------------------------

    def base_fingerprint(self) -> bytes:
        return _fingerprint(self.encoder.params)

    def adapter_fingerprint(self, name: str) -> bytes:
        return _fingerprint(self.adapter_instance(name).tensors)


def _fingerprint(tensors: dict) -> bytes:
    """sha256 over each tensor's name and float64 bytes, in name order."""
    h = sha256()
    for k in sorted(tensors):
        h.update(k.encode())
        h.update(tensors[k].data.tobytes())
    return h.digest()
