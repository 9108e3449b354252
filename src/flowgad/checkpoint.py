"""Phase checkpoints: JSON files carrying parameter arrays plus a hash chain.

Each file stores its kind, the constructor arguments of every model it holds
(``meta``), those models' ``params()`` arrays in order, the fingerprint of
the config it was produced under, and the fingerprint of the upstream
checkpoint it depends on (flow depends on encoder, student on flow). Loading
a later phase verifies the chain, so a retrained upstream phase invalidates
stale downstream checkpoints instead of silently mixing. A file that cannot
be parsed, verified or rebuilt is a phase-order error naming the file.

Values serialize through Python floats, whose repr round-trips 64-bit
doubles exactly, so save/load is lossless and byte-stable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, PhaseOrderError
from .flow import GraphFlow, IdentityFlow
from .optim import freeze, make_rng
from .source import FeatureDecoder, GcnEncoder
from .target import GinNetwork

_MODEL_CLASSES = {cls.__name__: cls for cls in (
    GcnEncoder, FeatureDecoder, GraphFlow, IdentityFlow, GinNetwork)}


def write_csv(path: str, header: list[str], rows):
    """The CSV dialect of every table a run writes."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _canonical_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def payload_fingerprint(payload: dict) -> str:
    return hashlib.sha256(_canonical_bytes(payload)).hexdigest()


def save_checkpoint(path: str, kind: str, arrays: dict, meta: dict,
                    config_fingerprint: str,
                    upstream_fingerprint: str | None = None) -> str:
    """Writes the checkpoint and returns its fingerprint. The bytes go to a
    temporary file beside ``path`` that then replaces it, so an interrupted
    write leaves the previous checkpoint intact."""
    payload = {
        "kind": kind,
        "meta": meta,
        "config_fingerprint": config_fingerprint,
        "upstream_fingerprint": upstream_fingerprint,
        "arrays": {
            name: {"shape": list(a.shape),
                   "data": [float(v) for v in np.ravel(a)]}
            for name, a in arrays.items()
        },
    }
    fingerprint = payload_fingerprint(payload)
    payload["fingerprint"] = fingerprint
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return fingerprint


def load_checkpoint(path: str, expect_kind: str | None = None) -> dict:
    """Reads a checkpoint and re-verifies its self-fingerprint; each entry
    under 'arrays' holds a 'shape' and the row-major 'data'."""
    if not os.path.isfile(path):
        raise PhaseOrderError(f"checkpoint missing: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise PhaseOrderError(f"checkpoint {path} is unreadable: {exc}") from None
    if not isinstance(payload, dict):
        raise PhaseOrderError(f"checkpoint {path} is not a JSON object")
    stored = payload.pop("fingerprint", None)
    actual = payload_fingerprint(payload)
    if stored != actual:
        raise PhaseOrderError(
            f"checkpoint {path} failed verification: stored fingerprint "
            f"{stored} but content hashes to {actual}")
    if expect_kind is not None and payload.get("kind") != expect_kind:
        raise PhaseOrderError(
            f"checkpoint {path} is a {payload.get('kind')!r} checkpoint, "
            f"expected {expect_kind!r}")
    payload["fingerprint"] = actual
    return payload


def verify_chain(payload: dict, upstream_fingerprint: str | None,
                 config_fingerprint: str, path: str):
    """Raises unless the checkpoint was built on exactly these upstreams."""
    if payload.get("config_fingerprint") != config_fingerprint:
        raise PhaseOrderError(
            f"checkpoint {path} was produced under config fingerprint "
            f"{payload.get('config_fingerprint')}, current config is "
            f"{config_fingerprint}; re-run the earlier phase")
    if payload.get("upstream_fingerprint") != upstream_fingerprint:
        raise PhaseOrderError(
            f"checkpoint {path} expected upstream fingerprint "
            f"{upstream_fingerprint} but was built on "
            f"{payload.get('upstream_fingerprint')}; upstream phase was "
            f"retrained after this checkpoint was written")


def save_models(path: str, kind: str, models: dict, config_fingerprint: str,
                upstream_fingerprint: str | None = None) -> str:
    """Checkpoints named models; returns the checkpoint's fingerprint."""
    meta = {name: {"class": type(model).__name__, "args": model.init_args()}
            for name, model in models.items()}
    arrays = {f"{name}.{i}": p.data for name, model in models.items()
              for i, p in enumerate(model.params())}
    return save_checkpoint(path, kind, arrays, meta, config_fingerprint,
                           upstream_fingerprint)


def _rebuild(name: str, entry: dict, arrays: dict):
    model = _MODEL_CLASSES[entry["class"]](**entry["args"], rng=make_rng(0))
    for i, p in enumerate(model.params()):
        stored = arrays.pop(f"{name}.{i}")
        if stored["shape"] != list(p.data.shape):
            raise ValueError(f"{name}.{i} has shape {stored['shape']}, "
                             f"the model expects {list(p.data.shape)}")
        p.data = np.asarray(stored["data"], dtype=np.float64).reshape(p.data.shape)
    return model


def load_models(path: str, kind: str, config_fingerprint: str,
                upstream_fingerprint: str | None = None):
    """Verifies the checkpoint and its chain, then rebuilds its models frozen.
    Returns (name -> model, the checkpoint's fingerprint)."""
    payload = load_checkpoint(path, expect_kind=kind)
    verify_chain(payload, upstream_fingerprint, config_fingerprint, path)
    arrays = dict(payload["arrays"])
    try:
        models = {name: _rebuild(name, entry, arrays)
                  for name, entry in payload["meta"].items()}
        if arrays:
            raise ValueError(f"no model takes the arrays {sorted(arrays)}")
    except (KeyError, TypeError, ValueError, AttributeError,
            ContractViolation) as exc:
        raise PhaseOrderError(
            f"checkpoint {path} cannot be rebuilt: {exc!r}") from None
    freeze(*models.values())
    return models, payload["fingerprint"]


@dataclass
class PhaseStore:
    """The checkpoints of one run directory: ``<root>/<seed>/encoder.ckpt``,
    ``flow.ckpt`` and ``target.ckpt``, with each trained phase's per-epoch
    losses beside them in ``loss_<phase>.csv``."""

    root: str
    config_fingerprint: str
    KINDS = {"source": "encoder", "flow": "flow", "target": "target"}

    def path(self, seed: int, phase: str) -> str:
        return os.path.join(self.root, str(seed), f"{self.KINDS[phase]}.ckpt")

    def save(self, seed: int, phase: str, models: dict,
             upstream_fingerprint: str | None, trace=None) -> str:
        path = self.path(seed, phase)
        fingerprint = save_models(path, self.KINDS[phase], models,
                                  self.config_fingerprint, upstream_fingerprint)
        if trace is not None:
            write_csv(os.path.join(os.path.dirname(path), f"loss_{phase}.csv"),
                      ["epoch", "loss"], [[i, repr(v)] for i, v in enumerate(trace)])
        return fingerprint

    def load_chain(self, seed: int, phases):
        """Models of ``phases``, read in order, each checkpoint verified
        against the one before. Returns (name -> model, last fingerprint)."""
        models, fingerprint = {}, None
        for phase in phases:
            loaded, fingerprint = load_models(
                self.path(seed, phase), self.KINDS[phase],
                self.config_fingerprint, fingerprint)
            models.update(loaded)
        return models, fingerprint
