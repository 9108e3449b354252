"""Phase checkpoints: JSON files carrying parameter arrays plus a hash chain.

Each file stores its kind, the constructor arguments of every model it holds
(``meta``), those models' ``params()`` arrays in order, and its lineage: the
fingerprint of the config it was produced under, the fingerprint of the
graph set its models were trained on, and the fingerprint of the upstream
checkpoint it depends on (flow depends on encoder, student on flow). Loading
a later phase verifies the lineage, so a changed config or dataset, or a
retrained upstream phase, invalidates stale checkpoints instead of silently
mixing. A file that cannot be parsed, verified or rebuilt is a phase-order
error naming the file.

Values serialize through Python floats, whose repr round-trips 64-bit
doubles exactly, so save/load is lossless and byte-stable. Checkpoints and
every other file a run writes (reports, CSV tables) go
through ``atomic_write``.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import canonical_bytes, payload_fingerprint
from .errors import ContractViolation, PhaseOrderError
from .flow import GraphFlow
from .optim import freeze, make_rng
from .source import FeatureDecoder, GcnEncoder
from .target import GinNetwork

_MODEL_CLASSES = {cls.__name__: cls for cls in (
    GcnEncoder, FeatureDecoder, GraphFlow, GinNetwork)}


@contextmanager
def atomic_write(path: str, mode: str = "w", **open_args):
    """Opens a temporary file beside ``path`` that replaces ``path`` only
    when the block completes, so an interrupted write leaves the previous
    file intact and no temporary file behind."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path: str, header: list[str], rows):
    """The CSV dialect of every table a run writes."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_checkpoint(path: str, kind: str, arrays: dict, meta: dict,
                    lineage: dict) -> str:
    """Writes the checkpoint atomically and returns its fingerprint.
    ``lineage`` maps each of ``LINEAGE`` to the fingerprint it records."""
    payload = {
        "kind": kind,
        "meta": meta,
        **lineage,
        "arrays": {
            name: {"shape": list(a.shape),
                   "data": [float(v) for v in np.ravel(a)]}
            for name, a in arrays.items()
        },
    }
    fingerprint = payload_fingerprint(payload)
    payload["fingerprint"] = fingerprint
    with atomic_write(path, "wb") as fh:
        fh.write(canonical_bytes(payload) + b"\n")
    return fingerprint


def load_checkpoint(path: str, expect_kind: str) -> dict:
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
    if payload.get("kind") != expect_kind:
        raise PhaseOrderError(
            f"checkpoint {path} is a {payload.get('kind')!r} checkpoint, "
            f"expected {expect_kind!r}")
    payload["fingerprint"] = actual
    return payload


def _rebuild(path: str, name: str, entry: dict, arrays: dict):
    cls = _MODEL_CLASSES.get(entry["class"])
    if cls is None:
        raise PhaseOrderError(
            f"checkpoint {path} holds a model of class {entry['class']!r}, "
            f"which this version does not have; retrain the phase that "
            f"wrote it")
    model = cls(**entry["args"], rng=make_rng(0))
    for i, p in enumerate(model.params()):
        stored = arrays.pop(f"{name}.{i}")
        if stored["shape"] != list(p.data.shape):
            raise ValueError(f"{name}.{i} has shape {stored['shape']}, "
                             f"the model expects {list(p.data.shape)}")
        p.data = np.asarray(stored["data"], dtype=np.float64).reshape(p.data.shape)
    return model


# Each lineage entry a checkpoint records, and what a mismatch means.
LINEAGE = {
    "config_fingerprint": "it was produced under another config; re-run "
                          "the earlier phase",
    "data_fingerprint": "it was trained on other data; re-run train",
    "upstream_fingerprint": "the upstream phase was retrained after this "
                            "checkpoint was written",
}


@dataclass
class PhaseStore:
    """The checkpoints of one run directory: ``<root>/<seed>/encoder.ckpt``,
    ``flow.ckpt`` and ``target.ckpt``, with each trained phase's per-epoch
    losses beside them in ``loss_<phase>.csv``. Every checkpoint records
    the fingerprints of the config and of the graph set
    (``data.dataset_fingerprint``) that the run uses."""

    root: str
    config_fingerprint: str
    data_fingerprint: str
    KINDS = {"source": "encoder", "flow": "flow", "target": "target"}

    def path(self, seed: int, phase: str) -> str:
        return os.path.join(self.root, str(seed), f"{self.KINDS[phase]}.ckpt")

    def lineage(self, upstream_fingerprint: str | None) -> dict:
        return {"config_fingerprint": self.config_fingerprint,
                "data_fingerprint": self.data_fingerprint,
                "upstream_fingerprint": upstream_fingerprint}

    def save(self, seed: int, phase: str, models: dict,
             upstream_fingerprint: str | None, trace=None) -> str:
        """Checkpoints the named models of ``phase``; returns the
        checkpoint's fingerprint."""
        path = self.path(seed, phase)
        meta = {name: {"class": type(model).__name__, "args": model.init_args()}
                for name, model in models.items()}
        arrays = {f"{name}.{i}": p.data for name, model in models.items()
                  for i, p in enumerate(model.params())}
        fingerprint = save_checkpoint(path, self.KINDS[phase], arrays, meta,
                                      self.lineage(upstream_fingerprint))
        if trace is not None:
            write_csv(os.path.join(os.path.dirname(path), f"loss_{phase}.csv"),
                      ["epoch", "loss"], [[i, repr(v)] for i, v in enumerate(trace)])
        return fingerprint

    def load_chain(self, seed: int, phases):
        """Models of ``phases``, read in order and rebuilt frozen. Each
        checkpoint must carry this store's config and data fingerprints and
        have been built on exactly the checkpoint before it. Returns
        (name -> model, last fingerprint)."""
        models, upstream = {}, None
        for phase in phases:
            path = self.path(seed, phase)
            payload = load_checkpoint(path, self.KINDS[phase])
            for key, expected in self.lineage(upstream).items():
                if payload.get(key) != expected:
                    raise PhaseOrderError(
                        f"checkpoint {path} records {key} {payload.get(key)}, "
                        f"expected {expected}: {LINEAGE[key]}")
            try:
                arrays = dict(payload["arrays"])
                loaded = {name: _rebuild(path, name, entry, arrays)
                          for name, entry in payload["meta"].items()}
                if arrays:
                    raise ValueError(f"no model takes the arrays {sorted(arrays)}")
            except (KeyError, TypeError, ValueError, AttributeError,
                    ContractViolation) as exc:
                raise PhaseOrderError(
                    f"checkpoint {path} cannot be rebuilt: {exc!r}") from None
            freeze(*loaded.values())
            models.update(loaded)
            upstream = payload["fingerprint"]
        return models, upstream
