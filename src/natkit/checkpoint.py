"""Self-contained checkpoint files with reproducible bytes.

Layout: a magic line, one JSON header line (sorted keys) holding the format
version, model config, vocabulary and tensor manifest, then the raw
little-endian float64 bytes of each tensor in manifest order. No archive
container, no timestamps, so identical runs produce identical files.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from natkit.corpus import Vocabulary
from natkit.model import ModelConfig, Params

MAGIC = b"natkit-checkpoint"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def config_to_dict(config: ModelConfig) -> dict:
    d = dataclasses.asdict(config)
    d["dec_self_attention"] = list(config.dec_self_attention)
    return d


def config_from_dict(d: dict) -> ModelConfig:
    """The model config a header holds; a bad one is a :class:`CheckpointError`."""
    if not isinstance(d, dict):
        raise CheckpointError(f"checkpoint config is not a mapping: {d!r}")
    fields = dataclasses.fields(ModelConfig)
    unknown = sorted(set(d) - {f.name for f in fields})
    if unknown:
        raise CheckpointError(f"unknown checkpoint config keys: {', '.join(unknown)}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in d]
    if missing:
        raise CheckpointError(f"checkpoint config lacks required keys: {', '.join(missing)}")
    d = dict(d)
    try:
        if d.get("dec_self_attention") is not None:
            d["dec_self_attention"] = tuple(bool(b) for b in d["dec_self_attention"])
        return ModelConfig(**d)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"invalid checkpoint config: {e}") from e


def save_checkpoint(
    path: str | Path,
    params: Params,
    config: ModelConfig,
    vocab: Vocabulary,
    extra: dict | None = None,
) -> None:
    manifest = [[k, list(params[k].shape)] for k in sorted(params)]
    header = {
        "format": FORMAT_VERSION,
        "config": config_to_dict(config),
        "vocab": list(vocab.tokens),
        "specials": list(vocab.specials),
        "manifest": manifest,
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name, _ in manifest:
            fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[Params, ModelConfig, Vocabulary, dict]:
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic {magic!r})")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except json.JSONDecodeError as e:
            raise CheckpointError(f"unreadable checkpoint header in {path}: {e}") from e
        if header.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format {header.get('format')!r}, "
                f"this build reads version {FORMAT_VERSION}"
            )
        config = config_from_dict(header["config"])
        vocab = Vocabulary(tokens=tuple(header["vocab"]), specials=tuple(header["specials"]))
        params: Params = {}
        for name, shape in header["manifest"]:
            n = int(np.prod(shape)) if shape else 1
            buf = fh.read(8 * n)
            if len(buf) != 8 * n:
                raise CheckpointError(f"checkpoint {path} truncated at tensor {name}")
            params[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError(f"checkpoint {path} has trailing bytes")
    return params, config, vocab, header.get("extra", {})
