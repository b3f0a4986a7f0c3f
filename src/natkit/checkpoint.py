"""Self-contained checkpoint files with reproducible bytes.

Layout: a magic line, one JSON header line (sorted keys) holding the format
version, model config, vocabulary, special tokens and tensor manifest, then
the raw little-endian float64 bytes of each tensor in manifest order. No
archive container, no timestamps, so identical runs produce identical files.
The special tokens are stated so that a reader can check them: a header
whose list differs from :data:`natkit.corpus.SPECIALS` does not load.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import zip_longest
from pathlib import Path

import numpy as np

from natkit.corpus import SPECIALS, CorpusError, Vocabulary
from natkit.model import ModelConfig, Params, _param_keys

MAGIC = b"natkit-checkpoint"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


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
    try:
        return ModelConfig(**d)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"invalid checkpoint config: {e}") from e


def _check_manifest(manifest, config: ModelConfig, path) -> None:
    """The tensors a header lists must be exactly those ``config`` needs, in
    the name order :func:`save_checkpoint` writes."""
    expected = [[name, list(shape)] for name, shape in sorted(_param_keys(config))]
    if manifest == expected:
        return
    if not isinstance(manifest, list):
        raise CheckpointError(f"checkpoint {path} manifest is not a list")
    got, want = next((g, w) for g, w in zip_longest(manifest, expected) if g != w)
    if got is None:
        detail = f"lacks {want!r}, which its config needs"
    elif want is None:
        detail = f"lists {got!r}, which its config does not use"
    else:
        detail = f"lists {got!r} where its config needs {want!r}"
    raise CheckpointError(f"checkpoint {path} manifest {detail}")


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
        "config": dataclasses.asdict(config),
        "vocab": list(vocab.tokens),
        "specials": list(SPECIALS),
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
        if not isinstance(header, dict):
            raise CheckpointError(f"checkpoint header in {path} is not a mapping")
        if header.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format {header.get('format')!r}, "
                f"this build reads version {FORMAT_VERSION}"
            )
        missing = [k for k in ("config", "vocab", "specials", "manifest") if k not in header]
        if missing:
            raise CheckpointError(f"checkpoint {path} header lacks {', '.join(missing)}")
        config = config_from_dict(header["config"])
        _check_manifest(header["manifest"], config, path)
        if header["specials"] != list(SPECIALS):
            raise CheckpointError(
                f"checkpoint {path} lists specials {header['specials']!r}; "
                f"natkit's fixed layout is {list(SPECIALS)!r}"
            )
        try:
            vocab = Vocabulary(tokens=tuple(header["vocab"]))
        except (TypeError, CorpusError) as e:
            raise CheckpointError(f"checkpoint {path} has an invalid vocabulary: {e}") from e
        if len(vocab.tokens) != config.vocab_size:
            raise CheckpointError(
                f"checkpoint {path} vocabulary has {len(vocab.tokens)} tokens, "
                f"its config vocab_size={config.vocab_size}"
            )
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
