"""Micro encoder-decoder with hand-written numpy gradients.

Small enough to finite-difference end to end, rich enough to express the
training variants under study: parallel decoding against an alignment lattice
or a predicted length, glanced decoder inputs, per-layer supervision, and an
equal-scale autoregressive baseline for latency comparisons.

Architecture (all single head, no layer norm):

- encoder: token + positional embeddings, then ``enc_layers`` blocks of
  residual linear + activation
- decoder: strategy-built input embeddings + positions, then ``dec_layers``
  blocks of [optional self-attention, cross-attention, residual feed-forward],
  with logits after every layer through the tied embedding matrix
- length head (length mode only): linear over the mean-pooled encoder state

Parameters live in a flat ``dict[str, np.ndarray]``; gradients mirror it
key for key. Forward passes record a cache consumed by :func:`backward`.

Batch axis. :func:`forward` takes one sentence (2-D activations, (T, V)
logits) or a batch (a leading axis B). The sublayers are written once for
both: matrix products act on the last two axes, and weight gradients sum
over every row of ``reshape(-1, d)``. A batch pads its sources and decoder
inputs with PAD_ID to the longest row, and the padding rule is:

- attention hides padded keys: encoder positions past a row's source
  length in cross-attention, decoder positions past its decoder length in
  self-attention (with the causal mask in autoregressive mode). The mask
  is None when every row has the same length, so a one-sentence call and
  a full batch run no mask at all;
- the length head mean-pools a row's real source positions only;
- padded positions still compute (finite) values, but their logit
  gradient is zero, so they add nothing to any parameter gradient;
- dropout draws one mask of the padded (B, T_max, d) shape per dropout
  site per call, padded positions included, in the order of the layers.

A padded row's logits equal the row run alone up to rounding.

Losses come back with gradients in logit space. One token loss,
:func:`token_loss`, serves every mode and scores one decoder layer's logits;
training applies it to the last layer, or averages it over every layer for
deep supervision, and length-mode models add :func:`loss_length`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from natkit.corpus import BLANK_ID, BOS_ID, EOS_ID, PAD_ID, UNK_ID
from natkit.ctc import collapse, ctc_forward, ctc_loss_logits, log_softmax
from natkit.glancing import GlanceMask

Params = dict[str, np.ndarray]

ACTIVATIONS = ("relu", "gelu")
INITS = ("uniform", "normal")
INPUT_STRATEGIES = ("unk", "uniform_copy", "soft_copy")
LENGTH_MODES = ("offset", "absolute")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 32
    enc_layers: int = 2
    dec_layers: int = 2
    activation: str = "relu"
    init: str = "uniform"
    dropout: float = 0.0
    decoder_input: str = "unk"
    dec_self_attention: tuple[bool, ...] | None = None
    upsample: int | None = None      # set -> alignment (CTC) mode
    length_mode: str = "offset"
    length_bound: int = 32           # K: offset classes [-K, K]
    max_abs_len: int = 64            # absolute-mode classes [0, max_abs_len)
    deep_supervision: bool = False
    autoregressive: bool = False
    max_len: int = 96

    def __post_init__(self) -> None:
        if self.vocab_size < 6:
            raise ValueError(f"vocab_size must cover the specials, got {self.vocab_size}")
        if self.d_model < 2:
            raise ValueError(f"d_model must be >= 2, got {self.d_model}")
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ValueError("need at least one encoder and one decoder layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got {self.init!r}")
        if not (0.0 <= self.dropout <= 0.5):
            raise ValueError(f"dropout must be in [0, 0.5], got {self.dropout}")
        if self.decoder_input not in INPUT_STRATEGIES:
            raise ValueError(f"decoder_input must be one of {INPUT_STRATEGIES}")
        if self.length_mode not in LENGTH_MODES:
            raise ValueError(f"length_mode must be one of {LENGTH_MODES}")
        if self.upsample is not None and (int(self.upsample) != self.upsample or self.upsample < 1):
            raise ValueError(f"upsample must be a positive integer, got {self.upsample!r}")
        if self.length_bound < 1 or self.max_abs_len < 2:
            raise ValueError("length head needs a positive class range")
        sa = self.dec_self_attention
        if sa is None:
            sa = (True,) * self.dec_layers
        sa = tuple(bool(b) for b in sa)
        if len(sa) != self.dec_layers:
            raise ValueError(
                f"dec_self_attention has {len(sa)} entries for {self.dec_layers} layers"
            )
        object.__setattr__(self, "dec_self_attention", sa)
        if self.autoregressive:
            if self.upsample is not None:
                raise ValueError("autoregressive and alignment modes are exclusive")
            if not all(sa):
                raise ValueError("the autoregressive baseline needs self-attention in every layer")

    @property
    def mode(self) -> str:
        if self.autoregressive:
            return "at"
        return "ctc" if self.upsample is not None else "length"

    @property
    def n_length_classes(self) -> int:
        if self.length_mode == "offset":
            return 2 * self.length_bound + 1
        return self.max_abs_len


@dataclass
class LayerStates:
    """Per-layer decoder logits plus everything a loss head consumes."""

    logits: list[np.ndarray]
    length_logits: np.ndarray | None
    cache: dict = field(repr=False, default_factory=dict)


@dataclass
class ForwardCounter:
    """Counts decoder-stack executions; one parallel decode ticks once."""

    passes: int = 0

    def tick(self) -> None:
        self.passes += 1


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _param_keys(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    d, V = config.d_model, config.vocab_size
    keys: list[tuple[str, tuple[int, ...]]] = [
        ("emb", (V, d)),
        ("pos_enc", (config.max_len, d)),
        ("pos_dec", (config.max_len, d)),
    ]
    for l in range(config.enc_layers):
        keys += [(f"enc{l}_W", (d, d)), (f"enc{l}_b", (d,))]
    for l in range(config.dec_layers):
        if config.dec_self_attention[l]:
            keys += [(f"dec{l}_sq", (d, d)), (f"dec{l}_sk", (d, d)), (f"dec{l}_sv", (d, d))]
        keys += [(f"dec{l}_cq", (d, d)), (f"dec{l}_ck", (d, d)), (f"dec{l}_cv", (d, d))]
        keys += [(f"dec{l}_W", (d, d)), (f"dec{l}_b", (d,))]
    if config.mode == "length":
        keys += [("len_W", (d, config.n_length_classes)), ("len_b", (config.n_length_classes,))]
    if config.decoder_input == "soft_copy":
        keys += [("soft_tau", ())]
    return keys


def init_params(config: ModelConfig, seed: int) -> Params:
    """Fresh parameters; matrices by the configured scheme, biases zero."""
    rng = np.random.default_rng(seed)
    params: Params = {}
    for name, shape in _param_keys(config):
        if name == "soft_tau":
            params[name] = np.array(1.0)
        elif name.endswith("_b"):
            params[name] = np.zeros(shape)
        elif config.init == "normal":
            params[name] = rng.normal(0.0, 0.02, size=shape)
        else:
            fan_in = shape[0] if len(shape) == 2 else config.d_model
            bound = 1.0 / math.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def zero_grads(params: Params) -> Params:
    return {k: np.zeros_like(v) for k, v in params.items()}


def average_params(checkpoints: Sequence[Params]) -> Params:
    """Arithmetic mean of parameter sets, key by key."""
    if not checkpoints:
        raise ModelError("nothing to average")
    keys = set(checkpoints[0])
    for ckpt in checkpoints[1:]:
        if set(ckpt) != keys:
            raise ModelError("checkpoints disagree on parameter names")
    out: Params = {}
    for k in checkpoints[0]:
        shapes = {c[k].shape for c in checkpoints}
        if len(shapes) != 1:
            raise ModelError(f"shape mismatch for {k}: {sorted(shapes)}")
        out[k] = np.mean([c[k] for c in checkpoints], axis=0)
    return out


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    c = math.sqrt(2.0 / math.pi)
    u = c * (z + 0.044715 * z**3)
    return 0.5 * z * (1.0 + np.tanh(u))


def _act_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    c = math.sqrt(2.0 / math.pi)
    u = c * (z + 0.044715 * z**3)
    t = np.tanh(u)
    return 0.5 * (1.0 + t) + 0.5 * z * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * z**2)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_back(A: np.ndarray, dA: np.ndarray) -> np.ndarray:
    return A * (dA - (dA * A).sum(axis=-1, keepdims=True))


def _attend(scores: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One query's softmax-weighted sum of value rows (no masked scores)."""
    e = np.exp(scores - scores.max())
    return (e @ values) / e.sum()


def _dropout(x: np.ndarray, p: float, train: bool, rng: np.random.Generator | None):
    if not train or p <= 0.0:
        return x, None
    if rng is None:
        raise ModelError("training-mode forward with dropout needs an rng")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask, mask


def _drop_back(d: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return d if mask is None else d * mask


# ---------------------------------------------------------------------------
# Rows and padding
# ---------------------------------------------------------------------------

class _Rows(NamedTuple):
    """Token ids of one sentence, or of a batch padded with PAD_ID.

    One sentence keeps 1-D ids and an int length. A batch holds (B, L_max)
    ids, (B,) lengths and a (B, L_max) mask of the real positions, which is
    None when every row has the same length.
    """

    ids: np.ndarray
    lens: int | np.ndarray
    real: np.ndarray | None


def _real(lens: np.ndarray) -> np.ndarray | None:
    """(B, max) mask of the real positions of rows of ``lens``; None if all are equal."""
    if np.all(lens == lens[0]):
        return None
    return np.arange(lens.max()) < lens[:, None]


def _rows(seqs, batched: bool) -> _Rows:
    if not batched:
        return _Rows(np.asarray(seqs, dtype=np.int64), len(seqs), None)
    if len(seqs) == 0:
        raise ModelError("empty batch")
    lens = np.array([len(s) for s in seqs], dtype=np.int64)
    ids = np.full((len(seqs), int(lens.max())), PAD_ID, dtype=np.int64)
    for b, s in enumerate(seqs):
        ids[b, :len(s)] = s
    return _Rows(ids, lens, _real(lens))


def _is_batch(decoder_len) -> bool:
    return not isinstance(decoder_len, (int, np.integer))


def _flat(a: np.ndarray) -> np.ndarray:
    """(..., n) as (rows, n): every position of every batch row is one row."""
    return a.reshape(-1, a.shape[-1])


def _per_position(a: np.ndarray) -> np.ndarray:
    """(..., L, d) summed over any batch axis to (L, d)."""
    return a.reshape(-1, *a.shape[-2:]).sum(axis=0)


# ---------------------------------------------------------------------------
# Residual sublayers, each beside its gradient
# ---------------------------------------------------------------------------

def _attention(params, config: ModelConfig, prefix, x, mem, mask, train, rng):
    """``x + dropout(attention(x, mem))``: queries from ``x``, keys and values
    from ``mem``; where ``mask`` (broadcast over the scores) is False, the
    key is hidden."""
    scale = 1.0 / math.sqrt(x.shape[-1])
    q, k, v = x @ params[prefix + "q"], mem @ params[prefix + "k"], mem @ params[prefix + "v"]
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    A = _softmax_rows(scores)
    o, drop = _dropout(A @ v, config.dropout, train, rng)
    return x + o, (x, mem, q, k, v, A, scale, drop)


def _attention_back(params, prefix, dx, cache, grads: Params):
    """Gradients of :func:`_attention` at ``x`` (residual included) and at ``mem``."""
    x, mem, q, k, v, A, scale, drop = cache
    do = _drop_back(dx, drop)
    dv = A.swapaxes(-1, -2) @ do
    dS = _softmax_back(A, do @ v.swapaxes(-1, -2))
    dq = (dS @ k) * scale
    dk = (dS.swapaxes(-1, -2) @ q) * scale
    grads[prefix + "q"] += _flat(x).T @ _flat(dq)
    grads[prefix + "k"] += _flat(mem).T @ _flat(dk)
    grads[prefix + "v"] += _flat(mem).T @ _flat(dv)
    dmem = dk @ params[prefix + "k"].T + dv @ params[prefix + "v"].T
    return dx + dq @ params[prefix + "q"].T, dmem


def _ffn(params, config: ModelConfig, prefix, x, train, rng):
    """``x + dropout(act(x W + b))``."""
    z = x @ params[prefix + "W"] + params[prefix + "b"]
    a, mask = _dropout(_act(config.activation, z), config.dropout, train, rng)
    return x + a, (x, z, mask)


def _ffn_back(params, config: ModelConfig, prefix, dx, cache, grads: Params):
    """Gradient of :func:`_ffn` at ``x``, residual included."""
    x, z, mask = cache
    dz = _drop_back(dx, mask) * _act_grad(config.activation, z)
    grads[prefix + "W"] += _flat(x).T @ _flat(dz)
    grads[prefix + "b"] += _flat(dz).sum(axis=0)
    return dx + dz @ params[prefix + "W"].T


# ---------------------------------------------------------------------------
# Decoder inputs
# ---------------------------------------------------------------------------

def decoder_inputs(
    params: Params,
    config: ModelConfig,
    src_ids: Sequence[int] | Sequence[Sequence[int]],
    decoder_len: int | Sequence[int],
    glance: GlanceMask | Sequence[GlanceMask | None] | None = None,
) -> tuple[np.ndarray, dict]:
    """Pre-positional decoder input rows for the configured strategy.

    One sentence or a batch, as in :func:`forward`, with ``glance`` one
    mask (or None) per batch row. A padded position gets an input as if its
    row went on: ``uniform_copy`` copies the row's last source token there.
    Glanced positions are overwritten with the ground-truth token embeddings
    verbatim, so the revealed rows are exact copies of embedding rows.
    """
    batched = _is_batch(decoder_len)
    src = _rows(src_ids, batched)
    E = params["emb"]
    T = int(max(decoder_len)) if batched else decoder_len
    lead = src.ids.shape[:-1]
    cache: dict = {"strategy": config.decoder_input}
    if config.decoder_input == "unk":
        base = np.tile(E[UNK_ID], lead + (T, 1))
    elif config.decoder_input == "uniform_copy":
        J = np.asarray(src.lens)[..., None]
        idx = np.floor(np.arange(T) * J / np.asarray(decoder_len)[..., None]).astype(np.int64)
        idx = np.minimum(idx, J - 1)
        tokens = np.take_along_axis(src.ids, idx, axis=-1)
        base = E[tokens]
        cache.update(idx=idx, tokens=tokens)
    else:  # soft_copy
        tau = float(params["soft_tau"])
        if tau <= 0:
            raise ModelError(f"soft_copy temperature must stay positive, got {tau}")
        dist = np.abs(np.arange(T)[:, None] - np.arange(src.ids.shape[-1])[None, :]).astype(np.float64)
        scores = -dist / tau
        if src.real is not None:
            scores = np.where(src.real[:, None, :], scores, -np.inf)
        w = _softmax_rows(scores)
        src_emb = E[src.ids]
        base = w @ src_emb
        cache.update(w=w, dist=dist, tau=tau, src=src.ids, src_emb=src_emb)
    if glance is not None:
        _reveal(base, glance if batched else [glance], decoder_len if batched else [decoder_len],
                E, cache)
    return base, cache


def _reveal(base, masks, lens, E, cache) -> None:
    """Overwrite each row's revealed positions of ``base`` in place."""
    if len(masks) != len(lens):
        raise ModelError(f"{len(masks)} glance masks for {len(lens)} rows")
    hits = [(r, m) for r, m in enumerate(masks) if m is not None and len(m) > 0]
    for r, m in hits:
        if m.target_len != lens[r]:
            raise ModelError(f"glance mask covers {m.target_len} positions, decoder has {lens[r]}")
    if hits:
        pos = np.concatenate([m.positions for _, m in hits]).astype(np.int64)
        revealed = np.concatenate([m.revealed for _, m in hits]).astype(np.int64)
        rows = np.repeat([r for r, _ in hits], [len(m) for _, m in hits])
        where = (rows, pos) if base.ndim == 3 else (pos,)
        base[where] = E[revealed]
        cache["glance"] = (where, revealed)


def _decoder_inputs_backward(dbase: np.ndarray, cache: dict, dE: np.ndarray, dparams: Params) -> None:
    if "glance" in cache:
        where, revealed = cache["glance"]
        dbase = dbase.copy()
        np.add.at(dE, revealed, dbase[where])
        dbase[where] = 0.0
    if cache["strategy"] == "unk":
        dE[UNK_ID] += _flat(dbase).sum(axis=0)
    elif cache["strategy"] == "uniform_copy":
        np.add.at(dE, cache["tokens"].ravel(), _flat(dbase))
    else:
        w, dist, tau, src_emb = cache["w"], cache["dist"], cache["tau"], cache["src_emb"]
        np.add.at(dE, cache["src"].ravel(), _flat(w.swapaxes(-1, -2) @ dbase))
        dw = dbase @ src_emb.swapaxes(-1, -2)
        ds = _softmax_back(w, dw)
        dparams["soft_tau"] += np.array((ds * dist).sum() / tau**2)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def _encode(params, config: ModelConfig, src_ids, train, rng, batched=False):
    src = _rows(src_ids, batched)
    J = src.ids.shape[-1]
    if J < 1 or (src.real is not None and src.lens.min() < 1):
        raise ModelError("empty source")
    if J > config.max_len:
        raise ModelError(f"source of length {J} exceeds max_len={config.max_len}")
    E = params["emb"]
    x0 = E[src.ids] + params["pos_enc"][:J]
    x, in_mask = _dropout(x0, config.dropout, train, rng)
    layers = []
    for l in range(config.enc_layers):
        x, ffn = _ffn(params, config, f"enc{l}_", x, train, rng)
        layers.append(ffn)
    cache = {"src": src, "in_mask": in_mask, "layers": layers}
    length_logits = None
    if config.mode == "length":
        if src.real is None:
            pooled = x.mean(axis=-2)
        else:
            pooled = (x * src.real[..., None]).sum(axis=-2) / src.lens[:, None]
        length_logits = pooled @ params["len_W"] + params["len_b"]
        cache["pooled"] = pooled
    return x, length_logits, cache


def _decode_stack(params, config: ModelConfig, enc_out, base, train, rng, src_real=None, dec_real=None):
    """The decoder layers over ``base``; ``src_real`` and ``dec_real`` mark
    a batch's real source and decoder positions (None: every row is full)."""
    T = base.shape[-2]
    if T > config.max_len:
        raise ModelError(f"decoder length {T} exceeds max_len={config.max_len}")
    self_mask = np.tril(np.ones((T, T), dtype=bool)) if config.autoregressive else None
    if dec_real is not None:
        keys = dec_real[:, None, :]
        self_mask = keys if self_mask is None else self_mask & keys
    cross_mask = None if src_real is None else src_real[:, None, :]
    E = params["emb"]
    x0 = base + params["pos_dec"][:T]
    x, in_mask = _dropout(x0, config.dropout, train, rng)
    hidden, logits, layers = [], [], []
    for l in range(config.dec_layers):
        entry: dict = {}
        if config.dec_self_attention[l]:
            x, entry["self"] = _attention(params, config, f"dec{l}_s", x, x, self_mask, train, rng)
        x, entry["cross"] = _attention(params, config, f"dec{l}_c", x, enc_out, cross_mask, train, rng)
        x, entry["ffn"] = _ffn(params, config, f"dec{l}_", x, train, rng)
        layers.append(entry)
        hidden.append(x)
        logits.append(x @ E.T)
    cache = {"in_mask": in_mask, "layers": layers, "hidden": hidden}
    return logits, cache


def forward(
    params: Params,
    config: ModelConfig,
    src_ids: Sequence[int] | Sequence[Sequence[int]],
    decoder_len: int | Sequence[int],
    *,
    prev_ids: Sequence[int] | Sequence[Sequence[int]] | None = None,
    glance: GlanceMask | Sequence[GlanceMask | None] | None = None,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> LayerStates:
    """Full pass: encoder, length head (length mode), decoder stack, logits.

    One sentence: ``src_ids`` is a sequence of ids and ``decoder_len`` an
    int, and each layer's logits are (T, V). A batch: ``src_ids`` is a
    sequence of sentences and ``decoder_len`` one length per row, and each
    layer's logits are (B, T_max, V), padded as the module docstring says.
    ``prev_ids`` (per row in a batch) replaces the strategy inputs with
    token embeddings in autoregressive mode; ``glance`` (one mask or None
    per row in a batch) overwrites revealed positions.
    """
    batched = _is_batch(decoder_len)
    if batched and len(decoder_len) != len(src_ids):
        raise ModelError(f"{len(decoder_len)} decoder lengths for {len(src_ids)} sources")
    enc_out, length_logits, enc_cache = _encode(params, config, src_ids, train, rng, batched)
    src = enc_cache["src"]
    dec_len = np.atleast_1d(decoder_len)
    if config.autoregressive:
        prev = None if prev_ids is None else _rows(prev_ids, batched)
        if prev is None or not np.array_equal(np.atleast_1d(prev.lens), dec_len):
            raise ModelError("autoregressive forward needs prev_ids matching decoder_len")
        if glance is not None:
            raise ModelError("glancing applies to parallel decoding only")
        base = params["emb"][prev.ids]
        in_cache: dict = {"strategy": "tokens", "prev": prev.ids}
    else:
        base, in_cache = decoder_inputs(params, config, src_ids, decoder_len, glance)
    dec_real = _real(dec_len) if batched else None
    logits, dec_cache = _decode_stack(params, config, enc_out, base, train, rng, src.real, dec_real)
    cache = {
        "config": config,
        "enc": enc_cache,
        "enc_out": enc_out,
        "input": in_cache,
        "base": base,
        "dec": dec_cache,
    }
    return LayerStates(logits=logits, length_logits=length_logits, cache=cache)


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def backward(
    params: Params,
    states: LayerStates,
    dlogits: Sequence[np.ndarray | None],
    dlength: np.ndarray | None = None,
) -> Params:
    """Gradients for every parameter given per-layer logit gradients.

    ``dlogits[l]`` is the gradient at layer ``l``'s logits (None for unused
    layers), shaped like them; ``dlength`` is the gradient at the
    length-head logits. A batch's gradients are summed over its rows.
    """
    cache = states.cache
    config: ModelConfig = cache["config"]
    E = params["emb"]
    grads = zero_grads(params)
    dE = grads["emb"]

    if len(dlogits) != config.dec_layers:
        raise ModelError(f"expected {config.dec_layers} logit gradients, got {len(dlogits)}")

    dec = cache["dec"]
    hidden = dec["hidden"]
    dx = np.zeros(cache["base"].shape)
    denc = np.zeros_like(cache["enc_out"])
    for l in range(config.dec_layers - 1, -1, -1):
        dl = dlogits[l]
        if dl is not None:
            dE += _flat(dl).T @ _flat(hidden[l])
            dx = dx + dl @ E
        entry = dec["layers"][l]
        dx = _ffn_back(params, config, f"dec{l}_", dx, entry["ffn"], grads)
        dx, dmem = _attention_back(params, f"dec{l}_c", dx, entry["cross"], grads)
        denc += dmem
        if "self" in entry:
            dx, dmem = _attention_back(params, f"dec{l}_s", dx, entry["self"], grads)
            dx = dx + dmem

    dx0 = _drop_back(dx, dec["in_mask"])
    grads["pos_dec"][:dx0.shape[-2]] += _per_position(dx0)
    in_cache = cache["input"]
    if in_cache["strategy"] == "tokens":
        np.add.at(dE, in_cache["prev"].ravel(), _flat(dx0))
    else:
        _decoder_inputs_backward(dx0, in_cache, dE, grads)

    enc = cache["enc"]
    src: _Rows = enc["src"]
    if dlength is not None:
        if config.mode != "length":
            raise ModelError("length gradient supplied but the model has no length head")
        grads["len_W"] += _flat(enc["pooled"]).T @ _flat(dlength)
        grads["len_b"] += _flat(dlength).sum(axis=0)
        dpool = ((dlength @ params["len_W"].T) / np.asarray(src.lens)[..., None])[..., None, :]
        denc += dpool if src.real is None else dpool * src.real[..., None]

    dx = denc
    for l in range(config.enc_layers - 1, -1, -1):
        dx = _ffn_back(params, config, f"enc{l}_", dx, enc["layers"][l], grads)
    dx0 = _drop_back(dx, enc["in_mask"])
    grads["pos_enc"][:dx0.shape[-2]] += _per_position(dx0)
    np.add.at(dE, src.ids.ravel(), _flat(dx0))
    return grads


# ---------------------------------------------------------------------------
# Loss heads (values plus logit-space gradients)
# ---------------------------------------------------------------------------

def _ce_rows(logits: np.ndarray, targets: np.ndarray, rows: np.ndarray, grad: bool = True):
    """Mean cross-entropy over the selected rows; with ``grad``, its logit gradient."""
    logp = log_softmax(logits)
    n = len(rows)
    loss = -float(logp[rows, targets[rows]].sum()) / n
    if not grad:
        return loss, None
    dlogits = np.zeros_like(logits)
    probs = np.exp(logp[rows])
    probs[np.arange(n), targets[rows]] -= 1.0
    dlogits[rows] = probs / n
    return loss, dlogits


def token_loss(
    logits: np.ndarray,
    labels: Sequence[int],
    ctc: bool = False,
    mask: GlanceMask | None = None,
    grad: bool = True,
) -> tuple[float, np.ndarray | None]:
    """One decoder layer's token loss and, with ``grad``, its logit gradient.

    With ``ctc`` it is the negative log alignment marginal, which glancing
    leaves whole, so ``mask`` is not read. Otherwise it is the mean
    position-wise cross-entropy over the positions ``mask`` did not reveal,
    and 0.0 when it revealed every one. Without ``grad`` the same value comes
    back with None, and neither posteriors nor a softmax gradient are built;
    a target CTC cannot align then gives inf instead of raising.
    """
    if ctc:
        if grad:
            return ctc_loss_logits(logits, labels)
        return -ctc_forward(log_softmax(logits), labels), None
    target = np.asarray(labels, dtype=np.int64)
    if logits.shape[0] != len(target):
        raise ModelError(f"decoder length {logits.shape[0]} != target length {len(target)}")
    keep = np.ones(len(target), dtype=bool)
    if mask is not None and len(mask) > 0:
        if mask.target_len != len(target):
            raise ModelError("glance mask does not cover the target")
        keep[np.asarray(mask.positions, dtype=np.int64)] = False
    rows = np.nonzero(keep)[0]
    if len(rows) == 0:
        return 0.0, np.zeros_like(logits) if grad else None
    return _ce_rows(logits, target, rows, grad)


def length_target_class(config: ModelConfig, src_len: int, tgt_len: int) -> tuple[int, bool]:
    """The length head's class for an observed length, and whether that
    length fell outside the class range and was clamped into it."""
    if config.length_mode == "offset":
        raw, top = tgt_len - src_len + config.length_bound, 2 * config.length_bound
    else:
        raw, top = tgt_len, config.max_abs_len - 1
    cls = min(max(raw, 0), top)
    return cls, cls != raw


def loss_length(length_logits: np.ndarray | None, cls: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one sentence's length-head logits against a
    :func:`length_target_class` class."""
    if length_logits is None:
        raise ModelError("model has no length head")
    loss, d = _ce_rows(length_logits[None, :], np.array([cls]), np.array([0]))
    return loss, d[0]


def predicted_length(config: ModelConfig, src_len: int, length_logits: np.ndarray) -> int:
    cls = int(np.argmax(length_logits))
    if config.length_mode == "offset":
        return max(0, src_len + cls - config.length_bound)
    return cls


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode(
    params: Params,
    config: ModelConfig,
    src_ids: Sequence[int],
    counter: ForwardCounter | None = None,
) -> tuple[int, ...]:
    """Greedy decoding in any mode; ``counter`` ticks once per decoder pass.

    An autoregressive config runs :func:`decode_at`'s cached loop. Otherwise
    one parallel pass collapses the argmax string (alignment mode) or reads
    the argmax at each predicted-length position (length mode).
    """
    if config.autoregressive:
        return decode_at(params, config, src_ids, counter=counter)
    enc_out, length_logits, _ = _encode(params, config, src_ids, train=False, rng=None)
    if config.mode == "ctc":
        T = len(src_ids) * int(config.upsample)
    else:
        T = predicted_length(config, len(src_ids), length_logits)
        if T == 0:
            return ()
    base, _ = decoder_inputs(params, config, src_ids, T)
    logits, _ = _decode_stack(params, config, enc_out, base, train=False, rng=None)
    if counter is not None:
        counter.tick()
    ids = np.argmax(logits[-1], axis=1)
    if config.mode == "ctc":
        return collapse(ids, BLANK_ID)
    return tuple(int(i) for i in ids)


def decode_at(
    params: Params,
    config: ModelConfig,
    src_ids: Sequence[int],
    max_extra: int = 8,
    counter: ForwardCounter | None = None,
) -> tuple[int, ...]:
    """Greedy left-to-right decoding; stops at <eos> or 2J + max_extra tokens.

    The encoder runs once, and each layer's cross-attention keys and values
    are projected once per sentence. Every emitted token then costs one
    decoder pass over the newest position only: its self-attention key and
    value join a per-layer cache, and it attends over every cached row, which
    is causal without a mask. Logits are computed for that row alone. With no
    layer norm this equals the teacher-forced :func:`forward` up to rounding.
    The pass that produces <eos> is counted too.
    """
    if not config.autoregressive:
        raise ModelError("decode_at needs an autoregressive config")
    enc_out, _, _ = _encode(params, config, src_ids, train=False, rng=None)
    E, pos = params["emb"], params["pos_dec"]
    d = config.d_model
    scale = 1.0 / math.sqrt(d)
    cap = 2 * len(src_ids) + max_extra
    # per layer: the scaled query and the key/value projections as one
    # matrix, an empty key/value cache, the cross-attention query folded into
    # the projected encoder keys, the projected encoder values, and the FFN
    layers = [
        (np.hstack([params[f"dec{l}_sq"] * scale, params[f"dec{l}_sk"], params[f"dec{l}_sv"]]),
         np.empty((config.max_len, d)), np.empty((config.max_len, d)),
         (params[f"dec{l}_cq"] * scale) @ (enc_out @ params[f"dec{l}_ck"]).T,
         enc_out @ params[f"dec{l}_cv"],
         params[f"dec{l}_W"], params[f"dec{l}_b"])
        for l in range(config.dec_layers)
    ]
    prev = BOS_ID
    out: list[int] = []
    for t in range(cap):
        if t == config.max_len:
            raise ModelError(f"decoder length {t + 1} exceeds max_len={config.max_len}")
        if counter is not None:
            counter.tick()
        x = E[prev] + pos[t]
        for Wqkv, keys, values, Wc, cv, W, b in layers:
            qkv = x @ Wqkv
            keys[t] = qkv[d:2 * d]
            values[t] = qkv[2 * d:]
            x = x + _attend(keys[:t + 1] @ qkv[:d], values[:t + 1])
            x = x + _attend(x @ Wc, cv)
            x = x + _act(config.activation, x @ W + b)
        prev = int(np.argmax(E @ x))
        if prev == EOS_ID:
            break
        out.append(prev)
    return tuple(out)
