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

Batch axis. Everything runs on a batch: sources and decoder inputs padded
with PAD_ID to the longest row, (B, T_max, d) activations. :func:`forward`
also accepts one sentence, and :func:`decode` and :func:`decode_at` take
one; each runs it as a batch of one. Weight gradients sum over every row
of ``reshape(-1, d)``. The padding rule:

- attention hides padded keys: encoder positions past a row's source
  length in cross-attention, decoder positions past its decoder length in
  self-attention (with the causal mask in autoregressive mode). The mask
  is None when every row has the same length, so a batch of one runs no
  mask at all;
- the length head mean-pools a row's real source positions only;
- padded positions still compute (finite) values, but their logit
  gradient is zero, so they add nothing to any parameter gradient;
- dropout draws one mask of the padded (B, T_max, d) shape per dropout
  site per call, padded positions included, in the order of the layers.

A padded row's logits equal the row run alone up to rounding.

Losses come back with gradients in logit space. One token loss,
:func:`token_loss`, serves every mode and scores one decoder layer's padded
logits; training applies it to the last layer, or averages it over every
layer for deep supervision, and length-mode models add :func:`loss_length`.
Both cross-entropies share one softmax over the batch; the CTC loss runs
its lattice row by row.
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
    """A batch of token-id rows padded with PAD_ID: (B, L_max) ids, (B,)
    lengths and a (B, L_max) mask of the real positions, which is None when
    every row has the same length."""

    ids: np.ndarray
    lens: np.ndarray
    real: np.ndarray | None


def _real(lens: Sequence[int]) -> np.ndarray | None:
    """(B, max) mask of the real positions of rows of ``lens``; None if all are equal."""
    if min(lens) == max(lens):
        return None
    return np.arange(max(lens)) < np.asarray(lens)[:, None]


def _rows(seqs: Sequence[Sequence[int]]) -> _Rows:
    lens = [len(s) for s in seqs]
    if not lens:
        raise ModelError("empty batch")
    real = _real(lens)
    if real is None:
        ids = np.array(seqs, dtype=np.int64)
    else:
        ids = np.full(real.shape, PAD_ID, dtype=np.int64)
        for b, s in enumerate(seqs):
            ids[b, :len(s)] = s
    return _Rows(ids, np.array(lens, dtype=np.int64), real)


def _flat(a: np.ndarray) -> np.ndarray:
    """(..., n) as (rows, n): every position of every batch row is one row."""
    return a.reshape(-1, a.shape[-1])


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

def _decoder_inputs(
    params: Params,
    config: ModelConfig,
    src: _Rows,
    decoder_len: Sequence[int],
    glance: Sequence[GlanceMask | None] | None,
) -> tuple[np.ndarray, dict]:
    """(B, T_max, d) pre-positional decoder inputs for the configured strategy.

    ``decoder_len`` and ``glance`` hold one length and one mask (or None)
    per row of ``src``. A padded position gets an input as if its row went
    on: ``uniform_copy`` copies the row's last source token there. Glanced
    positions are overwritten with the ground-truth token embeddings
    verbatim, so the revealed rows are exact copies of embedding rows.
    """
    E = params["emb"]
    T = max(decoder_len)
    cache: dict = {"strategy": config.decoder_input}
    if config.decoder_input == "unk":
        base = np.tile(E[UNK_ID], (len(src.ids), T, 1))
    elif config.decoder_input == "uniform_copy":
        J = src.lens[:, None]
        idx = np.floor(np.arange(T) * J / np.asarray(decoder_len)[:, None]).astype(np.int64)
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
        _reveal(base, glance, decoder_len, E, cache)
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
        where = (rows, pos)
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

def _encode(params, config: ModelConfig, src_ids, train, rng):
    src = _rows(src_ids)
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

    ``src_ids`` is a batch of sentences and ``decoder_len`` one length per
    row; each layer's logits are (B, T_max, V) and the length logits
    (B, C), padded as the module docstring says. ``prev_ids`` (one row per
    sentence) replaces the strategy inputs with token embeddings in
    autoregressive mode; ``glance`` (one mask or None per sentence)
    overwrites revealed positions. One sentence, with an int
    ``decoder_len`` and its own ``prev_ids`` and ``glance``, runs as a
    batch of one, and its logits come back as (T, V) and (C,).
    """
    single = isinstance(decoder_len, (int, np.integer))
    if single:
        src_ids, decoder_len = [src_ids], [decoder_len]
        prev_ids = None if prev_ids is None else [prev_ids]
        glance = None if glance is None else [glance]
    elif len(decoder_len) != len(src_ids):
        raise ModelError(f"{len(decoder_len)} decoder lengths for {len(src_ids)} sources")
    enc_out, length_logits, enc_cache = _encode(params, config, src_ids, train, rng)
    src = enc_cache["src"]
    if config.autoregressive:
        prev = None if prev_ids is None else _rows(prev_ids)
        if prev is None or not np.array_equal(prev.lens, decoder_len):
            raise ModelError("autoregressive forward needs prev_ids matching decoder_len")
        if glance is not None:
            raise ModelError("glancing applies to parallel decoding only")
        base = params["emb"][prev.ids]
        in_cache: dict = {"strategy": "tokens", "prev": prev.ids}
    else:
        base, in_cache = _decoder_inputs(params, config, src, decoder_len, glance)
    logits, dec_cache = _decode_stack(params, config, enc_out, base, train, rng, src.real,
                                      _real(decoder_len))
    cache = {
        "config": config,
        "enc": enc_cache,
        "enc_out": enc_out,
        "input": in_cache,
        "base": base,
        "dec": dec_cache,
    }
    if single:
        logits = [x[0] for x in logits]
        length_logits = None if length_logits is None else length_logits[0]
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
            dl = dl.reshape(*hidden[l].shape[:-1], -1)  # one sentence's (T, V) as (1, T, V)
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
    grads["pos_dec"][:dx0.shape[-2]] += dx0.sum(axis=0)
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
        dlength = dlength.reshape(len(src.ids), -1)  # one sentence's (C,) as (1, C)
        grads["len_W"] += enc["pooled"].T @ dlength
        grads["len_b"] += dlength.sum(axis=0)
        dpool = ((dlength @ params["len_W"].T) / src.lens[:, None])[:, None, :]
        denc += dpool if src.real is None else dpool * src.real[..., None]

    dx = denc
    for l in range(config.enc_layers - 1, -1, -1):
        dx = _ffn_back(params, config, f"enc{l}_", dx, enc["layers"][l], grads)
    dx0 = _drop_back(dx, enc["in_mask"])
    grads["pos_enc"][:dx0.shape[-2]] += dx0.sum(axis=0)
    np.add.at(dE, src.ids.ravel(), _flat(dx0))
    return grads


# ---------------------------------------------------------------------------
# Loss heads (values plus logit-space gradients)
# ---------------------------------------------------------------------------

def _cross_entropy(logits: np.ndarray, targets: np.ndarray, keep: np.ndarray, grad: bool):
    """Per-row mean cross-entropy of (B, T, V) logits over the ``keep`` positions.

    ``targets`` and ``keep`` are (B, T). One log-softmax serves the batch.
    A row's value is the sum of its own kept picks over their count, or 0.0
    when it keeps none. With ``grad``, the logit gradient is (softmax -
    one-hot) / count at kept positions and exactly 0 elsewhere.
    """
    logp = log_softmax(logits)
    b, t = np.nonzero(keep)
    tgt = targets[b, t]
    picks = logp[b, t, tgt]
    counts = keep.sum(axis=1)
    ends = np.cumsum(counts).tolist()
    # each row sums its own compacted picks, which a sum over the padded row
    # with zeros in place of dropped picks would regroup
    values = [-float(picks[e - n:e].sum()) / n if n else 0.0
              for n, e in zip(counts.tolist(), ends)]
    if not grad:
        return values, None
    probs = np.exp(logp[b, t])
    probs[np.arange(len(tgt)), tgt] -= 1.0
    probs /= counts[b][:, None]
    dlogits = np.zeros(logp.shape)
    dlogits[b, t] = probs
    return values, dlogits


def token_loss(
    logits: np.ndarray,
    labels: Sequence[Sequence[int]],
    lens: Sequence[int],
    ctc: bool = False,
    mask: Sequence[GlanceMask | None] | None = None,
    grad: bool = True,
) -> tuple[list[float], np.ndarray | None]:
    """One decoder layer's token loss and, with ``grad``, its logit gradient.

    Padded (B, T_max, V) ``logits`` with one target in ``labels``, one
    decoder length in ``lens`` and one glance mask (or None) in ``mask`` per
    row; the values are a list of floats and the gradient (B, T_max, V),
    exactly 0 on padded positions.

    With ``ctc`` it is the negative log alignment marginal, which glancing
    leaves whole, so ``mask`` is not read; each row runs its own lattice on
    its unpadded slice. Otherwise it is the mean position-wise cross-entropy
    over the positions ``mask`` did not reveal, one softmax for the batch,
    and 0.0 for a row whose every position was revealed. Without ``grad``
    the same values come back with None, and neither posteriors nor a
    softmax gradient are built; a target CTC cannot align then gives inf
    instead of raising.
    """
    if len(lens) != len(logits) or len(labels) != len(logits):
        raise ModelError("a batch needs one target and one decoder length per row")
    if mask is not None and len(mask) != len(logits):
        raise ModelError(f"{len(mask)} glance masks for {len(logits)} rows")
    if max(lens) > logits.shape[1]:
        raise ModelError(f"decoder length {max(lens)} exceeds the padded length {logits.shape[1]}")
    masks = [None] * len(logits) if mask is None else mask
    if ctc:
        values = []
        dlogits = np.zeros(logits.shape) if grad else None
        for b, (T, target) in enumerate(zip(lens, labels)):
            if grad:
                value, dlogits[b, :T] = ctc_loss_logits(logits[b, :T], target)
            else:
                value = -ctc_forward(log_softmax(logits[b, :T]), target)
            values.append(value)
    else:
        targets = np.zeros(logits.shape[:2], dtype=np.int64)
        keep = np.zeros(logits.shape[:2], dtype=bool)
        for b, (T, target, m) in enumerate(zip(lens, labels, masks)):
            if T != len(target):
                raise ModelError(f"decoder length {T} != target length {len(target)}")
            targets[b, :T] = target
            keep[b, :T] = True
            if m is not None and len(m) > 0:
                if m.target_len != T:
                    raise ModelError("glance mask does not cover the target")
                keep[b, list(m.positions)] = False
        values, dlogits = _cross_entropy(logits, targets, keep, grad)
    return values, dlogits


def length_target_class(config: ModelConfig, src_len: int, tgt_len: int) -> tuple[int, bool]:
    """The length head's class for an observed length, and whether that
    length fell outside the class range and was clamped into it."""
    if config.length_mode == "offset":
        raw, top = tgt_len - src_len + config.length_bound, 2 * config.length_bound
    else:
        raw, top = tgt_len, config.max_abs_len - 1
    cls = min(max(raw, 0), top)
    return cls, cls != raw


def loss_length(
    length_logits: np.ndarray | None,
    cls: Sequence[int],
    grad: bool = True,
) -> tuple[list[float], np.ndarray | None]:
    """Cross-entropy of a batch's (B, C) length-head logits against one
    :func:`length_target_class` class per row, through the same softmax as
    :func:`token_loss`: a list of values and, with ``grad``, the (B, C)
    logit gradient."""
    if length_logits is None:
        raise ModelError("model has no length head")
    if len(cls) != len(length_logits):
        raise ModelError(f"{len(cls)} length classes for {len(length_logits)} rows")
    classes = np.array(cls, dtype=np.int64)
    keep = np.ones((len(classes), 1), dtype=bool)
    values, dlogits = _cross_entropy(length_logits[:, None, :], classes[:, None], keep, grad)
    return values, None if dlogits is None else dlogits[:, 0]


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
    enc_out, length_logits, enc_cache = _encode(params, config, [src_ids], train=False, rng=None)
    if config.mode == "ctc":
        T = len(src_ids) * int(config.upsample)
    else:
        T = predicted_length(config, len(src_ids), length_logits[0])
        if T == 0:
            return ()
    base, _ = _decoder_inputs(params, config, enc_cache["src"], [T], None)
    logits, _ = _decode_stack(params, config, enc_out, base, train=False, rng=None)
    if counter is not None:
        counter.tick()
    ids = np.argmax(logits[-1][0], axis=1)
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
    enc_out = _encode(params, config, [src_ids], train=False, rng=None)[0][0]  # (J, d)
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
