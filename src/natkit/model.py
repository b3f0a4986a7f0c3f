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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from natkit.corpus import BLANK_ID, BOS_ID, EOS_ID, UNK_ID
from natkit.ctc import collapse, ctc_loss_logits, log_softmax
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
    """Per-layer decoder states plus everything a loss head consumes."""

    hidden: list[np.ndarray]
    logits: list[np.ndarray]
    encoder_out: np.ndarray
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


def _attn_forward(x, mem, Wq, Wk, Wv, causal: bool):
    scale = 1.0 / math.sqrt(x.shape[1])
    q, k, v = x @ Wq, mem @ Wk, mem @ Wv
    scores = (q @ k.T) * scale
    if causal:
        scores = np.where(np.tril(np.ones_like(scores, dtype=bool)), scores, -np.inf)
    A = _softmax_rows(scores)
    return A @ v, (x, mem, q, k, v, A, scale)


def _attn_backward(dout, cache, Wq, Wk, Wv):
    x, mem, q, k, v, A, scale = cache
    dA = dout @ v.T
    dv = A.T @ dout
    dS = _softmax_back(A, dA)
    dq = (dS @ k) * scale
    dk = (dS.T @ q) * scale
    dWq = x.T @ dq
    dWk = mem.T @ dk
    dWv = mem.T @ dv
    dx = dq @ Wq.T
    dmem = dk @ Wk.T + dv @ Wv.T
    return dx, dmem, dWq, dWk, dWv


# ---------------------------------------------------------------------------
# Decoder inputs
# ---------------------------------------------------------------------------

def decoder_inputs(
    params: Params,
    config: ModelConfig,
    src_ids: Sequence[int],
    decoder_len: int,
    glance: GlanceMask | None = None,
) -> tuple[np.ndarray, dict]:
    """Pre-positional decoder input rows for the configured strategy.

    Glanced positions are overwritten with the ground-truth token embeddings
    verbatim, so the revealed rows are exact copies of embedding rows.
    """
    E = params["emb"]
    J, T, d = len(src_ids), decoder_len, config.d_model
    cache: dict = {"strategy": config.decoder_input, "src": tuple(src_ids), "T": T}
    if config.decoder_input == "unk":
        base = np.tile(E[UNK_ID], (T, 1))
    elif config.decoder_input == "uniform_copy":
        idx = np.floor(np.arange(T) * J / T).astype(np.int64)
        base = E[np.asarray(src_ids, dtype=np.int64)[idx]]
        cache["idx"] = idx
    else:  # soft_copy
        tau = float(params["soft_tau"])
        if tau <= 0:
            raise ModelError(f"soft_copy temperature must stay positive, got {tau}")
        dist = np.abs(np.arange(T)[:, None] - np.arange(J)[None, :]).astype(np.float64)
        w = _softmax_rows(-dist / tau)
        src_emb = E[np.asarray(src_ids, dtype=np.int64)]
        base = w @ src_emb
        cache.update(w=w, dist=dist, tau=tau, src_emb=src_emb)
    if glance is not None and len(glance) > 0:
        if glance.target_len != T:
            raise ModelError(f"glance mask covers {glance.target_len} positions, decoder has {T}")
        base = base.copy()
        pos = np.asarray(glance.positions, dtype=np.int64)
        base[pos] = E[np.asarray(glance.revealed, dtype=np.int64)]
        cache["glance"] = (pos, np.asarray(glance.revealed, dtype=np.int64))
    return base, cache


def _decoder_inputs_backward(dbase: np.ndarray, cache: dict, dE: np.ndarray, dparams: Params) -> None:
    dbase = dbase.copy()
    if "glance" in cache:
        pos, revealed = cache["glance"]
        np.add.at(dE, revealed, dbase[pos])
        dbase[pos] = 0.0
    src = np.asarray(cache["src"], dtype=np.int64)
    if cache["strategy"] == "unk":
        dE[UNK_ID] += dbase.sum(axis=0)
    elif cache["strategy"] == "uniform_copy":
        np.add.at(dE, src[cache["idx"]], dbase)
    else:
        w, dist, tau, src_emb = cache["w"], cache["dist"], cache["tau"], cache["src_emb"]
        np.add.at(dE, src, w.T @ dbase)
        dw = dbase @ src_emb.T
        ds = _softmax_back(w, dw)
        dparams["soft_tau"] += np.array((ds * dist).sum() / tau**2)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def _encode(params, config: ModelConfig, src_ids, train, rng):
    J = len(src_ids)
    if J < 1:
        raise ModelError("empty source")
    if J > config.max_len:
        raise ModelError(f"source of length {J} exceeds max_len={config.max_len}")
    E = params["emb"]
    src = np.asarray(src_ids, dtype=np.int64)
    x0 = E[src] + params["pos_enc"][:J]
    x, in_mask = _dropout(x0, config.dropout, train, rng)
    layers = []
    for l in range(config.enc_layers):
        z = x @ params[f"enc{l}_W"] + params[f"enc{l}_b"]
        a = _act(config.activation, z)
        a_d, mask = _dropout(a, config.dropout, train, rng)
        layers.append({"x_in": x, "z": z, "mask": mask})
        x = x + a_d
    cache = {"src": src, "in_mask": in_mask, "layers": layers}
    length_logits = None
    if config.mode == "length":
        pooled = x.mean(axis=0)
        length_logits = pooled @ params["len_W"] + params["len_b"]
        cache["pooled"] = pooled
    return x, length_logits, cache


def _decode_stack(params, config: ModelConfig, enc_out, base, train, rng, counter):
    T = base.shape[0]
    if T > config.max_len:
        raise ModelError(f"decoder length {T} exceeds max_len={config.max_len}")
    if counter is not None:
        counter.tick()
    E = params["emb"]
    x0 = base + params["pos_dec"][:T]
    x, in_mask = _dropout(x0, config.dropout, train, rng)
    hidden, logits, layers = [], [], []
    for l in range(config.dec_layers):
        entry: dict = {}
        if config.dec_self_attention[l]:
            o, sc = _attn_forward(
                x, x, params[f"dec{l}_sq"], params[f"dec{l}_sk"], params[f"dec{l}_sv"],
                causal=config.autoregressive,
            )
            o_d, mask = _dropout(o, config.dropout, train, rng)
            entry["self"] = (sc, mask)
            x = x + o_d
        o, cc = _attn_forward(
            x, enc_out, params[f"dec{l}_cq"], params[f"dec{l}_ck"], params[f"dec{l}_cv"],
            causal=False,
        )
        o_d, mask = _dropout(o, config.dropout, train, rng)
        entry["cross"] = (cc, mask)
        x = x + o_d
        z = x @ params[f"dec{l}_W"] + params[f"dec{l}_b"]
        a = _act(config.activation, z)
        a_d, mask = _dropout(a, config.dropout, train, rng)
        entry["ffn"] = {"x_in": x, "z": z, "mask": mask}
        x = x + a_d
        layers.append(entry)
        hidden.append(x)
        logits.append(x @ E.T)
    cache = {"in_mask": in_mask, "layers": layers, "hidden": hidden}
    return hidden, logits, cache


def forward(
    params: Params,
    config: ModelConfig,
    src_ids: Sequence[int],
    decoder_len: int,
    *,
    prev_ids: Sequence[int] | None = None,
    glance: GlanceMask | None = None,
    train: bool = False,
    rng: np.random.Generator | None = None,
    counter: ForwardCounter | None = None,
) -> LayerStates:
    """Full pass: encoder, length head (length mode), decoder stack, logits.

    ``prev_ids`` replaces the strategy inputs with token embeddings in
    autoregressive mode; ``glance`` overwrites revealed positions.
    """
    enc_out, length_logits, enc_cache = _encode(params, config, src_ids, train, rng)
    if config.autoregressive:
        if prev_ids is None or len(prev_ids) != decoder_len:
            raise ModelError("autoregressive forward needs prev_ids matching decoder_len")
        prev = np.asarray(prev_ids, dtype=np.int64)
        base = params["emb"][prev]
        in_cache: dict = {"strategy": "tokens", "prev": prev, "T": decoder_len}
        if glance is not None:
            raise ModelError("glancing applies to parallel decoding only")
    else:
        base, in_cache = decoder_inputs(params, config, src_ids, decoder_len, glance)
    hidden, logits, dec_cache = _decode_stack(params, config, enc_out, base, train, rng, counter)
    cache = {
        "config": config,
        "enc": enc_cache,
        "enc_out": enc_out,
        "input": in_cache,
        "base": base,
        "dec": dec_cache,
    }
    return LayerStates(hidden=hidden, logits=logits, encoder_out=enc_out,
                       length_logits=length_logits, cache=cache)


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
    layers); ``dlength`` is the gradient at the length-head logits.
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
    T = cache["base"].shape[0]
    dx = np.zeros((T, config.d_model))
    denc = np.zeros_like(cache["enc_out"])
    for l in range(config.dec_layers - 1, -1, -1):
        dl = dlogits[l]
        if dl is not None:
            dE += dl.T @ hidden[l]
            dx = dx + dl @ E
        entry = dec["layers"][l]
        ffn = entry["ffn"]
        da = _drop_back(dx, ffn["mask"])
        dz = da * _act_grad(config.activation, ffn["z"])
        grads[f"dec{l}_W"] += ffn["x_in"].T @ dz
        grads[f"dec{l}_b"] += dz.sum(axis=0)
        dx = dx + dz @ params[f"dec{l}_W"].T
        cc, mask = entry["cross"]
        do = _drop_back(dx, mask)
        dxa, dmem, dWq, dWk, dWv = _attn_backward(do, cc, params[f"dec{l}_cq"], params[f"dec{l}_ck"], params[f"dec{l}_cv"])
        grads[f"dec{l}_cq"] += dWq
        grads[f"dec{l}_ck"] += dWk
        grads[f"dec{l}_cv"] += dWv
        denc += dmem
        dx = dx + dxa
        if "self" in entry:
            sc, mask = entry["self"]
            do = _drop_back(dx, mask)
            dxa, dmem_self, dWq, dWk, dWv = _attn_backward(do, sc, params[f"dec{l}_sq"], params[f"dec{l}_sk"], params[f"dec{l}_sv"])
            grads[f"dec{l}_sq"] += dWq
            grads[f"dec{l}_sk"] += dWk
            grads[f"dec{l}_sv"] += dWv
            dx = dx + dxa + dmem_self

    dx0 = _drop_back(dx, dec["in_mask"])
    grads["pos_dec"][:T] += dx0
    in_cache = cache["input"]
    if in_cache["strategy"] == "tokens":
        np.add.at(dE, in_cache["prev"], dx0)
    else:
        _decoder_inputs_backward(dx0, in_cache, dE, grads)

    if dlength is not None:
        if config.mode != "length":
            raise ModelError("length gradient supplied but the model has no length head")
        pooled = cache["enc"]["pooled"]
        grads["len_W"] += np.outer(pooled, dlength)
        grads["len_b"] += dlength
        denc += np.tile(params["len_W"] @ dlength, (denc.shape[0], 1)) / denc.shape[0]

    enc = cache["enc"]
    dx = denc
    for l in range(config.enc_layers - 1, -1, -1):
        layer = enc["layers"][l]
        da = _drop_back(dx, layer["mask"])
        dz = da * _act_grad(config.activation, layer["z"])
        grads[f"enc{l}_W"] += layer["x_in"].T @ dz
        grads[f"enc{l}_b"] += dz.sum(axis=0)
        dx = dx + dz @ params[f"enc{l}_W"].T
    dx0 = _drop_back(dx, enc["in_mask"])
    J = len(enc["src"])
    grads["pos_enc"][:J] += dx0
    np.add.at(dE, enc["src"], dx0)
    return grads


# ---------------------------------------------------------------------------
# Loss heads (values plus logit-space gradients)
# ---------------------------------------------------------------------------

def _ce_rows(logits: np.ndarray, targets: np.ndarray, rows: np.ndarray):
    """Mean cross-entropy over the selected rows; gradient matches."""
    logp = log_softmax(logits)
    n = len(rows)
    loss = -float(logp[rows, targets[rows]].sum()) / n
    dlogits = np.zeros_like(logits)
    probs = np.exp(logp[rows])
    probs[np.arange(n), targets[rows]] -= 1.0
    dlogits[rows] = probs / n
    return loss, dlogits


def loss_nat(
    states: LayerStates,
    target: Sequence[int],
    mask: GlanceMask | None = None,
    layer: int = -1,
) -> tuple[float, np.ndarray]:
    """Position-wise cross-entropy; glanced positions are excluded."""
    logits = states.logits[layer]
    target = np.asarray(target, dtype=np.int64)
    if logits.shape[0] != len(target):
        raise ModelError(f"decoder length {logits.shape[0]} != target length {len(target)}")
    keep = np.ones(len(target), dtype=bool)
    if mask is not None and len(mask) > 0:
        if mask.target_len != len(target):
            raise ModelError("glance mask does not cover the target")
        keep[np.asarray(mask.positions, dtype=np.int64)] = False
    rows = np.nonzero(keep)[0]
    if len(rows) == 0:
        return 0.0, np.zeros_like(logits)
    return _ce_rows(logits, target, rows)


def loss_ctc(
    states: LayerStates,
    target: Sequence[int],
    blank: int = BLANK_ID,
    layer: int = -1,
) -> tuple[float, np.ndarray]:
    """Negative log alignment marginal on the layer's logits."""
    return ctc_loss_logits(states.logits[layer], target, blank)


def loss_deep_supervision(
    states: LayerStates,
    target: Sequence[int],
    base: str = "nat",
    mask: GlanceMask | None = None,
    blank: int = BLANK_ID,
) -> tuple[float, list[np.ndarray]]:
    """Mean of the base loss applied at every decoder layer."""
    L = len(states.logits)
    total = 0.0
    dlogits: list[np.ndarray] = []
    for l in range(L):
        if base == "nat":
            val, dl = loss_nat(states, target, mask=mask, layer=l)
        elif base == "ctc":
            val, dl = loss_ctc(states, target, blank=blank, layer=l)
        else:
            raise ModelError(f"unknown base loss {base!r}")
        total += val
        dlogits.append(dl / L)
    return total / L, dlogits


def length_target_class(config: ModelConfig, src_len: int, tgt_len: int) -> int:
    if config.length_mode == "offset":
        off = int(np.clip(tgt_len - src_len, -config.length_bound, config.length_bound))
        return off + config.length_bound
    return int(np.clip(tgt_len, 0, config.max_abs_len - 1))


def length_class_clamped(config: ModelConfig, src_len: int, tgt_len: int) -> bool:
    """True when the training length falls outside the head's class range."""
    if config.length_mode == "offset":
        return abs(tgt_len - src_len) > config.length_bound
    return tgt_len > config.max_abs_len - 1


def loss_length(
    states: LayerStates,
    config: ModelConfig,
    src_len: int,
    tgt_len: int,
) -> tuple[float, np.ndarray]:
    """Cross-entropy of the length head against the observed length."""
    if states.length_logits is None:
        raise ModelError("model has no length head")
    logits = states.length_logits[None, :]
    cls = np.array([length_target_class(config, src_len, tgt_len)])
    loss, d = _ce_rows(logits, cls, np.array([0]))
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
    forced_length: int | None = None,
) -> tuple[int, ...]:
    """One parallel pass: collapse the argmax string (alignment mode) or read
    the argmax at each of the predicted-length positions (length mode).

    ``forced_length`` overrides the predicted length in length mode.
    """
    if config.autoregressive:
        raise ModelError("use decode_at for the autoregressive baseline")
    enc_out, length_logits, _ = _encode(params, config, src_ids, train=False, rng=None)
    if config.mode == "ctc":
        T = len(src_ids) * int(config.upsample)
    else:
        if forced_length is not None:
            if forced_length < 0:
                raise ModelError("forced_length must be non-negative")
            T = forced_length
        else:
            T = predicted_length(config, len(src_ids), length_logits)
        if T == 0:
            return ()
    base, _ = decoder_inputs(params, config, src_ids, T)
    _, logits, _ = _decode_stack(params, config, enc_out, base, train=False, rng=None, counter=counter)
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
