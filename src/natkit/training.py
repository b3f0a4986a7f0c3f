"""Optimization: Adam, the warmup schedule, the two-pass training step.

The training step is pure given (params, batch, step, seed): per-step RNG is
derived from the pair, and a batch runs as one padded (B, T, d) forward and
one backward, so reruns are bit-identical single threaded. The
cross-entropy and length heads run on the batch: one softmax per supervised
layer over the padded (B, T, V) logits, with padded and revealed positions
masked out. The CTC lattice and the glance pass's Viterbi still run per row
on each row's unpadded slice, because a batched lattice (ROADMAP item 1)
changes what the benchmark's tracer times as one call. Every head leaves a
zero logit gradient on padded positions, and a row's loss equals its pair's
loss run alone up to rounding.

The objective is one recipe whose parts stack. Each decoder layer has one
token loss, :func:`natkit.model.token_loss`: the CTC marginal in alignment
mode, position-wise cross-entropy otherwise. Deep supervision averages that
loss over every decoder layer; without it only the last layer is
supervised. Length-mode models add the weighted length-head loss.

Glancing runs as two passes, at the ratio ``TrainConfig.glance_ratio(step)``.
The first pass decodes the whole batch in eval mode without gradients; each
row's prediction picks how many of its target positions to reveal, drawn
row by row in batch order. It runs whenever glancing is on, at ratio 0
too, so that every step logs its Hamming distances. The second pass trains
with the revealed embeddings substituted into the decoder input, and every
supervised layer sees the same reveals. Alignment-mode models glance in
alignment space and keep the full marginal loss; other models exclude
revealed positions from the position-wise loss.

Validation runs the same batched pass in eval mode, in batches of
``batch_size`` in order, which computes loss values only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from natkit.corpus import BOS_ID, EOS_ID, ParallelCorpus, TokenSeq
from natkit.ctc import log_softmax, min_alignment_len
from natkit.glancing import glance_count, glance_inputs_ctc, hamming, sample_glance
from natkit.model import (
    ModelConfig,
    Params,
    average_params,
    backward,
    forward,
    init_params,
    length_target_class,
    loss_length,
    token_loss,
    zero_grads,
)


class DivergedError(RuntimeError):
    """Training loss stopped being finite."""

    def __init__(self, step: int, value: float):
        super().__init__(f"training diverged at step {step} (loss = {value!r})")
        self.step = step
        self.value = value


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 400
    batch_size: int = 16
    lr: float = 5e-3
    warmup: int = 100
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-8
    length_loss_weight: float = 0.1
    glat_start: float | None = None   # enables glancing when set
    glat_slope: float = 0.2
    eval_every: int = 50
    keep_best: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1 or self.batch_size < 1 or self.warmup < 1:
            raise ValueError("steps, batch_size and warmup must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("Adam epsilon must be positive")
        if self.keep_best < 1:
            raise ValueError("keep_best must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.glat_start is not None:
            if not 0.0 <= self.glat_start <= 1.0:
                raise ValueError(f"glat_start must be in [0, 1], got {self.glat_start}")
            if not 0.0 <= self.glat_slope <= self.glat_start:
                raise ValueError(
                    f"glat_slope must be in [0, glat_start = {self.glat_start}], so that the "
                    f"glancing ratio stays >= 0 by the last step, got {self.glat_slope}"
                )

    def glance_ratio(self, step: int) -> float | None:
        """The glancing ratio at ``step``; None when glancing is off.

        It falls linearly from ``glat_start`` by ``glat_slope`` over
        ``steps`` steps and holds there after the last step.
        """
        if self.glat_start is None:
            return None
        return self.glat_start - self.glat_slope * (min(step, self.steps) / self.steps)


@dataclass
class AdamState:
    m: Params
    v: Params
    t: int = 0

    @classmethod
    def zeros(cls, params: Params) -> "AdamState":
        return cls(m=zero_grads(params), v=zero_grads(params), t=0)


def lr_at(step: int, base: float, warmup: int) -> float:
    """Inverse-sqrt decay with linear warmup; peak = base at step = warmup."""
    if step < 1:
        raise ValueError("schedule steps are 1-based")
    return base * min(step / warmup, math.sqrt(warmup / step))


def adam_update(
    params: Params,
    grads: Params,
    state: AdamState,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> tuple[Params, AdamState]:
    t = state.t + 1
    new_params: Params = {}
    new_m: Params = {}
    new_v: Params = {}
    for k, p in params.items():
        g = grads[k]
        m = beta1 * state.m[k] + (1 - beta1) * g
        v = beta2 * state.v[k] + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        new_params[k] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[k] = m
        new_v[k] = v
    return new_params, AdamState(m=new_m, v=new_v, t=t)


# ---------------------------------------------------------------------------
# The batched pass
# ---------------------------------------------------------------------------

@dataclass
class BatchPass:
    """One padded pass over a batch: per-row values for the pairs that
    survived the skip rule, in batch order, and their summed gradients."""

    values: list[float]
    components: list[dict[str, float]]
    grads: Params | None    # None in eval mode or when every pair was skipped
    skipped: int
    revealed: int = 0       # glanced positions, summed over the rows
    hamming: int = 0        # first-pass Hamming distances, summed over the rows


def _batch_pass(
    params: Params,
    config: ModelConfig,
    batch: Sequence[tuple[TokenSeq, TokenSeq]],
    hyper: TrainConfig,
    lam: float | None,
    rng: np.random.Generator | None,
    train: bool,
) -> BatchPass:
    """Losses, loss components and summed parameter gradients of a batch.

    A pair is skipped when its source or its decoder length exceeds
    ``max_len``, when CTC cannot align the target at the decoder length, or
    when a length-mode target is empty. The others run as one padded
    forward (two with glancing) and one backward. The cross-entropy and
    length heads score the whole batch at once; the CTC lattice and the
    glance sampling run row by row, in batch order. Padded positions get a
    zero logit gradient. In eval mode (``train`` False) only values are
    computed.
    """
    mode = config.mode
    ctc = mode == "ctc"
    rows = []  # (src, tgt, decoder length, labels, teacher-forced inputs)
    for src, tgt in batch:
        J, I = len(src), len(tgt)
        if mode == "at":
            T, labels, prev = I + 1, tgt.ids + (EOS_ID,), (BOS_ID,) + tgt.ids
        elif ctc:
            T, labels, prev = J * int(config.upsample), tgt.ids, None
        else:
            T, labels, prev = I, tgt.ids, None
        if max(J, T) <= config.max_len and T >= 1 and not (ctc and min_alignment_len(labels) > T):
            rows.append((src, tgt, T, labels, prev))
    out = BatchPass([], [], None, skipped=len(batch) - len(rows))
    if not rows:
        return out
    srcs = [r[0].ids for r in rows]
    lens = [r[2] for r in rows]
    prevs = [r[4] for r in rows] if mode == "at" else None

    glances = None
    if lam is not None:
        last = forward(params, config, srcs, lens, train=False).logits[-1]
        pred = np.argmax(last, axis=-1)
        if ctc:
            table, finite = log_softmax(last), np.isfinite(last).all(axis=-1)
        glances = []
        for b, (_, _, T, labels, _) in enumerate(rows):
            row_pred, glance = tuple(pred[b, :T].tolist()), None
            if mode == "length":
                out.hamming += hamming(labels, row_pred)
                glance = sample_glance(labels, glance_count(labels, row_pred, lam), rng)
            elif finite[b, :T].all():
                # poisoned logits cannot be aligned; let the training pass go
                # through unglanced so its non-finite loss reports the divergence
                glance, aligned = glance_inputs_ctc(labels, table[b, :T], lam, rng)
                out.hamming += hamming(aligned, row_pred)
            out.revealed += len(glance) if glance is not None else 0
            glances.append(glance)
    states = forward(params, config, srcs, lens, prev_ids=prevs, glance=glances, train=train, rng=rng)
    # deep supervision: the token loss of every decoder layer, averaged;
    # without it, the last layer's alone. -0.0 is the additive identity, so
    # a single layer's value passes through bit for bit.
    L = len(states.logits)
    supervised = range(L) if config.deep_supervision else range(L - 1, L)
    targets = [r[3] for r in rows]
    token = [-0.0] * len(rows)
    dlogits = [None] * L
    for l in supervised:
        values, dl = token_loss(states.logits[l], targets, ctc=ctc, mask=glances, grad=train, lens=lens)
        token = [t + v for t, v in zip(token, values)]
        if train:
            dlogits[l] = dl / len(supervised)
    dlength = None
    if mode == "length":
        classes = [length_target_class(config, len(src), len(tgt)) for src, tgt, *_ in rows]
        len_values, dlen = loss_length(states.length_logits, [c for c, _ in classes], grad=train)
        if train:
            dlength = hyper.length_loss_weight * dlen
    for b, val in enumerate(token):
        val /= len(supervised)
        components = {"token": val}
        if mode == "length":
            components["length"] = len_values[b]
            components["length_clamped"] = 1.0 if classes[b][1] else 0.0
            val = val + hyper.length_loss_weight * len_values[b]
        out.values.append(val)
        out.components.append(components)
    if train:
        out.grads = backward(params, states, dlogits, dlength=dlength)
    return out


# ---------------------------------------------------------------------------
# Steps and loops
# ---------------------------------------------------------------------------

def _norm(tensors: Params) -> float:
    """L2 norm of a parameter-shaped dict, as one flat vector."""
    return math.sqrt(sum(float(np.vdot(t, t)) for t in tensors.values()))


def train_step(
    params: Params,
    config: ModelConfig,
    batch: Sequence[tuple[TokenSeq, TokenSeq]],
    hyper: TrainConfig,
    opt_state: AdamState,
    step: int,
) -> tuple[Params, AdamState, dict]:
    """One optimization step over a batch; pure given (inputs, step, seed).

    The glancing ratio, ``hyper.glance_ratio(step)``, is computed and logged
    only for a parallel model: an autoregressive one never glances, so its
    ``lambda`` is None. The record also holds the L2 norms of the averaged
    gradient and of the Adam update, and with glancing the revealed
    positions and first-pass Hamming distances summed over the batch.
    """
    rng = np.random.default_rng([hyper.seed, step])
    lam = hyper.glance_ratio(step) if config.mode != "at" else None
    # a diverging step overflows before it is detected; the DivergedError
    # below is the diagnostic, not the fp warnings along the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _batch_pass(params, config, batch, hyper, lam, rng, train=True)
    n_eff = len(out.values)
    comp_sum: dict[str, float] = {}
    for components in out.components:
        for k, v in components.items():
            comp_sum[k] = comp_sum.get(k, 0.0) + v

    record = {
        "step": step,
        "loss": sum(out.values) / n_eff if n_eff else 0.0,
        "components": {k: v / n_eff for k, v in comp_sum.items()},
        "lambda": lam,
        "skipped": out.skipped,
        "grad_norm": 0.0,
        "update_norm": 0.0,
    }
    if lam is not None:
        record["revealed"] = out.revealed
        record["hamming"] = out.hamming
    if not math.isfinite(record["loss"]):
        raise DivergedError(step, record["loss"])
    if n_eff == 0:
        return params, opt_state, record
    total = out.grads
    for k in total:
        total[k] /= n_eff
    lr = lr_at(step, hyper.lr, hyper.warmup)
    new_params, opt_state = adam_update(params, total, opt_state, lr, hyper.beta1, hyper.beta2, hyper.adam_eps)
    record["lr"] = lr
    record["grad_norm"] = _norm(total)
    record["update_norm"] = _norm({k: new_params[k] - params[k] for k in params})
    return new_params, opt_state, record


def validation_loss(
    params: Params,
    config: ModelConfig,
    pairs: Sequence[tuple[TokenSeq, TokenSeq]],
    hyper: TrainConfig,
) -> float:
    """Mean eval-mode loss without glancing; skipped pairs are ignored.

    The pairs run in order, in batches of ``hyper.batch_size``. Values
    only: no gradient, CTC posterior or softmax gradient is built.
    """
    vals: list[float] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(pairs), hyper.batch_size):
            chunk = pairs[lo:lo + hyper.batch_size]
            vals += _batch_pass(params, config, chunk, hyper, lam=None, rng=None, train=False).values
    return float(np.mean(vals)) if vals else float("nan")


@dataclass
class TrainResult:
    params: Params                    # averaged best checkpoints
    final_params: Params              # raw parameters after the last step
    log: list[dict] = field(default_factory=list)
    val_history: list[tuple[int, float]] = field(default_factory=list)
    n_averaged: int = 1


def train_model(
    corpus: ParallelCorpus,
    config: ModelConfig,
    hyper: TrainConfig,
    heldout: Sequence[tuple[TokenSeq, TokenSeq]] | None = None,
    log_path: str | Path | None = None,
) -> TrainResult:
    """Full training run: batches, schedule, validation, checkpoint averaging.

    Keeps the ``keep_best`` lowest-loss snapshots (ties to the earlier step)
    and returns their parameter average; snapshots are ranked by heldout loss
    when a heldout set is given, by the training-batch loss otherwise.
    """
    params = init_params(config, hyper.seed)
    opt_state = AdamState.zeros(params)
    batch_rng = np.random.default_rng([hyper.seed, 0xBA7C4])
    n = len(corpus.pairs)
    if n == 0:
        raise ValueError("empty training corpus")

    log: list[dict] = []
    snapshots: list[tuple[float, int, Params]] = []
    val_history: list[tuple[int, float]] = []

    for step in range(1, hyper.steps + 1):
        idx = batch_rng.integers(0, n, size=hyper.batch_size)
        batch = [corpus.pairs[int(i)] for i in idx]
        params, opt_state, record = train_step(params, config, batch, hyper, opt_state, step)
        log.append(record)
        if step % hyper.eval_every == 0 or step == hyper.steps:
            if heldout is not None:
                val = validation_loss(params, config, heldout, hyper)
                if not math.isfinite(val):
                    raise DivergedError(step, val)
            else:
                val = record["loss"]
            val_history.append((step, val))
            snapshots.append((val, step, {k: v.copy() for k, v in params.items()}))
            snapshots.sort(key=lambda s: (s[0], s[1]))
            del snapshots[hyper.keep_best:]

    averaged = average_params([s[2] for s in snapshots])
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for rec in log:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return TrainResult(
        params=averaged,
        final_params=params,
        log=log,
        val_history=val_history,
        n_averaged=len(snapshots),
    )
