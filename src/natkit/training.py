"""Optimization: Adam, the warmup schedule, the two-pass training step.

The training step is pure given (params, batch, step, seed): per-step RNG is
derived from the pair, batches touch sentences one at a time, and gradient
accumulation is plain summation, so reruns are bit-identical single threaded.

The objective is one recipe whose parts stack. Each decoder layer has one
token loss, :func:`natkit.model.token_loss`: the CTC marginal in alignment
mode, position-wise cross-entropy otherwise. Deep supervision averages that
loss over every decoder layer; without it only the last layer is
supervised. Length-mode models add the weighted length-head loss.

Glancing runs as two passes, at the ratio ``TrainConfig.glance_ratio(step)``.
The first pass decodes in eval mode without gradients; its prediction picks
how many target positions to reveal. The second pass trains with the
revealed embeddings substituted into the decoder input, and every
supervised layer sees the same reveals. Alignment-mode models glance in
alignment space and keep the full marginal loss; other models exclude
revealed positions from the position-wise loss.

Validation runs the same per-pair pass in eval mode, which computes loss
values only.
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
from natkit.glancing import glance_count, glance_inputs_ctc, sample_glance
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
# Per-sentence losses
# ---------------------------------------------------------------------------

def _sentence_pass(
    params: Params,
    config: ModelConfig,
    src: TokenSeq,
    tgt: TokenSeq,
    hyper: TrainConfig,
    lam: float | None,
    rng: np.random.Generator | None,
    train: bool,
):
    """Loss, parameter gradients and loss components for one pair.

    Returns None when the pair is skipped: when its source or its decoder
    length exceeds ``max_len``, when CTC cannot align the target at the
    decoder length, or when a length-mode target is empty. In eval mode
    (``train`` False) only values are computed, and the gradients are None.
    """
    J, I = len(src), len(tgt)
    mode = config.mode
    # per mode: decoder length, labels, teacher-forced inputs
    if mode == "at":
        T, labels, prev = I + 1, tgt.ids + (EOS_ID,), (BOS_ID,) + tgt.ids
    elif mode == "ctc":
        T, labels, prev = J * int(config.upsample), tgt.ids, None
    else:
        T, labels, prev = I, tgt.ids, None
    ctc = mode == "ctc"
    if max(J, T) > config.max_len or T < 1 or (ctc and min_alignment_len(labels) > T):
        return None

    glance = None
    if lam is not None and lam > 0.0:
        last = forward(params, config, src.ids, T, train=False).logits[-1]
        if mode == "length":
            pred = tuple(int(v) for v in np.argmax(last, axis=1))
            glance = sample_glance(labels, glance_count(labels, pred, lam), rng)
        elif np.all(np.isfinite(last)):
            # poisoned logits cannot be aligned; let the training pass go
            # through unglanced so its non-finite loss reports the divergence
            glance, _ = glance_inputs_ctc(labels, log_softmax(last), lam, rng)
    states = forward(params, config, src.ids, T, prev_ids=prev, glance=glance, train=train, rng=rng)
    # deep supervision: the token loss of every decoder layer, averaged;
    # without it, the last layer's alone. -0.0 is the additive identity, so
    # a single layer's value passes through bit for bit.
    L = len(states.logits)
    supervised = range(L) if config.deep_supervision else range(L - 1, L)
    val, dlogits = -0.0, [None] * L
    for l in supervised:
        v, dl = token_loss(states.logits[l], labels, ctc=ctc, mask=glance, grad=train)
        val += v
        if train:
            dlogits[l] = dl / len(supervised)
    val /= len(supervised)
    components = {"token": val}
    dlength = None
    if mode == "length":
        cls, clamped = length_target_class(config, J, I)
        len_val, dlen = loss_length(states, cls)
        components["length"] = len_val
        components["length_clamped"] = 1.0 if clamped else 0.0
        val = val + hyper.length_loss_weight * len_val
        dlength = hyper.length_loss_weight * dlen
    grads = backward(params, states, dlogits, dlength=dlength) if train else None
    return val, grads, components


# ---------------------------------------------------------------------------
# Steps and loops
# ---------------------------------------------------------------------------

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
    ``lambda`` is None.
    """
    rng = np.random.default_rng([hyper.seed, step])
    lam = hyper.glance_ratio(step) if config.mode != "at" else None
    total = zero_grads(params)
    loss_sum = 0.0
    comp_sum: dict[str, float] = {}
    n_eff, n_skip = 0, 0
    # a diverging step overflows before it is detected; the DivergedError
    # below is the diagnostic, not the fp warnings along the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for src, tgt in batch:
            out = _sentence_pass(params, config, src, tgt, hyper, lam, rng, train=True)
            if out is None:
                n_skip += 1
                continue
            val, grads, components = out
            loss_sum += val
            for k, v in components.items():
                comp_sum[k] = comp_sum.get(k, 0.0) + v
            for k in total:
                total[k] += grads[k]
            n_eff += 1

    record = {
        "step": step,
        "loss": loss_sum / n_eff if n_eff else 0.0,
        "components": {k: v / n_eff for k, v in comp_sum.items()} if n_eff else {},
        "lambda": lam,
        "skipped": n_skip,
    }
    if not math.isfinite(record["loss"]):
        raise DivergedError(step, record["loss"])
    if n_eff == 0:
        return params, opt_state, record
    for k in total:
        total[k] /= n_eff
    lr = lr_at(step, hyper.lr, hyper.warmup)
    params, opt_state = adam_update(params, total, opt_state, lr, hyper.beta1, hyper.beta2, hyper.adam_eps)
    record["lr"] = lr
    return params, opt_state, record


def validation_loss(
    params: Params,
    config: ModelConfig,
    pairs: Sequence[tuple[TokenSeq, TokenSeq]],
    hyper: TrainConfig,
) -> float:
    """Mean eval-mode loss without glancing; skipped pairs are ignored.

    Values only: no gradient, CTC posterior or softmax gradient is built.
    """
    vals = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for src, tgt in pairs:
            out = _sentence_pass(params, config, src, tgt, hyper, lam=None, rng=None, train=False)
            if out is not None:
                vals.append(out[0])
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
