"""Alignment-lattice kernels: collapse, marginal, gradient, Viterbi.

An alignment of length T for a target of length I is a string over the
vocabulary plus a blank symbol that reduces to the target under
:func:`collapse` (merge adjacent repeats, then delete blanks). The marginal
probability of a target sums the probabilities of all of its alignments; the
classic lattice over ``2I + 1`` blank-interleaved states computes it in
``O(T * I)``. One alpha recursion serves the marginal and the loss, one beta
recursion the posteriors, and Viterbi is the same lattice in max-plus form,
vectorized over states. Everything here works on log-probability arrays of
shape ``(T, V)`` and stays in log space.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from natkit.corpus import BLANK_ID

NEG_INF = float("-inf")


class InfeasibleTargetError(ValueError):
    """Target admits no alignment at the requested length."""


def logsumexp(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Stable log-sum-exp that maps all -inf slices to -inf without warnings."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return out.reshape(())
    return np.squeeze(out, axis=axis)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x - np.expand_dims(logsumexp(x, axis=axis), axis)


# ---------------------------------------------------------------------------
# Collapse and feasibility
# ---------------------------------------------------------------------------

def collapse(alignment: Sequence[int], blank: int = BLANK_ID) -> tuple[int, ...]:
    """Reduce an alignment: merge adjacent repeats first, then drop blanks.

    The output may legitimately contain equal adjacent tokens when they were
    blank-separated in the alignment; only blank-free adjacency merges.
    """
    out = []
    prev: int | None = None
    for a in alignment:
        a = int(a)
        if a != prev:
            if a != blank:
                out.append(a)
            prev = a
    return tuple(out)


def min_alignment_len(target: Sequence[int]) -> int:
    """Shortest alignment length: one slot per token plus a blank between repeats."""
    extra = sum(1 for i in range(1, len(target)) if target[i] == target[i - 1])
    return len(target) + extra


def _check_target(target: Sequence[int], blank: int) -> tuple[int, ...]:
    target = tuple(int(t) for t in target)
    if blank in target:
        raise ValueError(f"target contains the blank id {blank}")
    return target


# ---------------------------------------------------------------------------
# The lattice
# ---------------------------------------------------------------------------

def _lattice(values: np.ndarray, target: tuple[int, ...], blank: int):
    """Emission scores per extended state (T, S), the extended labels, and the
    label states a skip from ``s - 2`` may enter (labels differ)."""
    ext = np.full(2 * len(target) + 1, blank, dtype=np.int64)
    ext[1::2] = target
    skips = 3 + 2 * np.nonzero(ext[3::2] != ext[1:-2:2])[0]
    return values[:, ext], ext, skips


def _infeasible(target: tuple[int, ...], length: int) -> InfeasibleTargetError:
    return InfeasibleTargetError(
        f"target of length {len(target)} (min alignment {min_alignment_len(target)}) "
        f"is infeasible at table length {length}"
    )


def _forward(emit: np.ndarray, skips: np.ndarray) -> tuple[np.ndarray, float]:
    """Alpha table, each entry including the emission at its own step, and
    the log marginal over the two final states."""
    T, S = emit.shape
    alpha = np.full((T, S), NEG_INF)
    alpha[0, :2] = emit[0, :2]
    # a state with no advance or skip predecessor keeps its stay term alone,
    # exactly as logaddexp(x, -inf) == x would give
    for j in range(1, T):
        prev, cur = alpha[j - 1], alpha[j]
        cur[0] = prev[0]
        cur[1:] = np.logaddexp(prev[1:], prev[:-1])
        cur[skips] = np.logaddexp(cur[skips], prev[skips - 2])
        cur += emit[j]
    total = alpha[T - 1, 0] if S == 1 else logsumexp(alpha[T - 1, -2:])
    return alpha, float(total)


def _backward(emit: np.ndarray, skips: np.ndarray) -> np.ndarray:
    """Beta table: log mass of completing the lattice over strictly later steps."""
    T, S = emit.shape
    beta = np.full((T, S), NEG_INF)
    beta[T - 1, -2:] = 0.0
    for j in range(T - 2, -1, -1):
        nxt, cur = emit[j + 1] + beta[j + 1], beta[j]
        cur[-1] = nxt[-1]
        cur[:-1] = np.logaddexp(nxt[:-1], nxt[1:])
        cur[skips - 2] = np.logaddexp(cur[skips - 2], nxt[skips])
    return beta


def ctc_forward(table: np.ndarray, target: Sequence[int], blank: int = BLANK_ID) -> float:
    """Log marginal probability of ``target`` under the table.

    Sums over every alignment via the blank-interleaved lattice. Returns
    ``-inf`` when the target is infeasible at the table's length.
    """
    emit, _, skips = _lattice(np.asarray(table, dtype=np.float64), _check_target(target, blank), blank)
    return _forward(emit, skips)[1]


def _posteriors(values: np.ndarray, target: tuple[int, ...], blank: int) -> tuple[np.ndarray, float]:
    """Occupancy posterior (T, V) and the log marginal, from one forward-backward."""
    emit, ext, skips = _lattice(values, target, blank)
    alpha, total = _forward(emit, skips)
    # -inf means no lattice path exists; NaN (poisoned scores) flows through
    if np.isneginf(total):
        raise _infeasible(target, values.shape[0])
    state_post = np.exp(alpha + _backward(emit, skips) - total)  # (T, S)
    post = np.zeros(values.shape)
    np.add.at(post, (slice(None), ext), state_post)
    return post, total


def ctc_posteriors(table: np.ndarray, target: Sequence[int], blank: int = BLANK_ID) -> np.ndarray:
    """Per-position symbol occupancy, shape (T, V); each row sums to 1."""
    return _posteriors(np.asarray(table, dtype=np.float64), _check_target(target, blank), blank)[0]


def ctc_loss_logits(logits: np.ndarray, target: Sequence[int], blank: int = BLANK_ID) -> tuple[float, np.ndarray]:
    """Negative log marginal on row-softmaxed logits, plus its logit gradient.

    Chains the free-variable gradient through the row softmax, which gives the
    classic form ``softmax(logits) - posterior``.
    """
    table = log_softmax(np.asarray(logits, dtype=np.float64))
    post, total = _posteriors(table, _check_target(target, blank), blank)
    return -total, np.exp(table) - post


def viterbi_align(table: np.ndarray, target: Sequence[int], blank: int = BLANK_ID) -> tuple[tuple[int, ...], float]:
    """Most probable single alignment and its log probability.

    Score ties break toward emitting labels at earlier positions, realized as
    a preference for the most advanced lattice state (largest extended-state
    index) both when choosing predecessors and at the final step.
    """
    values = np.asarray(table, dtype=np.float64)
    if np.isnan(values).any():
        raise ValueError("alignment table contains NaN scores")
    target = _check_target(target, blank)
    emit, ext, skips = _lattice(values, target, blank)
    T, S = emit.shape
    states = np.arange(S)
    # predecessor candidates, stay (s), advance (s-1), skip (s-2): argmax takes
    # the first maximum, so a tie goes to the larger predecessor index
    cand = np.full((3, S), NEG_INF)
    score = np.full(S, NEG_INF)
    score[:2] = emit[0, :2]
    back = np.zeros((T, S), dtype=np.int64)
    for j in range(1, T):
        cand[0] = score
        cand[1, 1:] = score[:-1]
        cand[2, skips] = score[skips - 2]
        best = np.argmax(cand, axis=0)
        score = emit[j] + cand[best, states]
        back[j] = states - best

    s = S - 1 if S == 1 or score[-1] >= score[-2] else S - 2
    if np.isneginf(score[s]):
        raise _infeasible(target, T)
    best_score = float(score[s])
    path = [s]
    for j in range(T - 1, 0, -1):
        s = int(back[j, s])
        path.append(s)
    return tuple(ext[path[::-1]].tolist()), best_score


def alignment_log_prob(table: np.ndarray, alignment: Sequence[int]) -> float:
    """Log probability of one explicit alignment path."""
    values = np.asarray(table, dtype=np.float64)
    if len(alignment) != values.shape[0]:
        raise ValueError(f"alignment length {len(alignment)} != table length {values.shape[0]}")
    return float(sum(values[j, int(a)] for j, a in enumerate(alignment)))
