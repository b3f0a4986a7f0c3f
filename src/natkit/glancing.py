"""Glancing: reveal part of the target when the model's first pass is poor.

The schedule interpolates the sampling ratio linearly from ``lambda_start``
down by ``lambda_slope`` over training: lambda(u) = start - slope * u / U,
clamped at u = U; ``GlanceSchedule.at(u).value()`` reads it, and the glance
functions take that float. The number of revealed positions is
floor(lambda * d) where d is the Hamming distance between the (aligned)
target and the first-pass prediction; the revealed subset is drawn
uniformly without replacement.

For alignment-based models the comparison happens in alignment space: the
target is first aligned by Viterbi, the prediction is the raw per-position
argmax string of the same length, and reveals come from the aligned target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from natkit.ctc import viterbi_align


@dataclass(frozen=True)
class GlanceSchedule:
    """Linear ratio decay over training steps."""

    lambda_start: float = 0.5
    lambda_slope: float = 0.2
    step: int = 0
    max_steps: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.lambda_start <= 1.0):
            raise ValueError(f"lambda_start must be in [0, 1], got {self.lambda_start}")
        if self.lambda_slope < 0.0:
            raise ValueError(f"lambda_slope must be >= 0, got {self.lambda_slope}")
        if self.lambda_start - self.lambda_slope < 0.0:
            raise ValueError("schedule would go negative at the end of training")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")

    def value(self) -> float:
        u = min(self.step, self.max_steps)
        return self.lambda_start - self.lambda_slope * (u / self.max_steps)

    def at(self, step: int) -> "GlanceSchedule":
        return replace(self, step=step)


def hamming(a: Sequence[int], b: Sequence[int]) -> int:
    """Positions where two sequences of equal length disagree."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def glance_count(target: Sequence[int], pred: Sequence[int], lam: float) -> int:
    """floor(lambda * hamming(target, pred)), capped at the target length."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    d = hamming(target, pred)
    return min(int(math.floor(lam * d)), len(target))


@dataclass(frozen=True)
class GlanceMask:
    """A revealed subset of positions and the ground-truth ids there."""

    positions: tuple[int, ...]
    revealed: tuple[int, ...]
    target_len: int

    def __post_init__(self) -> None:
        if len(self.positions) != len(self.revealed):
            raise ValueError("positions and revealed tokens must align")
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError(f"positions must be strictly increasing, got {self.positions}")
        if self.positions and not (0 <= self.positions[0] and self.positions[-1] < self.target_len):
            raise ValueError(f"positions {self.positions} outside [0, {self.target_len})")

    def __len__(self) -> int:
        return len(self.positions)


def sample_glance(target: Sequence[int], s: int, rng: np.random.Generator) -> GlanceMask:
    """Uniform s-subset of the target's positions, revealing its tokens."""
    n = len(target)
    if not (0 <= s <= n):
        raise ValueError(f"cannot reveal {s} of {n} positions")
    pos = tuple(sorted(int(p) for p in rng.choice(n, size=s, replace=False))) if s else ()
    return GlanceMask(pos, tuple(int(target[p]) for p in pos), n)


def glance_inputs_ctc(
    target: Sequence[int],
    table: np.ndarray,
    lam: float,
    rng: np.random.Generator,
) -> tuple[GlanceMask, tuple[int, ...]]:
    """Glance in alignment space: Viterbi target vs raw argmax string.

    Returns the sampled mask (positions over the alignment length) and the
    Viterbi-aligned target the reveals are drawn from.
    """
    aligned, _ = viterbi_align(table, target)
    pred = tuple(int(v) for v in np.argmax(table, axis=1))
    s = glance_count(aligned, pred, lam)
    return sample_glance(aligned, s, rng), aligned
