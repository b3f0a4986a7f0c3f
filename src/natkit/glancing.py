"""Glancing: reveal part of the target when the model's first pass is poor.

The glance functions take the sampling ratio lambda as a float. Training
reads it off ``TrainConfig.glance_ratio(step)``, which decays it linearly
from ``glat_start`` by ``glat_slope`` over training: lambda(u) = start -
slope * u / U, held at u = U. The number of revealed positions is
floor(lambda * d) where d is the Hamming distance between the (aligned)
target and the first-pass prediction; the revealed subset is drawn
uniformly without replacement.

For alignment-based models the comparison happens in alignment space: the
target is first aligned by Viterbi, the prediction is the raw per-position
argmax string of the same length, and reveals come from the aligned target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from natkit.ctc import viterbi_align


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
