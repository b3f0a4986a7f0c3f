"""Paired bootstrap resampling and system-comparison tables.

Two systems are compared by resampling sentence indices with replacement
(the same indices for both, which is what makes the test paired) and
recomputing the corpus metric from per-sentence sufficient statistics.
The p-value is one-sided on the observed winner with add-one smoothing:
p = (losses + 1) / (n_resamples + 1), where a resample counts as a loss
whenever the winner fails to win it, ties included.

``mark_table`` applies the comparison protocol used for results tables:
the first row of each sub-block is that block's root; a row labelled
"+X" is compared against its block root, a row labelled "+X+Y" against
the "+X" row, and the root of every sub-block after the first against
the first sub-block's root.  Rows whose comparison yields p >= alpha
are flagged (the table dagger).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import METRICS, SCORERS_FROM_STATS, ScoreReport, lower_is_better


class SignificanceError(ValueError):
    """Invalid comparison setup."""


@dataclass(frozen=True)
class SystemRun:
    """A system's translations of the shared test set."""

    system: str
    hypotheses: tuple[str, ...]
    role: str = "candidate"

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        if self.role not in ("base", "candidate"):
            raise SignificanceError(f"unknown role: {self.role!r}")


@dataclass(frozen=True)
class BootstrapResult:
    p_value: float
    base_value: float
    cand_value: float
    winner: str
    n_resamples: int

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def _resample_counts(rng: np.random.Generator, n_resamples: int, n: int) -> np.ndarray:
    """How many times each sentence is drawn in each resample, (R, n)."""
    idx = rng.integers(0, n, size=(n_resamples, n))
    return np.stack([np.bincount(row, minlength=n) for row in idx]).astype(float)


@dataclass(frozen=True)
class _ScoredRun(SystemRun):
    """A run that :func:`mark_table` has scored once, so that every
    comparison it takes part in reuses the report."""

    report: ScoreReport | None = None


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise SignificanceError(f"unknown metric: {metric!r}")


def _score(run: SystemRun, refs: list[str], metric: str) -> ScoreReport:
    if isinstance(run, _ScoredRun) and run.report.metric == metric:
        return run.report
    return METRICS[metric](list(run.hypotheses), refs)


def paired_bootstrap(
    base: SystemRun,
    cand: SystemRun,
    refs: Sequence[str],
    metric: str = "bleu",
    *,
    n_resamples: int = 1000,
    seed: int = 0,
) -> BootstrapResult:
    """One-sided bootstrap p-value for the observed winner between two systems."""
    _check_metric(metric)
    if n_resamples < 100:
        raise SignificanceError("n_resamples must be at least 100")
    n = len(refs)
    if len(base.hypotheses) != n or len(cand.hypotheses) != n:
        raise SignificanceError(
            f"corpus sizes differ: base {len(base.hypotheses)}, "
            f"cand {len(cand.hypotheses)}, refs {n}"
        )

    refs = list(refs)
    report_b = _score(base, refs, metric)
    report_c = _score(cand, refs, metric)
    sign = -1.0 if lower_is_better(metric) else 1.0
    delta = sign * (report_c.value - report_b.value)
    winner = "tie" if delta == 0 else ("cand" if delta > 0 else "base")

    if winner == "tie":
        p = 1.0
    else:
        counts = _resample_counts(np.random.default_rng(seed), n_resamples, n)
        score = SCORERS_FROM_STATS[metric]
        diff = sign * (score(counts @ report_c.sentence_stats) - score(counts @ report_b.sentence_stats))
        wins = diff > 0 if winner == "cand" else diff < 0
        losses = n_resamples - int(np.count_nonzero(wins))
        p = (losses + 1) / (n_resamples + 1)

    return BootstrapResult(
        p_value=p,
        base_value=report_b.value,
        cand_value=report_c.value,
        winner=winner,
        n_resamples=n_resamples,
    )


@dataclass(frozen=True)
class TableRow:
    system: str
    value: float
    base: str | None
    p_value: float | None
    dagger: bool


def _parent_label(label: str, root: str) -> str:
    methods = label[1:].split("+")
    if len(methods) == 1:
        return root
    return "+" + "+".join(methods[:-1])


def mark_table(
    blocks: Sequence[Sequence[SystemRun]],
    refs: Sequence[str],
    metric: str = "bleu",
    *,
    n_resamples: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
) -> list[TableRow]:
    """Score every system once and attach protocol-determined pairwise p-values."""
    _check_metric(metric)
    if not blocks or any(not block for block in blocks):
        raise SignificanceError("empty block")
    for block in blocks:
        if block[0].system.startswith("+"):
            raise SignificanceError(f"block without a root: first row is {block[0].system!r}")

    refs = list(refs)
    rows: list[TableRow] = []
    first_root: _ScoredRun | None = None
    for block in blocks:
        root = block[0]
        by_label: dict[str, _ScoredRun] = {}
        for i, run in enumerate(block):
            if i > 0 and not run.system.startswith("+"):
                raise SignificanceError(
                    f"non-root row {run.system!r} must be labelled with a leading '+'"
                )
            if run.system in by_label:
                raise SignificanceError(f"duplicate system label: {run.system!r}")
            if len(run.hypotheses) != len(refs):
                raise SignificanceError(
                    f"corpus sizes differ: {run.system!r} {len(run.hypotheses)}, refs {len(refs)}"
                )
            by_label[run.system] = _ScoredRun(run.system, run.hypotheses, run.role,
                                              _score(run, refs, metric))

        for i, run in enumerate(block):
            if i == 0:
                base_run = first_root
            else:
                parent = _parent_label(run.system, root.system)
                if parent not in by_label:
                    raise SignificanceError(
                        f"row {run.system!r} has no base row {parent!r} in its block"
                    )
                base_run = by_label[parent]
            scored = by_label[run.system]
            if base_run is None:
                rows.append(TableRow(run.system, scored.report.value, None, None, False))
            else:
                res = paired_bootstrap(
                    base_run, scored, refs, metric, n_resamples=n_resamples, seed=seed
                )
                rows.append(
                    TableRow(run.system, res.cand_value, base_run.system, res.p_value, res.p_value >= alpha)
                )
        if first_root is None:
            first_root = by_label[root.system]
    return rows


def format_table(rows: Sequence[TableRow], metric: str) -> str:
    """Render marked rows as TSV: system, metric, value, base, p, dagger."""
    lines = ["system\tmetric\tvalue\tbase\tp\tdagger"]
    for row in rows:
        base = row.base if row.base is not None else "-"
        p = f"{row.p_value:.4f}" if row.p_value is not None else "-"
        dagger = "y" if row.dagger else "n"
        lines.append(f"{row.system}\t{metric}\t{row.value:.4f}\t{base}\t{p}\t{dagger}")
    return "\n".join(lines) + "\n"
