"""Corpus evaluation metrics with resampling-friendly sentence statistics.

Each metric reduces a (hypothesis, reference) corpus to a per-sentence
matrix of integer sufficient statistics and scores the corpus from its
column sums.  The :class:`ScoreReport` keeps the matrix, so any reweighting
of the sentences (a bootstrap resample's draw counts, or a 0/1 mask that
picks a subset) is rescored without touching the original strings:

    scores = report.rescore(weights)    # (R, n) weights -> R corpus scores

Every column is a count, so a 0/1 mask scores its subset exactly as scoring
the subset afresh would.  Each ``*_score_from_stats`` reads the statistics
along the last axis: one (k,) vector gives a scalar, (R, k) rows R scores.

``bleu`` counts clipped n-gram matches (orders 1-4) over 13a tokens with
exponential smoothing of zero counts and the brevity penalty.  ``chrfpp``
averages per-order F2 scores of character n-grams (orders 1-6, whitespace
removed) and word n-grams (orders 1-2, edge punctuation split off).  ``ter``
counts block shifts plus word edits against the reference length.  All three
share one corpus path, which names the 1-based line of a rejected sentence.

The emitted signature strings state the fixed configuration; everything is
case-sensitive and single-reference.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
import string
from typing import Callable

import numpy as np

from natkit import __version__
from natkit.corpus import tokenize_13a

MY_LOG_FLOOR = -9999999999.0

SIG_BLEU = f"nrefs:1 | case:mixed | eff:no | tok:13a | smooth:exp | version:{__version__}"
SIG_CHRF = f"nrefs:1 | case:mixed | eff:yes | nc:6 | nw:2 | space:no | version:{__version__}"
SIG_TER = f"nrefs:1 | case:mixed | tok:tercom | norm:no | punct:yes | asian:no | version:{__version__}"

CHRF_CHAR_ORDER = 6
CHRF_WORD_ORDER = 2
CHRF_BETA = 2.0

TER_MAX_SHIFT_SIZE = 10
TER_MAX_SHIFT_DIST = 50

DEFAULT_BLEU_BUCKETS = (0, 10, 20, 30, 40, 50)


class MetricError(ValueError):
    """Invalid metric input (empty corpus, length mismatch, empty reference).

    ``line`` is the 1-based corpus line at fault, or None when the error
    concerns the corpus as a whole; ``reason`` is the message without it.
    """

    def __init__(self, reason: str, line: int | None = None):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.reason = reason
        self.line = line


@dataclass(frozen=True)
class ScoreReport:
    """A corpus score, with the (n, k) sentence statistics it was summed from
    and the scorer that turns summed statistics into scores."""

    metric: str
    value: float
    signature: str
    sentence_stats: np.ndarray = field(repr=False)
    lower_is_better: bool
    score_from_stats: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __eq__(self, other: object) -> bool:
        # field-wise, with the statistics compared as arrays: the generated
        # __eq__ would truth-test an elementwise comparison and raise
        if not isinstance(other, ScoreReport):
            return NotImplemented
        return (
            (self.metric, self.value, self.signature, self.lower_is_better, self.score_from_stats)
            == (other.metric, other.value, other.signature, other.lower_is_better,
                other.score_from_stats)
            and np.array_equal(self.sentence_stats, other.sentence_stats)
        )

    def __hash__(self) -> int:
        # the scalar fields __eq__ compares, so equal reports hash equal; the
        # generated hash would hash the statistics array and raise
        return hash((self.metric, self.value, self.signature, self.lower_is_better))

    def rescore(self, weights: np.ndarray) -> np.ndarray:
        """R corpus scores from (R, n) weights: how often each sentence counts."""
        return self.score_from_stats(np.asarray(weights, dtype=float) @ self.sentence_stats)

    @property
    def n_sentences(self) -> int:
        return int(self.sentence_stats.shape[0])

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "value": self.value,
            "signature": self.signature,
            "n_sentences": self.n_sentences,
        }

    def format_line(self) -> str:
        return f"{self.metric} = {self.value:.2f} ({self.signature})"


def _check_corpus(hyps, refs) -> None:
    if len(hyps) != len(refs):
        raise MetricError(f"corpus size mismatch: {len(hyps)} hypotheses, {len(refs)} references")
    if len(hyps) == 0:
        raise MetricError("empty corpus")


def _corpus(hyps, refs, metric, signature, sentence_stats, score_from_stats,
            lower_is_better=False) -> ScoreReport:
    """One statistics row per line, scored from the column sums; a line's
    ``MetricError`` is re-raised naming that line."""
    _check_corpus(hyps, refs)
    rows = []
    for line, (h, r) in enumerate(zip(hyps, refs), start=1):
        try:
            rows.append(sentence_stats(h, r))
        except MetricError as e:
            raise MetricError(e.reason, line=line) from None
    stats = np.stack(rows)
    value = float(score_from_stats(stats.sum(axis=0)))
    return ScoreReport(metric, value, signature, stats, lower_is_better, score_from_stats)


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_sentence_stats(hyp: str, ref: str) -> np.ndarray:
    """Columns: clipped correct counts (orders 1-4), totals (1-4), lengths."""
    h = tokenize_13a(hyp)
    r = tokenize_13a(ref)
    row = np.zeros(10)
    for n in range(1, 5):
        hn = _ngrams(h, n)
        rn = _ngrams(r, n)
        row[n - 1] = sum(min(c, rn[g]) for g, c in hn.items())
        row[4 + n - 1] = max(len(h) - n + 1, 0)
    row[8] = len(h)
    row[9] = len(r)
    return row


def _my_log(x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, MY_LOG_FLOOR, dtype=float)
    pos = x > 0
    out[pos] = np.log(x[pos])
    return out


def bleu_score_from_stats(agg: np.ndarray) -> np.ndarray:
    """Corpus BLEU of summed stats."""
    agg = np.asarray(agg, dtype=float)
    correct, total = agg[..., 0:4], agg[..., 4:8]
    sys_len, ref_len = agg[..., 8], agg[..., 9]

    precisions = np.zeros_like(correct)
    smooth = np.ones(agg.shape[:-1])
    for n in range(4):
        zero_hit = (correct[..., n] == 0) & (total[..., n] > 0)
        smooth = np.where(zero_hit, smooth * 2, smooth)
        with np.errstate(divide="ignore", invalid="ignore"):
            plain = 100.0 * correct[..., n] / total[..., n]
            smoothed = 100.0 / (smooth * total[..., n])
        precisions[..., n] = np.where(total[..., n] > 0, np.where(zero_hit, smoothed, plain), 0.0)

    log_avg = _my_log(precisions).mean(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bp = np.where(
            sys_len < ref_len,
            np.where(sys_len > 0, np.exp(1.0 - ref_len / np.maximum(sys_len, 1e-300)), 0.0),
            1.0,
        )
    return bp * np.exp(np.minimum(log_avg, 700.0))


def bleu(hyps: list[str], refs: list[str]) -> ScoreReport:
    return _corpus(hyps, refs, "bleu", SIG_BLEU, bleu_sentence_stats, bleu_score_from_stats)


# ---------------------------------------------------------------------------
# chrF++
# ---------------------------------------------------------------------------

def _chrf_words(sentence: str) -> list[str]:
    """Whitespace tokens with one edge punctuation mark split off, if any."""
    out = []
    for w in sentence.split():
        if len(w) > 1 and w[-1] in string.punctuation:
            out += [w[:-1], w[-1]]
        elif len(w) > 1 and w[0] in string.punctuation:
            out += [w[0], w[1:]]
        else:
            out.append(w)
    return out


def chrf_sentence_stats(hyp: str, ref: str) -> np.ndarray:
    """(hyp count, ref count, match) per order: 6 char orders then 2 word."""
    row = np.zeros(3 * (CHRF_CHAR_ORDER + CHRF_WORD_ORDER))
    h_chars = "".join(hyp.split())
    r_chars = "".join(ref.split())
    h_words = _chrf_words(hyp)
    r_words = _chrf_words(ref)
    for i in range(CHRF_CHAR_ORDER + CHRF_WORD_ORDER):
        if i < CHRF_CHAR_ORDER:
            n = i + 1
            hn = _ngrams(list(h_chars), n)
            rn = _ngrams(list(r_chars), n)
        else:
            n = i - CHRF_CHAR_ORDER + 1
            hn = _ngrams(h_words, n)
            rn = _ngrams(r_words, n)
        match = sum(min(c, rn[g]) for g, c in hn.items())
        row[3 * i:3 * i + 3] = (sum(hn.values()), sum(rn.values()), match)
    return row


def chrf_score_from_stats(agg: np.ndarray) -> np.ndarray:
    agg = np.asarray(agg, dtype=float)
    b2 = CHRF_BETA * CHRF_BETA
    n_orders = CHRF_CHAR_ORDER + CHRF_WORD_ORDER
    f_sum = np.zeros(agg.shape[:-1])
    eff = np.zeros(agg.shape[:-1])
    for i in range(n_orders):
        n_hyp, n_ref, n_match = agg[..., 3 * i], agg[..., 3 * i + 1], agg[..., 3 * i + 2]
        active = (n_hyp > 0) & (n_ref > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            prec = np.where(active, n_match / np.maximum(n_hyp, 1), 0.0)
            rec = np.where(active, n_match / np.maximum(n_ref, 1), 0.0)
            denom = b2 * prec + rec
            f = np.where(denom > 0, (1 + b2) * prec * rec / np.maximum(denom, 1e-300), 0.0)
        f_sum += np.where(active, f, 0.0)
        eff += active
    return np.where(eff > 0, 100.0 * f_sum / np.maximum(eff, 1), 0.0)


def chrfpp(hyps: list[str], refs: list[str]) -> ScoreReport:
    return _corpus(hyps, refs, "chrf", SIG_CHRF, chrf_sentence_stats, chrf_score_from_stats)


# ---------------------------------------------------------------------------
# TER
# ---------------------------------------------------------------------------

def tokenize_tercom(sentence: str) -> list[str]:
    """Case-kept, punctuation-kept, unnormalized: whitespace splitting only."""
    return sentence.split()


def _match_table(seq) -> dict:
    """Item -> bit mask of the positions where it occurs in ``seq``."""
    peq: dict = {}
    bit = 1
    for y in seq:
        peq[y] = peq.get(y, 0) | bit
        bit <<= 1
    return peq


def _myers(state: tuple, eqs, mask: int) -> tuple:
    """Advance one column of the DP table by one item per match mask in ``eqs``.

    Bit-parallel (Myers 1999, in Hyyrö's 2001 formulation): ``state`` is
    (pv, mv, dist), the column's +1 and -1 vertical deltas as bit-vectors in
    Python ints, m bits wide for a column over m items (``mask`` is 2**m - 1),
    and the distance in its last row.  Each item updates the whole column with
    a fixed number of integer operations.  The carry of 1 into row 0 of the
    horizontal delta makes the first DP row 0, 1, 2, ..., so the distance is
    global.  The start state is (mask, 0, m).
    """
    pv, mv, dist = state
    top = (mask + 1) >> 1
    # carries move only upward, so bits from m up never reach the low m bits.
    # ``x ^ mask`` is the complement within them; the one carry bit at m it
    # may leave in ``ph`` is cut by the masked shift, which keeps every state
    # m bits wide
    for eq in eqs:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | ((xv | ph) ^ mask)
        mv = ph & xv
    return pv, mv, dist


def levenshtein(a, b) -> int:
    """Unit-cost edit distance between two sequences (or strings).

    One Myers column (:func:`_myers`) over the shorter sequence, advanced by
    each item of the longer one.  Items are compared by hash and equality.
    """
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq = _match_table(b)
    mask = (1 << len(b)) - 1
    return _myers((mask, 0, len(b)), [peq.get(x, 0) for x in a], mask)[2]


def _right_moves(e: list, fe: list, o: list, fo: list, s: int, k: int, mask: int) -> list:
    """Distances after moving the block ``s:s+k`` right to each position
    ``ins`` in ``s+1 .. min(n-k, s+TER_MAX_SHIFT_DIST)``, in that order.

    ``e`` holds the hypothesis's match masks against the reference and
    ``fe[i]`` the column state after ``e[:i]``; ``o`` and ``fo`` are the same
    for the reversed hypothesis against the reversed reference, so ``fo[j]``
    covers the last j words.  The candidate ``e[:s] + e[s+k:ins+k] + block +
    e[ins+k:]`` runs either from a head state over ``e[:s] + e[s+k:ins+k]``,
    which advances one word per ``ins``, or from ``fo[n-ins-k]`` over its
    unchanged suffix, whichever leaves fewer words to run.
    """
    n = len(e)
    block = e[s:s + k]
    rblock = o[n - s - k:n - s]
    head, at = fe[s], s
    out = []
    for ins in range(s + 1, min(n - k, s + TER_MAX_SHIFT_DIST) + 1):
        if n - ins <= k + ins:
            head = _myers(head, e[at + k:ins + k], mask)
            at = ins
            out.append(_myers(head, block + e[ins + k:], mask)[2])
        else:
            rest = rblock + o[n - ins - k:n - s - k] + o[n - s:]
            out.append(_myers(fo[n - ins - k], rest, mask)[2])
    return out


def _best_shift(hyp: list[str], base: int, fwd: dict, bwd: dict, mask: int, grams: set):
    """Most-edit-reducing single block move; scan order breaks ties.

    Every block of at most ``TER_MAX_SHIFT_SIZE`` words that occurs in the
    reference (``grams``) is tried at every position at most
    ``TER_MAX_SHIFT_DIST`` away, and the first candidate in (start, span,
    position) order with the largest saving wins.  ``fwd`` and ``bwd`` are
    the match tables of the reference and of its reversal.  Each candidate's
    distance runs from cached Myers states: one per prefix of ``hyp`` and, as
    D(a, b) = D(rev a, rev b), one per suffix against the reversed reference.
    A move left is a move right of the reversed hypothesis, so
    :func:`_right_moves` scores both.
    """
    n = len(hyp)
    e = [fwd.get(w, 0) for w in hyp]
    o = [bwd.get(w, 0) for w in reversed(hyp)]
    start = (mask, 0, mask.bit_length())
    fe, fo = [start], [start]
    for i in range(n):
        fe.append(_myers(fe[-1], e[i:i + 1], mask))
        fo.append(_myers(fo[-1], o[i:i + 1], mask))
    best = None
    best_delta = 0
    for s in range(n):
        for k in range(1, min(TER_MAX_SHIFT_SIZE, n - s) + 1):
            if tuple(hyp[s:s + k]) not in grams:
                break  # and no longer block from s occurs either
            left = _right_moves(o, fo, e, fe, n - s - k, k, mask)[::-1]
            right = _right_moves(e, fe, o, fo, s, k, mask)
            positions = chain(range(s - len(left), s), range(s + 1, n))
            for ins, dist in zip(positions, left + right):
                if base - dist > best_delta:
                    best_delta = base - dist
                    best = (s, k, ins)
    if best is None:
        return None, 0
    s, k, ins = best
    rest = hyp[:s] + hyp[s + k:]
    return rest[:ins] + hyp[s:s + k] + rest[ins:], best_delta


def ter_sentence_edits(hyp_words: list[str], ref_words: list[str]) -> int:
    """Greedy shift search: apply the best block move while it saves >= 1 edit."""
    if not ref_words:
        raise MetricError("TER needs a non-empty reference sentence")
    current = list(hyp_words)
    dist = levenshtein(current, ref_words)
    fwd, bwd = _match_table(ref_words), _match_table(ref_words[::-1])
    mask = (1 << len(ref_words)) - 1
    grams = {tuple(ref_words[i:i + k])
             for k in range(1, TER_MAX_SHIFT_SIZE + 1) for i in range(len(ref_words) - k + 1)}
    shifts = 0
    while dist > 0:
        cand, delta = _best_shift(current, dist, fwd, bwd, mask, grams)
        if cand is None or delta < 1:
            break
        current = cand
        dist -= delta
        shifts += 1
    return shifts + dist


def ter_sentence_stats(hyp: str, ref: str) -> np.ndarray:
    h = tokenize_tercom(hyp)
    r = tokenize_tercom(ref)
    return np.array([float(ter_sentence_edits(h, r)), float(len(r))])


def ter_score_from_stats(agg: np.ndarray) -> np.ndarray:
    agg = np.asarray(agg, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(agg[..., 1] > 0, 100.0 * agg[..., 0] / np.maximum(agg[..., 1], 1e-300), 0.0)


def ter(hyps: list[str], refs: list[str]) -> ScoreReport:
    return _corpus(hyps, refs, "ter", SIG_TER, ter_sentence_stats, ter_score_from_stats,
                   lower_is_better=True)


# ---------------------------------------------------------------------------
# Registry and bucketing
# ---------------------------------------------------------------------------

# The one name -> metric table.  The corpus functions look their sentence
# statistics up by module name at call time, so a wrapper installed at such a
# name (a profiler's, a test's counter) sees every sentence.
METRICS = {
    "bleu": bleu,
    "chrf": chrfpp,
    "ter": ter,
}
DEFAULT_METRIC = "bleu"


def bucketed_bleu(hyps, refs, edges=DEFAULT_BLEU_BUCKETS):
    """Corpus BLEU per reference-length bucket.

    ``edges`` are ascending lower bounds; the last bucket is open-ended.
    Returns (label, score or None, count) per bucket; empty buckets score None.
    The corpus is scored once, and each bucket's 0/1 mask over its sentences,
    bucketed by their 13a reference length, rescores the report.
    """
    edges = list(edges)
    if edges != sorted(edges) or len(set(edges)) != len(edges):
        raise MetricError("bucket edges must be strictly ascending")
    report = bleu(hyps, refs)
    lengths = report.sentence_stats[:, 9]
    buckets = list(zip(edges, edges[1:] + [np.inf]))
    masks = np.array([(lengths >= lo) & (lengths < hi) for lo, hi in buckets], dtype=float)
    masks = masks.reshape(len(buckets), len(lengths))
    return [
        (f"[{lo},{hi})", float(value) if n else None, int(n))
        for (lo, hi), value, n in zip(buckets, report.rescore(masks), masks.sum(axis=1))
    ]
