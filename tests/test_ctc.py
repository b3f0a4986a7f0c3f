import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from natkit.ctc import (
    InfeasibleTargetError,
    alignment_log_prob,
    collapse,
    ctc_forward,
    ctc_loss_logits,
    ctc_posteriors,
    log_softmax,
    min_alignment_len,
    viterbi_align,
)

# Tiny artificial alphabets: symbol ids 0..V-1 with an explicit blank id.


def ref_collapse(seq, blank):
    """Independent reference: drop adjacent repeats, then blanks."""
    dedup = [s for i, s in enumerate(seq) if i == 0 or s != seq[i - 1]]
    return tuple(s for s in dedup if s != blank)


def product_alignments(target, length, vocab_size, blank):
    """Oracle by full enumeration of every string of the given length."""
    return {
        a
        for a in itertools.product(range(vocab_size), repeat=length)
        if ref_collapse(a, blank) == tuple(target)
    }


def brute_marginal(values, target, blank, vocab_size):
    """Sum of plain path products; no lattice, no log-space tricks."""
    total = 0.0
    for a in product_alignments(tuple(target), values.shape[0], vocab_size, blank):
        total += math.prod(math.exp(values[j, s]) for j, s in enumerate(a))
    return total


def random_table(rng, length, vocab):
    return log_softmax(rng.normal(0.0, 1.5, size=(length, vocab)))


def _viterbi_loop(values, target, blank):
    """Per-state Viterbi over the blank-interleaved lattice, one candidate list
    per state: the oracle for the vectorized kernel's alignment, score and
    tie-break (largest predecessor index, then the last state)."""
    T = values.shape[0]
    ext = [blank]
    for t in target:
        ext += [t, blank]
    S = len(ext)
    score = [float("-inf")] * S
    score[0] = values[0, ext[0]]
    if S > 1:
        score[1] = values[0, ext[1]]
    back = [[0] * S for _ in range(T)]
    for j in range(1, T):
        new = [float("-inf")] * S
        for s in range(S):
            cands = [(score[s], s)]
            if s >= 1:
                cands.append((score[s - 1], s - 1))
            if s >= 2 and s % 2 == 1 and ext[s] != ext[s - 2]:
                cands.append((score[s - 2], s - 2))
            best_sc, best_p = cands[0]
            for sc, p in cands[1:]:
                if sc > best_sc or (sc == best_sc and p > best_p):
                    best_sc, best_p = sc, p
            new[s] = values[j, ext[s]] + best_sc
            back[j][s] = best_p
        score = new
    best_s = S - 1
    if S > 1 and score[S - 2] > score[S - 1]:
        best_s = S - 2
    if score[best_s] == float("-inf"):
        raise InfeasibleTargetError("no alignment")
    states = [best_s]
    for j in range(T - 1, 0, -1):
        states.append(back[j][states[-1]])
    return tuple(int(ext[s]) for s in reversed(states)), float(score[best_s])


@st.composite
def tie_heavy_cases(draw):
    """Tables over {log 1/4, log 1/2, -inf}, so score ties are dense."""
    length = draw(st.integers(1, 14))
    vocab = draw(st.integers(2, 5))
    blank = draw(st.integers(0, vocab - 1))
    cells = draw(st.lists(st.sampled_from((math.log(0.25), math.log(0.5), float("-inf"))),
                          min_size=length * vocab, max_size=length * vocab))
    symbols = [v for v in range(vocab) if v != blank]
    target = draw(st.lists(st.sampled_from(symbols), max_size=8))
    return np.array(cells).reshape(length, vocab), tuple(target), blank


class TestCollapse:
    def test_blank_separated_and_merged_repeats(self):
        a, b, blank = 0, 2, 1
        # a - a b b  and  a a - a b  both reduce to a a b
        assert collapse([a, blank, a, b, b], blank) == (a, a, b)
        assert collapse([a, a, blank, a, b], blank) == (a, a, b)

    def test_all_blank_collapses_to_empty(self):
        assert collapse([1, 1, 1]) == ()

    def test_no_blank_in_output_and_idempotent_when_repeat_free(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            length = int(rng.integers(1, 10))
            seq = rng.integers(0, 4, size=length)
            out = collapse(seq, blank=1)
            assert 1 not in out
            if all(x != y for x, y in zip(out, out[1:])):
                assert collapse(out, blank=1) == out

    @given(st.lists(st.integers(0, 3), max_size=12))
    def test_matches_reference(self, seq):
        assert collapse(seq, blank=1) == ref_collapse(seq, blank=1)

    def test_min_alignment_len(self):
        assert min_alignment_len([]) == 0
        assert min_alignment_len([7]) == 1
        assert min_alignment_len([7, 7]) == 3
        assert min_alignment_len([7, 8, 8, 8]) == 6


class TestForward:
    def test_uniform_half_table(self):
        # two positions, {a, blank} at 0.5 each: mass of {a-, -a, aa} = 0.75
        table = np.log(np.full((2, 2), 0.5))
        got = ctc_forward(table, [0], blank=1)
        assert got == pytest.approx(math.log(0.75), abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            vocab = int(rng.integers(2, 5))
            blank = 1 if vocab > 1 else 0
            length = int(rng.integers(1, 7))
            symbols = [s for s in range(vocab) if s != blank]
            tgt_len = int(rng.integers(0, min(length, 4) + 1))
            target = tuple(symbols[int(rng.integers(0, len(symbols)))] for _ in range(tgt_len))
            values = random_table(rng, length, vocab)
            want = brute_marginal(values, target, blank, vocab)
            got = ctc_forward(values, target, blank=blank)
            if want == 0.0:
                assert got == float("-inf")
            else:
                assert math.exp(got) == pytest.approx(want, rel=1e-9)

    def test_empty_target_is_all_blank_path(self):
        rng = np.random.default_rng(3)
        values = random_table(rng, 4, 3)
        got = ctc_forward(values, [], blank=1)
        assert got == pytest.approx(float(values[:, 1].sum()), rel=1e-12)

    def test_infeasible_is_neg_inf(self):
        table = np.log(np.full((2, 3), 1 / 3))
        assert ctc_forward(table, [0, 0], blank=1) == float("-inf")

    def test_blank_in_target_rejected(self):
        table = np.log(np.full((3, 3), 1 / 3))
        with pytest.raises(ValueError):
            ctc_forward(table, [0, 1], blank=1)


class TestGrad:
    def test_single_position_single_token(self):
        table = np.log(np.array([[0.7, 0.3]]))
        g = -ctc_posteriors(table, [0], blank=1)
        assert g == pytest.approx(np.array([[-1.0, 0.0]]))

    def test_rows_sum_to_minus_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            values = random_table(rng, 5, 4)
            g = -ctc_posteriors(values, [0, 2], blank=1)
            assert np.allclose(g.sum(axis=1), -1.0, atol=1e-12)

    def test_posteriors_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        values = random_table(rng, 6, 4)
        post = ctc_posteriors(values, [2, 0, 2], blank=1)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(post >= 0)

    def test_finite_differences_free_variables(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(25):
            length = int(rng.integers(2, 7))
            vocab = int(rng.integers(2, 5))
            symbols = [s for s in range(vocab) if s != 1]
            tgt_len = int(rng.integers(1, 4))
            target = tuple(symbols[int(rng.integers(0, len(symbols)))] for _ in range(tgt_len))
            if min_alignment_len(target) > length:
                continue
            values = random_table(rng, length, vocab)
            g = -ctc_posteriors(values, target, blank=1)
            for j in range(length):
                for v in range(vocab):
                    up, dn = values.copy(), values.copy()
                    up[j, v] += h
                    dn[j, v] -= h
                    fd = (-ctc_forward(up, target, blank=1) - -ctc_forward(dn, target, blank=1)) / (2 * h)
                    assert abs(fd - g[j, v]) <= 1e-4 * max(1.0, abs(g[j, v]))

    def test_time_reversal_symmetry(self):
        # palindromic target + time-symmetric table -> gradient symmetric in time
        rng = np.random.default_rng(14)
        half = rng.normal(0, 1, size=(3, 4))
        values = log_softmax(np.concatenate([half, half[::-1]], axis=0))
        target = (0, 2, 0)
        g = -ctc_posteriors(values, target, blank=1)
        assert np.allclose(g, g[::-1], atol=1e-12)

    def test_infeasible_raises(self):
        table = np.log(np.full((2, 3), 1 / 3))
        with pytest.raises(InfeasibleTargetError):
            ctc_posteriors(table, [0, 0], blank=1)

    def test_logit_gradient_finite_differences(self):
        rng = np.random.default_rng(15)
        h = 1e-5
        for _ in range(10):
            logits = rng.normal(0, 2, size=(5, 4))
            target = (0, 2)
            loss, g = ctc_loss_logits(logits, target, blank=1)
            assert loss > 0
            for j in range(5):
                for v in range(4):
                    up, dn = logits.copy(), logits.copy()
                    up[j, v] += h
                    dn[j, v] -= h
                    fd = (ctc_loss_logits(up, target, blank=1)[0] - ctc_loss_logits(dn, target, blank=1)[0]) / (2 * h)
                    assert abs(fd - g[j, v]) <= 1e-4 * max(1.0, abs(g[j, v]))

    def test_loss_is_exactly_minus_public_marginal(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            length = int(rng.integers(1, 9))
            vocab = int(rng.integers(2, 6))
            blank = int(rng.integers(0, vocab))
            symbols = [s for s in range(vocab) if s != blank]
            target = tuple(int(rng.choice(symbols)) for _ in range(int(rng.integers(0, 5))))
            if min_alignment_len(target) > length:
                continue
            logits = rng.normal(0, 2, size=(length, vocab))
            loss, _ = ctc_loss_logits(logits, target, blank=blank)
            assert loss == -ctc_forward(log_softmax(logits), target, blank=blank)

class TestViterbi:
    def test_hand_example_prefers_early_emission_mass(self):
        # p1(a)=0.9, p2(a)=0.2, remainder on blank: best path is a then blank
        table = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        alignment, score = viterbi_align(table, [0], blank=1)
        assert alignment == (0, 1)
        assert score == pytest.approx(math.log(0.9 * 0.8), rel=1e-12)

    def test_exact_tie_emits_earlier(self):
        table = np.log(np.full((2, 2), 0.5))
        alignment, score = viterbi_align(table, [0], blank=1)
        assert alignment == (0, 1)  # a- preferred over -a and aa
        assert score == pytest.approx(math.log(0.25), rel=1e-12)

    def test_matches_enumerated_argmax(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            vocab = int(rng.integers(2, 5))
            blank = 1
            length = int(rng.integers(1, 7))
            symbols = [s for s in range(vocab) if s != blank]
            tgt_len = int(rng.integers(0, min(length, 4) + 1))
            target = tuple(symbols[int(rng.integers(0, len(symbols)))] for _ in range(tgt_len))
            if min_alignment_len(target) > length:
                continue
            values = random_table(rng, length, vocab)
            alignment, score = viterbi_align(values, target, blank=blank)
            paths = product_alignments(target, length, vocab, blank)
            best = max(sum(values[j, s] for j, s in enumerate(p)) for p in paths)
            assert score == pytest.approx(best, rel=1e-12)
            assert sum(values[j, s] for j, s in enumerate(alignment)) == pytest.approx(best, rel=1e-12)
            assert ref_collapse(alignment, blank) == target

    def test_score_never_exceeds_marginal(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            values = random_table(rng, 6, 4)
            target = (0, 2, 3)
            _, score = viterbi_align(values, target, blank=1)
            assert score <= ctc_forward(values, target, blank=1) + 1e-12

    def test_raising_path_mass_never_lowers_score(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            values = random_table(rng, 6, 4)
            target = (0, 3)
            alignment, score = viterbi_align(values, target, blank=1)
            j = int(rng.integers(0, 6))
            bumped = values.copy()
            bumped[j, alignment[j]] += 0.5
            _, score2 = viterbi_align(bumped, target, blank=1)
            assert score2 >= score - 1e-12

    def test_infeasible_raises(self):
        table = np.log(np.full((1, 3), 1 / 3))
        with pytest.raises(InfeasibleTargetError):
            viterbi_align(table, [0, 2], blank=1)


    @settings(max_examples=400)
    @given(tie_heavy_cases())
    def test_matches_per_state_loop(self, case):
        values, target, blank = case
        try:
            want = _viterbi_loop(values, target, blank)
        except InfeasibleTargetError:
            with pytest.raises(InfeasibleTargetError):
                viterbi_align(values, target, blank=blank)
            return
        assert viterbi_align(values, target, blank=blank) == want

class TestLogProbTable:
    def test_alignment_log_prob_matches_viterbi_score(self):
        rng = np.random.default_rng(32)
        values = random_table(rng, 5, 4)
        alignment, score = viterbi_align(values, (0, 2), blank=1)
        assert alignment_log_prob(values, alignment) == pytest.approx(score, rel=1e-12)
