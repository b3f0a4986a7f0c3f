import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natkit import metrics
from natkit.metrics import (
    METRICS,
    MetricError,
    SIG_BLEU,
    SIG_CHRF,
    SIG_TER,
    _chrf_words,
    bleu,
    bleu_score_from_stats,
    bucketed_bleu,
    chrf_score_from_stats,
    chrfpp,
    levenshtein,
    ter,
    ter_score_from_stats,
    ter_sentence_edits,
    tokenize_tercom,
)

IDENT = ["the quick brown fox jumps", "over the lazy dog again"]


def _levenshtein_dp(a, b) -> int:
    """O(n·m) Wagner-Fischer table: the oracle for the bit-parallel kernel."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _ter_all_candidates(hyp, ref):
    """The greedy shift search scored the direct way: every candidate block
    move is built and its distance taken afresh with ``_levenshtein_dp``.
    Candidates, scan order and the strict tie rule are the library's.
    Returns the edit count and each search's (best candidate, saving)."""
    current = list(hyp)
    dist = _levenshtein_dp(current, ref)
    moves, shifts = [], 0
    while dist > 0:
        best, best_delta = None, 0
        for start in range(len(current)):
            for span in range(1, min(metrics.TER_MAX_SHIFT_SIZE, len(current) - start) + 1):
                piece = current[start:start + span]
                if not any(ref[i:i + span] == piece for i in range(len(ref) - span + 1)):
                    continue
                rest = current[:start] + current[start + span:]
                for ins in range(len(rest) + 1):
                    if ins == start or abs(ins - start) > metrics.TER_MAX_SHIFT_DIST:
                        continue
                    cand = rest[:ins] + piece + rest[ins:]
                    delta = dist - _levenshtein_dp(cand, ref)
                    if delta > best_delta:
                        best, best_delta = cand, delta
        moves.append((best, best_delta))
        if best is None:
            break
        current = best
        dist -= best_delta
        shifts += 1
    return shifts + dist, moves


class TestBleu:
    def test_identical_corpus_scores_100(self):
        assert bleu(IDENT, IDENT).value == pytest.approx(100.0, abs=1e-9)

    def test_hand_counted_oracle(self):
        # hyp "the cat sat on mat" vs ref "the cat sat on the mat"
        # unigrams: 5 of 5 clipped; bigrams: 3 of 4; trigrams: 2 of 3; 4-grams: 1 of 2
        # lengths 5 vs 6 -> brevity penalty exp(1 - 6/5)
        r = bleu(["the cat sat on mat"], ["the cat sat on the mat"])
        want = 100 * math.exp(1 - 6 / 5) * ((5 / 5) * (3 / 4) * (2 / 3) * (1 / 2)) ** 0.25
        assert r.value == pytest.approx(want, abs=1e-4)
        assert np.array_equal(r.sentence_stats[0], [5, 3, 2, 1, 5, 4, 3, 2, 5, 6])

    def test_exponential_smoothing_keeps_score_positive(self):
        # no matching 4-gram but full lower orders: smoothing gives p4 = 100/(2*1)
        r = bleu(["aa bb cc dd"], ["aa bb cc ee"])
        p1, p2, p3 = 3 / 4, 2 / 3, 1 / 2
        p4 = 1 / (2 * 1)
        want = 100 * (p1 * p2 * p3 * p4) ** 0.25
        assert r.value == pytest.approx(want, abs=1e-4)
        assert r.value > 0

    def test_smoothing_doubles_cumulatively(self):
        # matches only at order 1 -> smooth factor 2, 4, 8 for orders 2, 3, 4
        r = bleu(["aa xx bb yy"], ["aa qq bb rr"])
        p1 = (2 / 4) * 100
        p2, p3, p4 = 100 / (2 * 3), 100 / (4 * 2), 100 / (8 * 1)
        want = math.exp(sum(math.log(p) for p in (p1, p2, p3, p4)) / 4)
        assert r.value == pytest.approx(want, abs=1e-4)

    def test_brevity_penalty_only_when_shorter(self):
        long_hyp = np.array([4, 3, 2, 1, 4, 3, 2, 1, 8, 4], dtype=float)
        assert bleu_score_from_stats(long_hyp) == pytest.approx(
            100 * (((4 / 4) * (3 / 3) * (2 / 2) * (1 / 1))) ** 0.25
        )
        short_hyp = np.array([4, 3, 2, 1, 4, 3, 2, 1, 4, 8], dtype=float)
        assert bleu_score_from_stats(short_hyp) == pytest.approx(100 * math.exp(1 - 2))

    def test_empty_hypothesis_scores_zero(self):
        agg = np.zeros(10)
        agg[9] = 5
        assert bleu_score_from_stats(agg) == 0.0

    def test_signature(self):
        assert bleu(IDENT, IDENT).signature == SIG_BLEU
        base, version = SIG_BLEU.rsplit(" | ", 1)
        assert base == "nrefs:1 | case:mixed | eff:no | tok:13a | smooth:exp"
        assert version.startswith("version:")

    def test_corpus_value_recomputable_from_stats(self):
        r = bleu(["a b c d x", "q w e r"], ["a b c d y", "q w z r"])
        assert float(bleu_score_from_stats(r.sentence_stats.sum(axis=0))) == r.value

    def test_permutation_invariant(self):
        hyps = ["a b c d e", "f g h i", "j k l m n o"]
        refs = ["a b c d q", "f g h z", "j k x m n o"]
        straight = bleu(hyps, refs).value
        shuffled = bleu(hyps[::-1], refs[::-1]).value
        assert straight == pytest.approx(shuffled, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        batch = rng.integers(0, 20, size=(30, 10)).astype(float)
        batch[:, 4:8] = np.maximum(batch[:, 4:8], batch[:, 0:4])  # totals >= correct
        batch[:, 9] = np.maximum(batch[:, 9], 1)
        vec = bleu_score_from_stats(batch)
        for i in range(30):
            assert vec[i] == pytest.approx(float(bleu_score_from_stats(batch[i])), abs=1e-12)

    def test_errors(self):
        with pytest.raises(MetricError):
            bleu([], [])
        with pytest.raises(MetricError):
            bleu(["a"], ["a", "b"])

    def test_bounded(self):
        rng = np.random.default_rng(1)
        words = ["aa", "bb", "cc", "dd"]
        for _ in range(25):
            mk = lambda: " ".join(rng.choice(words, size=rng.integers(1, 8)))
            hyps = [mk() for _ in range(3)]
            refs = [mk() for _ in range(3)]
            v = bleu(hyps, refs).value
            assert 0.0 <= v <= 100.0 + 1e-9


class TestChrf:
    def test_identical_corpus_scores_100(self):
        assert chrfpp(IDENT, IDENT).value == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_characters_score_zero(self):
        assert chrfpp(["xy zq"], ["ab cd"]).value == 0.0

    def test_hand_counted_oracle(self):
        # char orders 1-4 give F = 3/4, 2/3, 1/2, 0; orders 5-6 empty on both
        # sides (excluded); word order 1 gives 0, order 2 empty. Five effective
        # orders in total.
        r = chrfpp(["abcd"], ["abce"])
        want = (3 / 4 + 2 / 3 + 1 / 2 + 0 + 0) / 5 * 100
        assert r.value == pytest.approx(want, abs=1e-4)

    def test_char_ngrams_cross_word_boundaries(self):
        stats = chrfpp(["ab cd"], ["abcd"]).sentence_stats[0]
        # order-2 char counts: both sides extract from "abcd"
        assert stats[3] == 3 and stats[4] == 3 and stats[5] == 3

    def test_word_punctuation_splitting(self):
        assert _chrf_words("hello, world") == ["hello", ",", "world"]
        assert _chrf_words("(x y)") == ["(", "x", "y", ")"]
        assert _chrf_words(".") == ["."]
        assert _chrf_words("a.b") == ["a.b"]
        assert _chrf_words("(ab)") == ["(ab", ")"]

    def test_signature(self):
        base, _ = chrfpp(IDENT, IDENT).signature.rsplit(" | ", 1)
        assert base == "nrefs:1 | case:mixed | eff:yes | nc:6 | nw:2 | space:no"

    def test_corpus_value_recomputable_from_stats(self):
        r = chrfpp(["ab cd", "efg"], ["ab ce", "efh"])
        assert float(chrf_score_from_stats(r.sentence_stats.sum(axis=0))) == r.value

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        batch = rng.integers(0, 15, size=(20, 24)).astype(float)
        for i in range(0, 24, 3):
            batch[:, i + 2] = np.minimum(batch[:, i + 2], np.minimum(batch[:, i], batch[:, i + 1]))
        vec = chrf_score_from_stats(batch)
        for i in range(20):
            assert vec[i] == pytest.approx(float(chrf_score_from_stats(batch[i])), abs=1e-12)


class TestTer:
    def test_identical_scores_zero(self):
        assert ter(IDENT, IDENT).value == 0.0

    def test_single_substitution(self):
        assert ter(["a b x d e"], ["a b c d e"]).value == pytest.approx(20.0)

    def test_shift_counts_one_edit(self):
        assert ter(["b a c d"], ["a b c d"]).value == pytest.approx(25.0)

    def test_block_shift(self):
        assert ter_sentence_edits(["c", "d", "a", "b"], ["a", "b", "c", "d"]) == 1

    def test_shift_only_when_it_reduces_edits(self):
        assert ter_sentence_edits(["x", "a", "b"], ["a", "b", "y"]) == 2

    def test_empty_hypothesis(self):
        assert ter([""], ["a b c d"]).value == pytest.approx(100.0)

    def test_can_exceed_100(self):
        assert ter(["a b c d e f"], ["x"]).value == pytest.approx(600.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(MetricError):
            ter(["a"], [""])

    def test_empty_reference_names_its_line(self):
        with pytest.raises(MetricError, match="^line 2: TER needs") as info:
            ter(["a", "b", "c"], ["a", " ", "c"])
        assert info.value.line == 2
        assert info.value.reason == "TER needs a non-empty reference sentence"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, k - 1).map(str), max_size=12),
                st.lists(st.integers(0, k - 1).map(str), min_size=1, max_size=12),
            )
        )
    )
    @example(([], ["0"]))
    @example(([], ["0", "1", "0"]))
    def test_search_matches_all_candidates_oracle(self, pair):
        # small vocabularies repeat words, so many shift candidates tie and
        # the move each search picks pins the scan order and the tie rule
        hyp, ref = pair
        moves = []
        best_shift = metrics._best_shift

        def recording(*args):
            moves.append(best_shift(*args))
            return moves[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_best_shift", recording)
            edits = ter_sentence_edits(hyp, ref)
        assert (edits, moves) == _ter_all_candidates(hyp, ref)

    @pytest.mark.parametrize("k, edits", [(50, 1), (51, 2)])
    def test_shift_distance_cap(self, k, edits):
        # X moves k positions left: one shift up to TER_MAX_SHIFT_DIST
        f = [f"f{i}" for i in range(k)]
        assert metrics.TER_MAX_SHIFT_DIST == 50
        assert ter_sentence_edits(f + ["X"], ["X"] + f) == edits

    @pytest.mark.parametrize("k, edits", [(10, 1), (11, 2)])
    def test_shift_size_cap(self, k, edits):
        # two swapped blocks of k words: one shift up to TER_MAX_SHIFT_SIZE
        a, b = [f"a{i}" for i in range(k)], [f"b{i}" for i in range(k)]
        assert metrics.TER_MAX_SHIFT_SIZE == 10
        assert ter_sentence_edits(b + a, a + b) == edits

    @pytest.mark.parametrize("moved, edits", [(50, 1), (51, 2)])
    def test_shift_distance_cap_past_64_words(self, moved, edits):
        # 71 words: the column is wider than one 64-bit machine word
        f = [f"f{i}" for i in range(70)]
        ref = f[:10] + ["X"] + f[10:]
        hyp = f[:10 + moved] + ["X"] + f[10 + moved:]
        assert ter_sentence_edits(hyp, ref) == edits

    def test_case_sensitive(self):
        assert ter(["A b"], ["a b"]).value == pytest.approx(50.0)

    def test_tdescom_tokenizer_whitespace_only(self):
        assert tokenize_tercom("  a   b  ") == ["a", "b"]
        assert tokenize_tercom("Don't, stop!") == ["Don't,", "stop!"]

    def test_corpus_value_recomputable_from_stats(self):
        r = ter(["a b", "c d e"], ["a x", "c d f"])
        assert float(ter_score_from_stats(r.sentence_stats.sum(axis=0))) == r.value

    def test_report_shape(self):
        r = ter(["a b"], ["a b"])
        assert r.n_sentences == 1
        assert r.to_dict() == {
            "metric": "ter",
            "value": 0.0,
            "signature": SIG_TER,
            "n_sentences": 1,
        }
        assert "ter = 0.00" in r.format_line()


class TestLevenshtein:
    def test_known_cases(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein([], ["a", "b"]) == 2

    @given(
        st.lists(st.sampled_from("abc"), max_size=8),
        st.lists(st.sampled_from("abc"), max_size=8),
        st.lists(st.sampled_from("abc"), max_size=8),
    )
    def test_metric_axioms(self, a, b, c):
        assert levenshtein(a, b) == levenshtein(b, a)
        assert (levenshtein(a, b) == 0) == (a == b)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, k - 1), max_size=90),
                st.lists(st.integers(0, k - 1), max_size=90),
            )
        )
    )
    def test_matches_dp_oracle(self, pair):
        # lengths past 64 cross a machine word; strings and tuples of ints too
        a, b = pair
        assert levenshtein(a, b) == _levenshtein_dp(a, b)
        assert levenshtein(tuple(a), tuple(b)) == _levenshtein_dp(a, b)
        sa, sb = "".join("abcd"[i] for i in a), "".join("abcd"[i] for i in b)
        assert levenshtein(sa, sb) == _levenshtein_dp(sa, sb)


class TestBucketedBleu:
    def test_single_bucket_equals_corpus(self):
        hyps = ["a b c d e", "f g h i"]
        refs = ["a b c d x", "f g h z"]
        rows = bucketed_bleu(hyps, refs, edges=(0,))
        assert len(rows) == 1
        label, value, n = rows[0]
        assert label == "[0,inf)"
        assert n == 2
        assert value == pytest.approx(bleu(hyps, refs).value)

    def test_counts_partition_corpus(self):
        hyps = ["a b", "c d e f g", "h i j k l m n o p q r s"]
        refs = ["a b", "c d e f g", "h i j k l m n o p q r s"]
        rows = bucketed_bleu(hyps, refs)
        assert sum(n for _, _, n in rows) == 3

    def test_hand_split(self):
        hyps = ["a b c d x", "p q r s t u v w x y z a"]
        refs = ["a b c d e", "p q r s t u v w x y z b"]
        rows = bucketed_bleu(hyps, refs, edges=(0, 10))
        assert rows[0][2] == 1 and rows[1][2] == 1
        assert rows[0][1] == pytest.approx(bleu(hyps[:1], refs[:1]).value)
        assert rows[1][1] == pytest.approx(bleu(hyps[1:], refs[1:]).value)

    def test_empty_bucket_reports_none(self):
        rows = bucketed_bleu(["a b c"], ["a b c"], edges=(0, 100))
        assert rows[1] == ("[100,inf)", None, 0)

    def test_bad_edges(self):
        with pytest.raises(MetricError):
            bucketed_bleu(["a"], ["a"], edges=(5, 2))

    def test_buckets_equal_their_subsets_scored_alone(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(8)]
        refs = [" ".join(rng.choice(words, size=rng.integers(1, 25))) for _ in range(60)]
        hyps = [" ".join(w if rng.random() > 0.3 else "zz" for w in r.split()) for r in refs]
        edges = (0, 5, 10, 15, 20)
        lengths = [len(r.split()) for r in refs]
        buckets = bucketed_bleu(hyps, refs, edges=edges)
        for lo, hi, (_, value, n) in zip(edges, edges[1:] + (np.inf,), buckets):
            rows = [i for i, m in enumerate(lengths) if lo <= m < hi]
            assert n == len(rows) > 0
            assert value == bleu([hyps[i] for i in rows], [refs[i] for i in rows]).value


class TestRegistry:
    def test_keys_name_their_reports(self):
        for name, score in METRICS.items():
            assert score(IDENT, IDENT).metric == name

    def test_report_direction(self):
        assert ter(IDENT, IDENT).lower_is_better
        assert not bleu(IDENT, IDENT).lower_is_better
        assert not chrfpp(IDENT, IDENT).lower_is_better

    @pytest.mark.parametrize("name", list(METRICS))
    def test_reports_compare_field_wise(self, name):
        hyps, refs = ["a b c", "d e"], ["a b d", "d e"]
        report = METRICS[name](hyps, refs)
        assert (report == METRICS[name](hyps, refs)) is True
        assert (report != METRICS[name](hyps, refs)) is False
        # same corpus score and signature, other sentence statistics
        swapped = METRICS[name](hyps[::-1], refs[::-1])
        assert swapped.value == report.value and report != swapped
        assert report != METRICS[name](["a b c", "d"], refs)
        other = "ter" if name != "ter" else "bleu"
        assert report != METRICS[other](hyps, refs)
        assert report != report.to_dict()

    @pytest.mark.parametrize("name", ["bleu", "chrf", "ter"])
    def test_equal_reports_hash_equal(self, name):
        hyps, refs = ["a b c", "d e"], ["a b d", "d e"]
        report = METRICS[name](hyps, refs)
        again = METRICS[name](hyps, refs)
        assert hash(report) == hash(again)
        assert len({report, again}) == 1
        assert len({report, METRICS[name](hyps[::-1], refs[::-1])}) == 2

    @pytest.mark.parametrize("name", list(METRICS))
    def test_sentence_stats_looked_up_at_call_time(self, monkeypatch, name):
        # a wrapper installed at the module name (a profiler's) must see every line
        hyps, refs = ["a b c", "d e", "f"], ["a b d", "d e", "g h"]
        calls = {key: [] for key in METRICS}
        for key in METRICS:
            original = getattr(metrics, f"{key}_sentence_stats")

            def counted(hyp, ref, key=key, original=original):
                calls[key].append((hyp, ref))
                return original(hyp, ref)

            monkeypatch.setattr(metrics, f"{key}_sentence_stats", counted)
        METRICS[name](hyps, refs)
        assert calls == {key: list(zip(hyps, refs)) if key == name else [] for key in METRICS}

    @pytest.mark.parametrize("name", list(METRICS))
    def test_rejected_sentence_names_its_line(self, monkeypatch, name):
        original = getattr(metrics, f"{name}_sentence_stats")

        def picky(hyp, ref):
            if hyp == "bad":
                raise MetricError("rejected")
            return original(hyp, ref)

        monkeypatch.setattr(metrics, f"{name}_sentence_stats", picky)
        with pytest.raises(MetricError, match="^line 3: rejected$") as info:
            METRICS[name](["a", "b", "bad", "bad"], ["a", "b", "c", "d"])
        assert (info.value.line, info.value.reason) == (3, "rejected")


class TestRescore:
    SCORERS = [(bleu_score_from_stats, 10), (chrf_score_from_stats, 24), (ter_score_from_stats, 2)]

    @pytest.mark.parametrize("score, k", SCORERS, ids=["bleu", "chrf", "ter"])
    def test_shape_follows_input_ndim(self, score, k):
        agg = np.arange(1, k + 1, dtype=float)
        assert np.shape(score(agg)) == ()
        assert np.shape(score(agg[None, :])) == (1,)
        assert np.shape(score(np.stack([agg, agg, agg]))) == (3,)
        assert score(agg[None, :])[0] == score(agg)

    @pytest.mark.parametrize("name", list(METRICS))
    def test_weights_rescore_the_corpus(self, name):
        hyps = ["a b c d", "e f g", "h i j k l"]
        refs = ["a b x d", "e f g", "h j i k l"]
        report = METRICS[name](hyps, refs)
        assert report.rescore(np.ones((1, 3))).tolist() == [report.value]
        singles = report.rescore(np.eye(3))
        assert singles.tolist() == [METRICS[name]([h], [r]).value for h, r in zip(hyps, refs)]
