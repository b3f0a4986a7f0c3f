import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from natkit.corpus import (
    BLANK_ID,
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SPECIALS,
    UNK_ID,
    CorpusError,
    ParallelCorpus,
    TokenSeq,
    Vocabulary,
    build_vocab,
    detokenize,
    read_lines,
    read_parallel,
    synth_task,
    synth_vocab,
    tokenize_13a,
    write_lines,
    write_parallel,
)


class TestVocabulary:
    def test_specials_occupy_lowest_ids_in_order(self):
        v = Vocabulary.from_tokens(["dog", "cat"])
        assert v.tokens[:5] == SPECIALS
        assert (UNK_ID, BLANK_ID, PAD_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3, 4)
        assert v.encode(["<blank>"]) == (BLANK_ID,)

    def test_dense_ids_and_roundtrip(self):
        v = Vocabulary.from_tokens(["b", "a", "c"])
        assert v.encode(v.tokens) == tuple(range(len(v)))
        assert v.decode(range(len(v))) == v.tokens
        ids = v.encode(["a", "c", "b"])
        assert v.decode(ids) == ("a", "c", "b")

    def test_unknown_token_encodes_to_unk(self):
        v = Vocabulary.from_tokens(["a"])
        assert v.encode(["zzz"]) == (UNK_ID,)

    def test_duplicate_token_rejected(self):
        with pytest.raises(CorpusError):
            Vocabulary.from_tokens(["a", "a"])

    def test_misplaced_specials_rejected(self):
        with pytest.raises(CorpusError):
            Vocabulary(tokens=("a",) + SPECIALS)

    def test_content_ids(self):
        v = Vocabulary.from_tokens(["x", "y"])
        assert list(v.content_ids) == [5, 6]


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        sents = [["b", "b", "a", "c"], ["c", "b"]]
        v = build_vocab(sents)
        # b:3, c:2, a:1 -> b, c, a after the specials
        assert v.tokens[5:] == ("b", "c", "a")

    def test_tie_broken_lexicographically(self):
        v = build_vocab([["z", "a", "m"]])
        assert v.tokens[5:] == ("a", "m", "z")

    def test_special_collision_rejected(self):
        with pytest.raises(CorpusError):
            build_vocab([["<unk>", "a"]])


class TestTokenSeq:
    def test_blank_forbidden(self):
        with pytest.raises(CorpusError):
            TokenSeq((5, BLANK_ID, 6))


class TestTokenize13a:
    def test_plain_words_untouched(self):
        assert tokenize_13a("the cat sat") == ["the", "cat", "sat"]

    def test_terminal_punctuation_split(self):
        assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_period_between_digits_kept(self):
        assert tokenize_13a("pi is 3.14 now") == ["pi", "is", "3.14", "now"]

    def test_period_after_word_split(self):
        assert tokenize_13a("the end.") == ["the", "end", "."]

    def test_comma_between_digits_kept(self):
        assert tokenize_13a("1,000") == ["1,000"]
        assert tokenize_13a("a,b") == ["a", ",", "b"]

    def test_hyphen_after_digit_split(self):
        assert tokenize_13a("a 3-way tie") == ["a", "3", "-", "way", "tie"]

    def test_hyphen_between_letters_kept(self):
        assert tokenize_13a("state-of-the-art") == ["state-of-the-art"]

    def test_entities_unescaped(self):
        assert tokenize_13a("&quot;hi&quot; &amp; bye") == ['"', "hi", '"', "&", "bye"]
        assert tokenize_13a("1 &lt; 2 &gt; 0") == ["1", "<", "2", ">", "0"]

    def test_skipped_spans_removed(self):
        assert tokenize_13a("keep <skipped> this") == ["keep", "this"]

    def test_newlines_become_spaces(self):
        assert tokenize_13a("one\ntwo") == ["one", "two"]
        assert tokenize_13a("hy-\nphen") == ["hyphen"]

    def test_symbols_always_split(self):
        assert tokenize_13a("(a+b)/c") == ["(", "a", "+", "b", ")", "/", "c"]

    @given(st.text(alphabet=st.characters(codec="ascii", exclude_categories=("Cc",)), max_size=60))
    def test_idempotent_on_ascii(self, text):
        once = tokenize_13a(text)
        again = tokenize_13a(" ".join(once))
        assert once == again


def _shift_map(src, k, lo, n_content):
    return [lo + ((i - lo + k) % n_content) for i in src]


class TestSynthTask:
    def test_deterministic_given_seed(self):
        a = synth_task(50, (3, 8), 2, seed=9)
        b = synth_task(50, (3, 8), 2, seed=9)
        assert a.pairs == b.pairs
        c = synth_task(50, (3, 8), 2, seed=10)
        assert a.pairs != c.pairs

    def test_lengths(self):
        corpus = synth_task(100, (3, 8), 1, seed=0)
        for src, tgt in corpus:
            assert 3 <= len(src) <= 8
            assert len(tgt) == len(src) + 1

    def test_no_specials_in_content(self):
        corpus = synth_task(100, (2, 6), 2, seed=1, n_words=10)
        for src, tgt in corpus:
            assert all(i >= len(SPECIALS) for i in src.ids)
            assert all(i >= len(SPECIALS) for i in tgt.ids)

    def test_single_mode_is_deterministic_mapping(self):
        lo, n = len(SPECIALS), 12
        corpus = synth_task(200, (2, 7), 1, seed=3, n_words=n)
        for src, tgt in corpus:
            want = _shift_map(src.ids, 1, lo, n) + [_shift_map(src.ids, 1, lo, n)[0]]
            assert list(tgt.ids) == want

    def test_two_modes_both_occur(self):
        lo, n = len(SPECIALS), 12
        corpus = synth_task(1000, (2, 7), 2, seed=5, n_words=n)
        seen = {0: 0, 1: 0}
        for src, tgt in corpus:
            m0 = _shift_map(src.ids, 1, lo, n)
            m0 = m0 + [m0[0]]
            m1 = _shift_map(src.ids, 2, lo, n)[::-1]
            m1 = m1 + [m1[0]]
            assert list(tgt.ids) in (m0, m1)
            if list(tgt.ids) == m0:
                seen[0] += 1
            if list(tgt.ids) == m1:
                seen[1] += 1
        assert seen[0] > 100 and seen[1] > 100

    def test_zero_modes_rejected(self):
        with pytest.raises(CorpusError):
            synth_task(10, (2, 5), 0, seed=0)


class TestFiles:
    def test_line_roundtrip(self, tmp_path):
        p = tmp_path / "x.txt"
        write_lines(p, ["a b", "c"])
        assert p.read_bytes() == b"a b\nc\n"
        assert read_lines(p) == ["a b", "c"]

    def test_read_lines_edges(self, tmp_path):
        p = tmp_path / "x.txt"
        for body, lines in [(b"", []), (b"\n", [""]), (b"\n\n", ["", ""]),
                            (b"a\r\n\r\nb", ["a", "", "b"])]:
            p.write_bytes(body)
            assert read_lines(p) == lines

    def test_not_utf8_names_line(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_bytes(b"a\r\nb\n\xe9t\xe9\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(p))}:3: not valid UTF-8$"):
            read_lines(p)

    def test_parallel_roundtrip(self, tmp_path):
        v = synth_vocab(8)
        corpus = synth_task(20, (2, 5), 2, seed=2, n_words=8)
        sp, tp = tmp_path / "src.txt", tmp_path / "tgt.txt"
        write_parallel(corpus, v, sp, tp)
        back = read_parallel(v, sp, tp)
        assert [p[0].ids for p in back] == [p[0].ids for p in corpus]
        assert [p[1].ids for p in back] == [p[1].ids for p in corpus]

    def test_misaligned_parallel_rejected(self, tmp_path):
        sp, tp = tmp_path / "s.txt", tmp_path / "t.txt"
        write_lines(sp, ["a", "b"])
        write_lines(tp, ["a"])
        with pytest.raises(CorpusError):
            read_parallel(synth_vocab(4), sp, tp)

    def test_detokenize(self):
        v = synth_vocab(4)
        assert detokenize(v, v.encode(["w00", "w03"])) == "w00 w03"
