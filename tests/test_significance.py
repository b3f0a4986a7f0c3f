import pytest

from natkit.metrics import METRICS
from natkit.significance import (
    BootstrapResult,
    SignificanceError,
    SystemRun,
    TableRow,
    format_table,
    mark_table,
    paired_bootstrap,
)

REFS = [f"w{i} alpha beta gamma delta epsilon" for i in range(40)]


def run(label, hyps):
    return SystemRun(label, tuple(hyps))


def degraded(refs, word, every):
    return [r.replace(word, "xx") if i % every == 0 else r for i, r in enumerate(refs)]


class TestPairedBootstrap:
    def test_identical_systems_never_significant(self):
        a = run("a", REFS)
        b = run("b", REFS)
        for seed in range(20):
            res = paired_bootstrap(a, b, REFS, "bleu", seed=seed)
            assert res.p_value == 1.0
            assert res.winner == "tie"
            assert not res.significant

    def test_equal_scores_tie_even_with_different_text(self):
        # same single error in both systems, placed on different sentences
        a = run("a", degraded(REFS, "beta", 40))
        b = run("b", [REFS[0]] + degraded(REFS[1:], "beta", 39))
        res = paired_bootstrap(a, b, REFS, "bleu")
        assert res.winner == "tie" and res.p_value == 1.0

    def test_strict_dominance_p_at_floor(self):
        base = run("base", degraded(REFS, "gamma", 1))
        cand = run("cand", REFS)
        res = paired_bootstrap(base, cand, REFS, "bleu", n_resamples=1000)
        assert res.winner == "cand"
        assert res.p_value == pytest.approx(1 / 1001)
        assert res.p_value <= 0.001
        assert res.significant

    def test_ter_direction(self):
        # lower TER wins: the error-free system dominates
        base = run("base", degraded(REFS, "delta", 1))
        cand = run("cand", REFS)
        res = paired_bootstrap(base, cand, REFS, "ter")
        assert res.winner == "cand"
        assert res.cand_value < res.base_value
        assert res.p_value == pytest.approx(1 / 1001)

    def test_worse_candidate_loses(self):
        base = run("base", REFS)
        cand = run("cand", degraded(REFS, "gamma", 1))
        res = paired_bootstrap(base, cand, REFS, "bleu")
        assert res.winner == "base"
        assert res.p_value == pytest.approx(1 / 1001)

    def test_deterministic_per_seed(self):
        base = run("b", degraded(REFS, "gamma", 4))
        cand = run("c", degraded(REFS, "beta", 5))
        r1 = paired_bootstrap(base, cand, REFS, seed=7)
        r2 = paired_bootstrap(base, cand, REFS, seed=7)
        assert r1 == r2

    def test_stable_across_seeds(self):
        base = run("b", degraded(REFS, "gamma", 4))
        cand = run("c", degraded(REFS, "beta", 5))
        ps = [paired_bootstrap(base, cand, REFS, seed=s).p_value for s in range(6)]
        mean = sum(ps) / len(ps)
        assert 0.05 < mean < 0.95
        assert max(abs(p - mean) for p in ps) <= 0.02

    def test_symmetric_under_swap(self):
        a = run("a", degraded(REFS, "gamma", 4))
        b = run("b", degraded(REFS, "beta", 5))
        fwd = paired_bootstrap(a, b, REFS, seed=3)
        rev = paired_bootstrap(b, a, REFS, seed=3)
        assert fwd.p_value == rev.p_value
        assert {fwd.winner, rev.winner} == {"base", "cand"}

    def test_p_in_unit_interval(self):
        base = run("b", degraded(REFS, "gamma", 2))
        cand = run("c", degraded(REFS, "beta", 3))
        for metric in ("bleu", "chrf", "ter"):
            p = paired_bootstrap(base, cand, REFS, metric).p_value
            assert 0.0 < p <= 1.0

    def test_errors(self):
        a = run("a", REFS)
        with pytest.raises(SignificanceError):
            paired_bootstrap(a, run("b", REFS[:-1]), REFS)
        with pytest.raises(SignificanceError):
            paired_bootstrap(a, a, REFS, n_resamples=50)
        with pytest.raises(SignificanceError):
            paired_bootstrap(a, a, REFS, "comet")


class TestMarkTable:
    def blocks(self):
        return [
            [run("Vanilla", degraded(REFS, "alpha", 2))],
            [
                run("CTC", degraded(REFS, "gamma", 4)),
                run("+GLAT", degraded(REFS, "gamma", 8)),
                run("+GLAT+DS", degraded(REFS, "gamma", 10)),
            ],
            [run("CTC-wide", degraded(REFS, "gamma", 5))],
        ]

    def test_protocol_pairing(self):
        rows = mark_table(self.blocks(), REFS, "bleu")
        bases = {r.system: r.base for r in rows}
        assert bases == {
            "Vanilla": None,
            "CTC": "Vanilla",
            "+GLAT": "CTC",
            "+GLAT+DS": "+GLAT",
            "CTC-wide": "Vanilla",
        }
        assert sum(r.p_value is not None for r in rows) == len(rows) - 1

    def test_values_and_daggers(self):
        blocks = [
            [run("root", degraded(REFS, "gamma", 1))],
            [run("same", degraded(REFS, "gamma", 1)), run("+better", REFS)],
        ]
        rows = {r.system: r for r in mark_table(blocks, REFS, "bleu")}
        assert rows["root"].p_value is None and not rows["root"].dagger
        assert rows["same"].p_value == 1.0 and rows["same"].dagger
        assert rows["+better"].p_value <= 0.001 and not rows["+better"].dagger

    def test_single_row_block_alone_makes_no_comparison(self):
        rows = mark_table([[run("only", REFS)]], REFS)
        assert len(rows) == 1
        assert rows[0].base is None and rows[0].p_value is None

    def test_deterministic(self):
        assert mark_table(self.blocks(), REFS, seed=5) == mark_table(self.blocks(), REFS, seed=5)

    def test_each_system_scored_once(self, monkeypatch):
        calls = []
        scorer = METRICS["bleu"]

        def counted(hyps, refs):
            calls.append(1)
            return scorer(hyps, refs)

        monkeypatch.setitem(METRICS, "bleu", counted)
        rows = mark_table(self.blocks()[:2], REFS, "bleu")
        assert len(rows) == 4
        assert len(calls) == 4

    def test_rows_match_pairwise_bootstrap(self):
        blocks = self.blocks()
        rows = {r.system: r for r in mark_table(blocks, REFS, "chrf", seed=2, n_resamples=200)}
        ctc, glat = blocks[1][0], blocks[1][1]
        res = paired_bootstrap(ctc, glat, REFS, "chrf", seed=2, n_resamples=200)
        assert (rows["+GLAT"].value, rows["+GLAT"].p_value) == (res.cand_value, res.p_value)

    def test_errors(self):
        with pytest.raises(SignificanceError):
            mark_table([], REFS)
        with pytest.raises(SignificanceError):
            mark_table([[]], REFS)
        with pytest.raises(SignificanceError):
            mark_table([[run("+child", REFS)]], REFS)
        with pytest.raises(SignificanceError):
            mark_table([[run("root", REFS), run("child", REFS)]], REFS)
        with pytest.raises(SignificanceError):
            mark_table([[run("root", REFS), run("+A+B", REFS)]], REFS)
        with pytest.raises(SignificanceError):
            mark_table([[run("root", REFS), run("+A", REFS), run("+A", REFS)]], REFS)
        with pytest.raises(SignificanceError):
            mark_table([[run("root", REFS), run("+A", REFS[:-1])]], REFS)
        with pytest.raises(SignificanceError):
            mark_table([[run("root", REFS)]], REFS, "comet")


class TestFormatTable:
    def test_tsv_shape(self):
        rows = [
            TableRow("root", 55.5, None, None, False),
            TableRow("+X", 57.25, "root", 0.0312, False),
            TableRow("+X+Y", 57.0, "+X", 0.44, True),
        ]
        text = format_table(rows, "bleu")
        lines = text.strip().split("\n")
        assert lines[0] == "system\tmetric\tvalue\tbase\tp\tdagger"
        assert lines[1] == "root\tbleu\t55.5000\t-\t-\tn"
        assert lines[2] == "+X\tbleu\t57.2500\troot\t0.0312\tn"
        assert lines[3] == "+X+Y\tbleu\t57.0000\t+X\t0.4400\ty"
