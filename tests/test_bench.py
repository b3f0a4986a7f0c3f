import time
from fractions import Fraction

import pytest

import natkit.bench
from natkit.bench import BenchError, LatencyStats, format_bench_table, speedup, time_decode

CORPUS = ["s1", "s2", "s3", "s4", "s5"]


def sleeper(seconds):
    def decode(sentence):
        time.sleep(seconds)
        return sentence

    return decode


class FakeClock:
    """Stands in for ``natkit.bench``'s ``time``; decoders advance it by hand.

    It counts in exact fractions of a second, so every run reads the same.
    """

    def __init__(self):
        self.now = Fraction(0)

    def perf_counter(self):
        return self.now

    def advance_ms(self, ms):
        self.now += Fraction(ms, 1000)


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(natkit.bench, "time", fake)
    return fake


class TestTimeDecode:
    def test_sleeping_decoder_mean(self):
        stats = time_decode(sleeper(0.010), CORPUS, runs=2, warmup=1, label="slow")
        assert 9.0 <= stats.mean_ms <= 30.0
        assert stats.label == "slow"
        assert stats.runs == 2
        assert stats.n_sentences == 5

    def test_single_run_has_zero_std(self):
        stats = time_decode(sleeper(0.001), CORPUS, runs=1, warmup=0)
        assert stats.std_ms == 0.0

    def test_std_nonnegative(self):
        stats = time_decode(sleeper(0.001), CORPUS, runs=3, warmup=0)
        assert stats.std_ms >= 0.0

    def test_per_sentence_mean_scale_invariant(self, clock):
        for corpus in (CORPUS, CORPUS * 2):
            stats = time_decode(lambda s: clock.advance_ms(2), corpus, runs=2, warmup=1)
            assert stats.mean_ms == pytest.approx(2.0, abs=1e-9)
            assert stats.std_ms == 0.0

    def test_warmup_excluded_from_timing(self, clock):
        calls = {"n": 0}

        def cold_start(sentence):
            calls["n"] += 1
            clock.advance_ms(50 if calls["n"] <= 3 else 2)

        stats = time_decode(cold_start, CORPUS, runs=1, warmup=3)
        assert stats.mean_ms == pytest.approx(2.0, abs=1e-9)
        assert stats.std_ms == 0.0

    def test_every_sentence_decoded_each_run(self):
        seen = []
        time_decode(seen.append, CORPUS, runs=2, warmup=3)
        assert seen == CORPUS[:3] + CORPUS + CORPUS

    def test_errors(self):
        with pytest.raises(BenchError):
            time_decode(sleeper(0), [], runs=1)
        with pytest.raises(BenchError):
            time_decode(sleeper(0), CORPUS, runs=0)
        with pytest.raises(BenchError):
            time_decode(sleeper(0), CORPUS, warmup=-1)


class TestSpeedup:
    def stats(self, label, mean):
        return LatencyStats(label=label, mean_ms=mean, std_ms=0.0, runs=3, n_sentences=5)

    def test_identical_is_one(self):
        a = self.stats("a", 50.0)
        assert speedup(a, a) == pytest.approx(1.0)

    def test_eight_times(self):
        assert speedup(self.stats("at", 100.0), self.stats("nat", 12.5)) == pytest.approx(8.0)

    def test_transitive(self):
        a, b, c = self.stats("a", 80.0), self.stats("b", 20.0), self.stats("c", 5.0)
        assert speedup(a, c) == pytest.approx(speedup(a, b) * speedup(b, c))

    def test_zero_mean_rejected(self):
        with pytest.raises(BenchError):
            speedup(self.stats("a", 0.0), self.stats("b", 1.0))

    def test_invalid_stats_rejected(self):
        with pytest.raises(BenchError):
            LatencyStats(label="x", mean_ms=1.0, std_ms=-0.1, runs=3, n_sentences=1)
        with pytest.raises(BenchError):
            LatencyStats(label="x", mean_ms=1.0, std_ms=0.0, runs=0, n_sentences=1)


class TestFormatTable:
    def test_tsv_shape(self):
        at = LatencyStats(label="at", mean_ms=100.0, std_ms=1.5, runs=3, n_sentences=5)
        nat = LatencyStats(label="nat", mean_ms=12.5, std_ms=0.25, runs=3, n_sentences=5)
        text = format_bench_table([at, nat], base_label="at")
        lines = text.strip().split("\n")
        assert lines[0] == "label\tmean_ms\tstd_ms\truns\tspeedup_vs_base"
        assert lines[1] == "at\t100.000\t1.500\t3\t1.0"
        assert lines[2] == "nat\t12.500\t0.250\t3\t8.0"

    def test_unknown_base(self):
        at = LatencyStats(label="at", mean_ms=1.0, std_ms=0.0, runs=1, n_sentences=1)
        with pytest.raises(BenchError):
            format_bench_table([at], base_label="missing")
