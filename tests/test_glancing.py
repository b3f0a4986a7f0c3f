import math

import numpy as np
import pytest

from natkit.glancing import (
    GlanceMask,
    glance_count,
    glance_inputs_ctc,
    hamming,
    sample_glance,
)
from natkit.training import TrainConfig


class TestSchedule:
    # the glancing ratio a training run reads off its TrainConfig
    def test_default_endpoints(self):
        hyper = TrainConfig(steps=1000, glat_start=0.5)
        assert hyper.glance_ratio(0) == 0.5
        assert hyper.glance_ratio(1000) == pytest.approx(0.3)

    def test_midpoint_and_clamp(self):
        hyper = TrainConfig(steps=100, glat_start=0.5)
        assert hyper.glance_ratio(50) == pytest.approx(0.4)
        assert hyper.glance_ratio(250) == hyper.glance_ratio(100) == pytest.approx(0.3)

    def test_monotone_nonincreasing(self):
        hyper = TrainConfig(steps=17, glat_start=0.5)
        vals = [hyper.glance_ratio(u) for u in range(40)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_none_without_glancing(self):
        assert TrainConfig().glance_ratio(1) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="glat_start"):
            TrainConfig(glat_start=1.2)
        with pytest.raises(ValueError, match="glat_start"):
            TrainConfig(glat_start=-0.1)
        with pytest.raises(ValueError, match="glat_slope"):
            TrainConfig(glat_start=0.1, glat_slope=0.2)
        with pytest.raises(ValueError, match="glat_slope"):
            TrainConfig(glat_start=0.1, glat_slope=-0.1)
        with pytest.raises(ValueError, match="steps"):
            TrainConfig(steps=0, glat_start=0.5)
        # the ratio may end at exactly 0; without glancing the slope is unread
        TrainConfig(glat_start=0.3, glat_slope=0.3)
        TrainConfig(glat_slope=-1.0)


class TestHamming:
    def test_counts_mismatches(self):
        assert hamming((1, 2, 3), (1, 9, 3)) == 1
        assert hamming((1, 2), (1, 2)) == 0
        assert hamming((1, 2), (3, 4)) == 2

    def test_strict_rejects_unequal(self):
        with pytest.raises(ValueError):
            hamming((1,), (1, 2))


class TestGlanceCount:
    def test_identical_prediction_gives_zero(self):
        assert glance_count((5, 6, 7), (5, 6, 7), 0.5) == 0

    def test_hand_case(self):
        # I=4, two mismatches, lambda 0.5 -> floor(1.0) = 1
        assert glance_count((5, 6, 7, 8), (5, 6, 9, 9), 0.5) == 1

    def test_floor(self):
        assert glance_count((5, 6, 7), (9, 9, 7), 0.45) == 0  # floor(0.9)

    def test_capped_by_length(self):
        assert glance_count((5,), (6,), 1.0) == 1

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            glance_count((5,), (5,), 1.5)

    def test_better_prediction_never_increases_count(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            target = rng.integers(5, 10, size=n)
            pred = rng.integers(5, 10, size=n)
            # improve pred by copying some target positions
            better = pred.copy()
            fix = rng.integers(0, 2, size=n).astype(bool)
            better[fix] = target[fix]
            lam = float(rng.uniform(0, 1))
            assert glance_count(tuple(target), tuple(better), lam) <= glance_count(
                tuple(target), tuple(pred), lam
            )


class TestSampleGlance:
    def test_sizes_and_range(self):
        mask = sample_glance((5, 6, 7, 8), 2, rng=np.random.default_rng(0))
        assert len(mask) == 2
        assert all(0 <= p < 4 for p in mask.positions)
        assert mask.revealed == tuple((5, 6, 7, 8)[p] for p in mask.positions)

    def test_empty_and_full(self):
        assert len(sample_glance((5, 6), 0, rng=np.random.default_rng(1))) == 0
        full = sample_glance((5, 6), 2, rng=np.random.default_rng(1))
        assert full.positions == (0, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sample_glance((5, 6), 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_glance((5, 6), -1, rng=np.random.default_rng(0))

    def test_deterministic_per_seed(self):
        a = sample_glance(tuple(range(5, 15)), 4, rng=np.random.default_rng(42))
        b = sample_glance(tuple(range(5, 15)), 4, rng=np.random.default_rng(42))
        assert a == b

    def test_uniform_over_positions(self):
        # S=1 over 4 positions, 10^4 draws: each frequency within +-0.02 of 0.25
        target = (5, 6, 7, 8)
        rng = np.random.default_rng(1234)
        counts = np.zeros(4)
        n = 10_000
        for _ in range(n):
            counts[sample_glance(target, 1, rng).positions[0]] += 1
        assert np.all(np.abs(counts / n - 0.25) <= 0.02)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            GlanceMask((1, 1), (5, 5), 3)
        with pytest.raises(ValueError):
            GlanceMask((3,), (5,), 3)
        with pytest.raises(ValueError):
            GlanceMask((0, 1), (5,), 3)


class TestGlanceInputsCtc:
    # Fixed table over {a=0, blank=1, b=2}: the Viterbi alignment of [a] is
    # "a-" while the raw argmax string is "bb", so d = 2 and lambda=0.5
    # reveals floor(0.5 * 2) = 1 position.
    TABLE = np.log(np.array([[0.3, 0.2, 0.5], [0.2, 0.3, 0.5]]))

    def test_hand_case(self):
        mask, aligned = glance_inputs_ctc((0,), self.TABLE, 0.5, rng=np.random.default_rng(0))
        assert aligned == (0, 1)
        assert len(mask) == 1
        assert mask.target_len == 2
        assert mask.revealed == (aligned[mask.positions[0]],)

    def test_schedule_end_value_reveals_nothing(self):
        lam = TrainConfig(steps=10, glat_start=0.5).glance_ratio(10)  # 0.3 -> floor(0.6) = 0
        mask, aligned = glance_inputs_ctc((0,), self.TABLE, lam, rng=np.random.default_rng(0))
        assert len(mask) == 0
        assert aligned == (0, 1)

    def test_deterministic(self):
        a = glance_inputs_ctc((0,), self.TABLE, 0.5, rng=np.random.default_rng(7))
        b = glance_inputs_ctc((0,), self.TABLE, 0.5, rng=np.random.default_rng(7))
        assert a == b

    def test_perfect_first_pass_reveals_nothing(self):
        table = np.log(np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]]))
        mask, aligned = glance_inputs_ctc((0,), table, 0.5, rng=np.random.default_rng(0))
        assert aligned == (0, 1)
        assert len(mask) == 0
