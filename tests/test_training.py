import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import natkit.model
import natkit.training
from natkit.corpus import ParallelCorpus, TokenSeq, synth_task
from natkit.model import ModelConfig, init_params
from natkit.training import (
    AdamState,
    DivergedError,
    TrainConfig,
    _batch_pass,
    adam_update,
    lr_at,
    train_model,
    train_step,
    validation_loss,
)


def small_cfg(**kw):
    base = dict(vocab_size=15, d_model=8, enc_layers=1, dec_layers=1, max_len=32)
    base.update(kw)
    return ModelConfig(**base)


def make_batch(n=6, modes=1, seed=0, lens=(3, 5)):
    return synth_task(n, lens, modes, seed=seed, n_words=10).pairs


class TestSchedule:
    def test_one_based(self):
        with pytest.raises(ValueError):
            lr_at(0, 1e-3, 100)

    def test_peak_at_warmup(self):
        assert lr_at(100, 4e-3, 100) == pytest.approx(4e-3)
        assert lr_at(50, 4e-3, 100) == pytest.approx(2e-3)
        assert lr_at(400, 4e-3, 100) == pytest.approx(2e-3)  # sqrt(100/400) = 1/2

    def test_monotone_rise_then_decay(self):
        vals = [lr_at(s, 1.0, 20) for s in range(1, 100)]
        peak = max(vals)
        assert vals.index(peak) == 19
        assert all(a < b or b == peak for a, b in zip(vals[:19], vals[1:20]))
        assert all(a >= b for a, b in zip(vals[19:], vals[20:]))


class TestAdam:
    def test_hand_step(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        new, state = adam_update(params, grads, AdamState.zeros(params), 0.1,
                                 beta1=0.9, beta2=0.98, eps=1e-8)
        # m_hat = g, v_hat = g^2 after bias correction at t=1
        assert new["w"][0] == pytest.approx(1.0 - 0.1 * 0.5 / (0.5 + 1e-8), rel=1e-12)
        assert state.t == 1
        assert state.m["w"][0] == pytest.approx(0.05)
        assert state.v["w"][0] == pytest.approx(0.02 * 0.25)

    def test_first_step_size_is_gradient_scale_free(self):
        for g in (1e-6, 1.0, 1e6):
            params = {"w": np.array([0.0])}
            grads = {"w": np.array([g])}
            new, _ = adam_update(params, grads, AdamState.zeros(params), 0.01,
                                 beta1=0.9, beta2=0.98, eps=1e-12)
            assert abs(new["w"][0]) == pytest.approx(0.01, rel=1e-5)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(warmup=0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(adam_eps=0.0)
        with pytest.raises(ValueError):
            TrainConfig(keep_best=0)

    @pytest.mark.parametrize("kw, key", [
        ({"lr": 0.0}, "lr"),
        ({"lr": -1.0}, "lr"),
        ({"lr": math.nan}, "lr"),
        ({"eval_every": 0}, "eval_every"),
    ])
    def test_rejects_and_names_the_key(self, kw, key):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**kw)


class TestTrainStep:
    def test_bitwise_deterministic(self):
        cfg = small_cfg()
        hyper = TrainConfig(seed=4)
        batch = make_batch()
        p0 = init_params(cfg, 0)
        opt0 = AdamState.zeros(p0)
        a, _, rec_a = train_step(p0, cfg, batch, hyper, opt0, step=1)
        b, _, rec_b = train_step(p0, cfg, batch, hyper, AdamState.zeros(p0), step=1)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert rec_a == rec_b

    def test_zero_lambda_matches_no_schedule(self):
        cfg = small_cfg(upsample=2)
        batch = make_batch()
        p0 = init_params(cfg, 0)
        zero = TrainConfig(seed=4, glat_start=0.0, glat_slope=0.0, steps=10)
        a, _, _ = train_step(p0, cfg, batch, zero, AdamState.zeros(p0), 1)
        b, _, _ = train_step(p0, cfg, batch, TrainConfig(seed=4), AdamState.zeros(p0), 1)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_glancing_changes_update_and_is_recorded(self):
        cfg = small_cfg(upsample=2, dec_self_attention=(True,))
        batch = make_batch(8)
        p0 = init_params(cfg, 0)
        glat = TrainConfig(seed=4, glat_start=0.5, glat_slope=0.0, steps=10)
        a, _, rec = train_step(p0, cfg, batch, glat, AdamState.zeros(p0), 1)
        b, _, _ = train_step(p0, cfg, batch, TrainConfig(seed=4), AdamState.zeros(p0), 1)
        assert rec["lambda"] == 0.5
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_logged_lambda_is_the_config_ratio(self):
        cfg = small_cfg(upsample=2)
        hyper = TrainConfig(steps=10, glat_start=0.5, glat_slope=0.2, seed=4)
        p0 = init_params(cfg, 0)
        for step in (1, 7, 10):
            _, _, rec = train_step(p0, cfg, make_batch(), hyper, AdamState.zeros(p0), step)
            assert rec["lambda"] == hyper.glance_ratio(step) == 0.5 - 0.2 * (step / 10)

    def test_autoregressive_model_logs_no_lambda(self):
        cfg = small_cfg(autoregressive=True)
        batch = make_batch()
        p0 = init_params(cfg, 0)
        glat = TrainConfig(seed=4, glat_start=0.5, glat_slope=0.2, steps=10)
        a, _, rec = train_step(p0, cfg, batch, glat, AdamState.zeros(p0), 1)
        b, _, _ = train_step(p0, cfg, batch, TrainConfig(seed=4), AdamState.zeros(p0), 1)
        assert rec["lambda"] is None
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_infeasible_pair_skipped(self):
        cfg = small_cfg(upsample=2)
        hyper = TrainConfig(seed=1)
        src = TokenSeq((5, 6))
        tgt = TokenSeq((7, 7, 7))  # needs 5 slots, table has 4
        p0 = init_params(cfg, 0)
        params, _, rec = train_step(p0, cfg, [(src, tgt)], hyper, AdamState.zeros(p0), 1)
        assert rec["skipped"] == 1
        assert rec["loss"] == 0.0
        assert all(np.array_equal(params[k], p0[k]) for k in params)

    def test_length_clamp_counted(self):
        cfg = small_cfg(length_bound=2)
        hyper = TrainConfig(seed=1)
        src = TokenSeq((5, 6, 7))
        tgt = TokenSeq((8, 9, 10, 11, 12, 13, 14, 5))  # offset +5 > 2
        p0 = init_params(cfg, 0)
        _, _, rec = train_step(p0, cfg, [(src, tgt)], hyper, AdamState.zeros(p0), 1)
        assert rec["components"]["length_clamped"] == 1.0

    def test_nonfinite_loss_raises(self):
        cfg = small_cfg()
        hyper = TrainConfig(seed=1)
        p0 = init_params(cfg, 0)
        p0["emb"][5, 0] = np.inf
        with pytest.raises(DivergedError) as exc:
            with np.errstate(all="ignore"):
                train_step(p0, cfg, make_batch(), hyper, AdamState.zeros(p0), 7)
        assert exc.value.step == 7

    def test_components_recorded(self):
        cfg = small_cfg()
        hyper = TrainConfig(seed=2)
        p0 = init_params(cfg, 0)
        _, _, rec = train_step(p0, cfg, make_batch(), hyper, AdamState.zeros(p0), 1)
        assert set(rec["components"]) == {"token", "length", "length_clamped"}
        assert rec["loss"] == pytest.approx(
            rec["components"]["token"] + hyper.length_loss_weight * rec["components"]["length"]
        )
        assert "lr" in rec


BATCH_MODES = {
    "length": ({}, None),
    "length+glat": ({}, 0.5),
    "ctc": ({"upsample": 2}, None),
    "ctc+glat": ({"upsample": 2}, 0.5),
    "at": ({"autoregressive": True}, None),
    "length+ds2": ({"dec_layers": 2, "deep_supervision": True}, None),
    "ctc+ds2": ({"dec_layers": 2, "deep_supervision": True, "upsample": 2}, None),
}


def batch_setup(mode):
    mode_kw, glat_start = BATCH_MODES[mode]
    cfg = small_cfg(**mode_kw)
    hyper = TrainConfig(glat_start=glat_start, glat_slope=0.0, steps=10)
    lam = hyper.glance_ratio(1) if cfg.mode != "at" else None
    return cfg, hyper, lam


def close(got, want, rel=1e-12):
    """Every entry within ``rel`` of the largest magnitude in ``want``."""
    return np.abs(np.asarray(got) - want).max() <= rel * max(np.abs(want).max(), 1e-300)


class TestBatchAxis:
    """One padded pass over mixed-length pairs against each pair alone."""

    @pytest.mark.parametrize("mode", BATCH_MODES)
    def test_rows_equal_batches_of_one(self, mode):
        cfg, hyper, lam = batch_setup(mode)
        p = init_params(cfg, 3)
        pairs = make_batch(8, lens=(2, 7))
        assert len({len(s) for s, _ in pairs}) > 1 and len({len(t) for _, t in pairs}) > 1
        batched = _batch_pass(p, cfg, pairs, hyper, lam, np.random.default_rng(5), train=True)
        rng = np.random.default_rng(5)  # one stream, drawn row by row as the batch does
        ones = [_batch_pass(p, cfg, [pair], hyper, lam, rng, train=True) for pair in pairs]
        assert batched.skipped == 0 and len(batched.values) == len(pairs)
        want = [o.values[0] for o in ones]
        assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(batched.values, want))
        for got, one in zip(batched.components, ones):
            assert got.keys() == one.components[0].keys()
            assert all(abs(got[k] - v) <= 1e-12 * abs(v) for k, v in one.components[0].items())
        for k in p:
            assert close(batched.grads[k], sum(o.grads[k] for o in ones)), k
        assert batched.revealed == sum(o.revealed for o in ones)
        assert batched.hamming == sum(o.hamming for o in ones)
        assert (batched.revealed > 0) == (lam is not None)

    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(sorted(BATCH_MODES)), seed=st.integers(0, 2**16),
           n=st.integers(1, 4), extra=st.integers(1, 3))
    def test_appending_a_longer_pair_leaves_other_rows(self, mode, seed, n, extra):
        # the longer pair pads every other row's source and decoder; only the
        # key-padding (and, for AT, causal) masks keep that padding out
        cfg, hyper, lam = batch_setup(mode)
        p = init_params(cfg, seed)
        pairs = list(make_batch(n, seed=seed, lens=(2, 5)))
        J = max(len(s) for s, _ in pairs) + extra
        I = max(len(t) for _, t in pairs) + extra
        longer = (TokenSeq(tuple(5 + (i * 3) % 10 for i in range(J))),
                  TokenSeq(tuple(5 + (i * 7) % 10 for i in range(I))))
        before = _batch_pass(p, cfg, pairs, hyper, lam, np.random.default_rng(seed), train=True)
        after = _batch_pass(p, cfg, pairs + [longer], hyper, lam, np.random.default_rng(seed),
                            train=True)
        assert after.skipped == 0
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(after.values, before.values))

    def test_validation_batches_in_order(self):
        cfg, hyper, _ = batch_setup("ctc")
        p = init_params(cfg, 3)
        pairs = make_batch(7, lens=(2, 6))
        small = TrainConfig(batch_size=3)
        vals = [v for lo in (0, 3, 6)
                for v in _batch_pass(p, cfg, pairs[lo:lo + 3], small, None, None, train=False).values]
        assert validation_loss(p, cfg, pairs, small) == float(np.mean(vals))


class TestObservability:
    def glat_run(self, monkeypatch, tmp_path):
        masks = []

        def recorded(*args, _original=natkit.training.glance_inputs_ctc, **kwargs):
            out = _original(*args, **kwargs)
            masks.append(out[0])
            return out

        monkeypatch.setattr(natkit.training, "glance_inputs_ctc", recorded)
        corpus = synth_task(12, (3, 5), 1, seed=8, n_words=10)
        cfg = small_cfg(upsample=2)
        hyper = TrainConfig(steps=2, batch_size=6, warmup=1, eval_every=2, keep_best=1, seed=5,
                            glat_start=0.5, glat_slope=0.0)
        log_path = tmp_path / "log.jsonl"
        train_model(corpus, cfg, hyper, log_path=log_path)
        return [json.loads(line) for line in log_path.read_text().splitlines()], masks

    def test_glancing_record(self, monkeypatch, tmp_path):
        records, masks = self.glat_run(monkeypatch, tmp_path)
        assert len(records) == 2 and len(masks) == 12
        assert sum(r["revealed"] for r in records) == sum(len(m) for m in masks) > 0
        # each reveal count is floor(0.5 * Hamming distance) of its row
        assert all(r["revealed"] <= r["hamming"] / 2 for r in records)
        for r in records:
            assert r["grad_norm"] > 0 and r["update_norm"] > 0
        again, _ = self.glat_run(monkeypatch, tmp_path)
        assert again == records

    def test_norms_are_of_the_averaged_gradient_and_the_update(self):
        cfg = small_cfg()
        hyper = TrainConfig(seed=2)
        p0 = init_params(cfg, 0)
        batch = make_batch()
        new, _, rec = train_step(p0, cfg, batch, hyper, AdamState.zeros(p0), 1)
        grads = _batch_pass(p0, cfg, batch, hyper, None, np.random.default_rng([2, 1]),
                            train=True).grads
        flat = np.concatenate([grads[k].ravel() / len(batch) for k in p0])
        assert rec["grad_norm"] == pytest.approx(np.linalg.norm(flat), rel=1e-12)
        step = np.concatenate([(new[k] - p0[k]).ravel() for k in p0])
        assert rec["update_norm"] == pytest.approx(np.linalg.norm(step), rel=1e-12)
        assert "revealed" not in rec and "hamming" not in rec

    def test_all_skipped_step_moves_nothing(self):
        cfg = small_cfg(upsample=2)
        p0 = init_params(cfg, 0)
        bad = (TokenSeq((5, 6)), TokenSeq((7, 7, 7)))
        _, _, rec = train_step(p0, cfg, [bad], TrainConfig(seed=1), AdamState.zeros(p0), 1)
        assert rec["grad_norm"] == 0.0 and rec["update_norm"] == 0.0


class TestValidation:
    @pytest.mark.parametrize("mode_kw, glat_start", [
        ({}, None),
        ({}, 0.5),
        ({"upsample": 2}, None),
        ({"autoregressive": True}, None),
        ({"dec_layers": 2, "deep_supervision": True}, None),
        ({"dec_layers": 2, "deep_supervision": True, "upsample": 2}, None),
    ], ids=["length", "length+glat", "ctc", "at", "length+ds2", "ctc+ds2"])
    def test_equals_mean_of_train_mode_values(self, mode_kw, glat_start):
        cfg = small_cfg(**mode_kw)
        hyper = TrainConfig(glat_start=glat_start)
        p = init_params(cfg, 3)
        pairs = make_batch(6)
        # one batch of the train-mode pass: validation's batch size covers the six pairs
        vals = _batch_pass(p, cfg, pairs, hyper, None, None, train=True).values
        assert len(vals) >= 4 and hyper.batch_size >= len(pairs)
        assert validation_loss(p, cfg, pairs, hyper) == float(np.mean(vals))

    def test_ctc_validation_computes_no_gradient(self, monkeypatch):
        def gradient_loss(*args, **kwargs):
            raise AssertionError("the CTC loss with gradient was called")

        monkeypatch.setattr(natkit.model, "ctc_loss_logits", gradient_loss)
        cfg = small_cfg(upsample=2, dec_layers=2, deep_supervision=True)
        p = init_params(cfg, 3)
        assert math.isfinite(validation_loss(p, cfg, make_batch(4), TrainConfig()))
        with pytest.raises(AssertionError, match="with gradient"):
            train_step(p, cfg, make_batch(4), TrainConfig(), AdamState.zeros(p), 1)

    def test_mean_over_feasible_pairs(self):
        cfg = small_cfg(upsample=2)
        hyper = TrainConfig()
        p = init_params(cfg, 3)
        good = make_batch(4)
        bad = (TokenSeq((5, 6)), TokenSeq((7, 7, 7)))
        v_good = validation_loss(p, cfg, good, hyper)
        v_mixed = validation_loss(p, cfg, list(good) + [bad], hyper)
        assert v_good == pytest.approx(v_mixed)
        assert math.isnan(validation_loss(p, cfg, [bad], hyper))

    def test_eval_mode_ignores_schedule_state(self):
        cfg = small_cfg()
        hyper_a = TrainConfig(seed=1, glat_start=0.5)
        hyper_b = TrainConfig(seed=99)
        p = init_params(cfg, 3)
        pairs = make_batch(4)
        assert validation_loss(p, cfg, pairs, hyper_a) == validation_loss(p, cfg, pairs, hyper_b)


class TestTrainModel:
    def test_overfit_single_sentence_monotone_smoothed(self):
        corpus = synth_task(1, (4, 4), 1, seed=6, n_words=10)
        cfg = small_cfg(d_model=16)
        hyper = TrainConfig(steps=200, batch_size=2, lr=5e-3, warmup=20,
                            eval_every=50, seed=2)
        res = train_model(corpus, cfg, hyper)
        losses = [r["loss"] for r in res.log]
        smoothed = [np.mean(losses[i:i + 5]) for i in range(0, len(losses) - 4, 5)]
        assert all(b <= a + 1e-9 for a, b in zip(smoothed, smoothed[1:]))
        assert smoothed[-1] < 0.1 * smoothed[0]

    def test_log_and_history_shapes(self, tmp_path):
        corpus = synth_task(12, (3, 4), 1, seed=8, n_words=10)
        cfg = small_cfg()
        hyper = TrainConfig(steps=12, batch_size=4, eval_every=5, keep_best=2, seed=5)
        log_path = tmp_path / "log.jsonl"
        res = train_model(corpus, cfg, hyper, log_path=log_path)
        assert len(res.log) == 12
        assert [s for s, _ in res.val_history] == [5, 10, 12]
        assert res.n_averaged == 2
        lines = log_path.read_text().splitlines()
        assert len(lines) == 12
        assert json.loads(lines[0])["step"] == 1

    def test_heldout_validation_drives_selection(self):
        corpus = synth_task(12, (3, 4), 1, seed=8, n_words=10)
        held = synth_task(6, (3, 4), 1, seed=9, n_words=10).pairs
        cfg = small_cfg()
        hyper = TrainConfig(steps=10, batch_size=4, eval_every=5, keep_best=1, seed=5)
        res = train_model(corpus, cfg, hyper, heldout=held)
        assert len(res.val_history) == 2
        best_step = min(res.val_history, key=lambda sv: (sv[1], sv[0]))[0]
        assert res.n_averaged == 1
        # with keep_best=1 the averaged params are exactly the best snapshot
        re_run = train_model(corpus, cfg, hyper, heldout=held)
        assert all(np.array_equal(res.params[k], re_run.params[k]) for k in res.params)
        assert best_step in [s for s, _ in res.val_history]

    def test_rerun_bit_identical(self):
        corpus = synth_task(10, (3, 4), 1, seed=3, n_words=10)
        cfg = small_cfg()
        hyper = TrainConfig(steps=8, batch_size=4, eval_every=4, seed=11)
        a = train_model(corpus, cfg, hyper)
        b = train_model(corpus, cfg, hyper)
        assert all(np.array_equal(a.final_params[k], b.final_params[k]) for k in a.final_params)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert a.log == b.log

    def test_huge_lr_diverges(self):
        corpus = synth_task(10, (3, 4), 1, seed=3, n_words=10)
        cfg = small_cfg()
        hyper = TrainConfig(steps=50, batch_size=4, lr=1e100, warmup=1, seed=0)
        with pytest.raises(DivergedError):
            with np.errstate(all="ignore"):
                train_model(corpus, cfg, hyper)

    @pytest.mark.parametrize("mode_kw, src_len, tgt_len", [
        ({"upsample": 2}, 5, 3),              # CTC: decoder length 10 > 8
        ({"autoregressive": True}, 3, 8),     # AT: target plus <eos> is 9 > 8
        ({}, 9, 3),                           # length mode: source 9 > 8
    ], ids=["ctc", "at", "length"])
    def test_over_long_pair_skipped_in_every_mode(self, tmp_path, mode_kw, src_len, tgt_len):
        pairs = synth_task(6, (3, 4), 1, seed=2, n_words=10).pairs
        long_pair = (TokenSeq(tuple(range(5, 5 + src_len))),
                     TokenSeq(tuple(range(14, 14 - tgt_len, -1))))
        corpus = ParallelCorpus(pairs + (long_pair,))
        cfg = small_cfg(max_len=8, **mode_kw)
        hyper = TrainConfig(steps=3, batch_size=7, warmup=1, eval_every=3, seed=1, glat_start=0.5)
        log_path = tmp_path / "log.jsonl"
        res = train_model(corpus, cfg, hyper, heldout=pairs + (long_pair,), log_path=log_path)
        assert all(math.isfinite(v) for _, v in res.val_history)
        skipped = [json.loads(line)["skipped"] for line in log_path.read_text().splitlines()]
        assert len(skipped) == 3 and sum(skipped) >= 1

    def test_empty_corpus_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            train_model(ParallelCorpus(()), cfg, TrainConfig())
