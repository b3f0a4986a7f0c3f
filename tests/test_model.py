import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from natkit.corpus import BLANK_ID, BOS_ID, EOS_ID, UNK_ID, TokenSeq
from natkit.ctc import log_softmax, min_alignment_len
from natkit.glancing import GlanceMask
from natkit.model import (
    ACTIVATIONS,
    INITS,
    INPUT_STRATEGIES,
    ForwardCounter,
    ModelConfig,
    ModelError,
    average_params,
    backward,
    decode,
    decode_at,
    decoder_inputs,
    forward,
    init_params,
    length_target_class,
    loss_length,
    predicted_length,
    token_loss,
)
from natkit.training import TrainConfig, _batch_pass

V = 12  # 5 specials + 7 content tokens (ids 5..11)
SRC = (5, 7, 9)
TGT = (6, 8, 10, 6)


def cfg(**kw):
    base = dict(vocab_size=V, d_model=8, enc_layers=2, dec_layers=2, max_len=32)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_mode_selection(self):
        assert cfg(upsample=2).mode == "ctc"
        assert cfg().mode == "length"
        assert cfg(autoregressive=True).mode == "at"

    def test_ctc_and_at_exclusive(self):
        with pytest.raises(ValueError):
            cfg(upsample=2, autoregressive=True)

    def test_self_attention_flags_normalized(self):
        c = cfg(dec_self_attention=(True, False))
        assert c.dec_self_attention == (True, False)
        with pytest.raises(ValueError):
            cfg(dec_self_attention=(True,), dec_layers=2)
        with pytest.raises(ValueError):
            cfg(autoregressive=True, dec_self_attention=(True, False))

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            cfg(dropout=0.6)
        with pytest.raises(ValueError):
            cfg(dropout=-0.1)

    def test_bad_choices(self):
        with pytest.raises(ValueError):
            cfg(activation="swish")
        with pytest.raises(ValueError):
            cfg(init="xavier")
        with pytest.raises(ValueError):
            cfg(decoder_input="copy")
        with pytest.raises(ValueError):
            cfg(upsample=0)

    def test_length_classes(self):
        assert cfg(length_bound=32).n_length_classes == 65
        assert cfg(length_mode="absolute", max_abs_len=40).n_length_classes == 40


class TestInit:
    def test_deterministic(self):
        c = cfg()
        a, b = init_params(c, 3), init_params(c, 3)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        other = init_params(c, 4)
        assert any(not np.array_equal(a[k], other[k]) for k in a)

    def test_normal_scheme_scale(self):
        c = cfg(init="normal", d_model=32)
        p = init_params(c, 0)
        assert abs(p["emb"].std() - 0.02) < 0.005
        assert np.all(p["enc0_b"] == 0)

    def test_uniform_scheme_bounds(self):
        c = cfg(init="uniform", d_model=16)
        p = init_params(c, 0)
        bound = 1 / math.sqrt(16)
        assert np.all(np.abs(p["dec0_cq"]) <= bound)

    def test_soft_copy_tau_starts_at_one(self):
        p = init_params(cfg(decoder_input="soft_copy"), 0)
        assert float(p["soft_tau"]) == 1.0

    def test_length_head_only_in_length_mode(self):
        assert "len_W" in init_params(cfg(), 0)
        assert "len_W" not in init_params(cfg(upsample=2), 0)
        assert "len_W" not in init_params(cfg(autoregressive=True), 0)


class TestForwardShapes:
    def test_logits_every_layer(self):
        c = cfg(dec_layers=3, dec_self_attention=(True, False, True))
        p = init_params(c, 1)
        st = forward(p, c, SRC, 6)
        hidden = st.cache["dec"]["hidden"]
        assert len(st.logits) == 3 and len(hidden) == 3
        for l in range(3):
            assert st.logits[l].shape == (6, V)
            assert hidden[l].shape == (6, 8)
        assert st.cache["enc_out"].shape == (len(SRC), 8)
        assert st.length_logits.shape == (65,)

    def test_ctc_mode_has_no_length_head(self):
        c = cfg(upsample=2)
        st = forward(init_params(c, 1), c, SRC, 6)
        assert st.length_logits is None

    def test_decoder_len_beyond_table_rejected(self):
        c = cfg(max_len=8)
        with pytest.raises(ModelError):
            forward(init_params(c, 1), c, SRC, 9)

    def test_empty_source_rejected(self):
        c = cfg()
        with pytest.raises(ModelError):
            forward(init_params(c, 1), c, (), 4)


class TestDecoderInputs:
    def test_unk_rows(self):
        c = cfg(decoder_input="unk")
        p = init_params(c, 2)
        base, _ = decoder_inputs(p, c, SRC, 5)
        assert np.array_equal(base, np.tile(p["emb"][UNK_ID], (5, 1)))

    def test_uniform_copy_identity_when_lengths_match(self):
        c = cfg(decoder_input="uniform_copy")
        p = init_params(c, 2)
        base, _ = decoder_inputs(p, c, SRC, len(SRC))
        assert np.array_equal(base, p["emb"][list(SRC)])

    def test_uniform_copy_floor_map(self):
        c = cfg(decoder_input="uniform_copy")
        p = init_params(c, 2)
        base, cache = decoder_inputs(p, c, SRC, 6)
        assert list(cache["idx"]) == [0, 0, 1, 1, 2, 2]
        assert np.array_equal(base[4], p["emb"][SRC[2]])

    def test_soft_copy_rows_are_convex_combinations(self):
        c = cfg(decoder_input="soft_copy")
        p = init_params(c, 2)
        base, cache = decoder_inputs(p, c, SRC, 4)
        w = cache["w"]
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.all(w >= 0)
        assert np.allclose(base, w @ p["emb"][list(SRC)])

    def test_soft_copy_small_tau_approaches_hard_copy(self):
        c = cfg(decoder_input="soft_copy")
        p = init_params(c, 2)
        p["soft_tau"] = np.array(1e-3)
        base, _ = decoder_inputs(p, c, SRC, len(SRC))
        assert np.allclose(base, p["emb"][list(SRC)], atol=1e-9)

    def test_nonpositive_tau_rejected(self):
        c = cfg(decoder_input="soft_copy")
        p = init_params(c, 2)
        p["soft_tau"] = np.array(0.0)
        with pytest.raises(ModelError):
            decoder_inputs(p, c, SRC, 3)

    def test_glance_rows_verbatim(self):
        c = cfg(decoder_input="uniform_copy")
        p = init_params(c, 2)
        mask = GlanceMask((1, 3), (8, 6), 5)
        base, _ = decoder_inputs(p, c, SRC, 5, glance=mask)
        assert np.array_equal(base[1], p["emb"][8])
        assert np.array_equal(base[3], p["emb"][6])
        plain, _ = decoder_inputs(p, c, SRC, 5)
        assert np.array_equal(base[0], plain[0])

    def test_glance_length_mismatch_rejected(self):
        c = cfg()
        p = init_params(c, 2)
        with pytest.raises(ModelError):
            decoder_inputs(p, c, SRC, 5, glance=GlanceMask((0,), (8,), 4))


def within(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


class TestBatchAxis:
    SRCS = [(5, 7, 9), (6, 8), (5, 6, 7, 8, 9), (11,)]
    LENS = [4, 2, 7, 3]

    @pytest.mark.parametrize("kw", [{"decoder_input": s} for s in INPUT_STRATEGIES]
                             + [{"upsample": 2}, {"autoregressive": True}],
                             ids=list(INPUT_STRATEGIES) + ["ctc", "at"])
    def test_padded_rows_equal_single_sentence_passes(self, kw):
        c = cfg(activation="gelu", **kw)
        p = init_params(c, 31)
        prevs = [(BOS_ID,) + tuple(range(6, 5 + n)) for n in self.LENS] if c.autoregressive else None
        glance = None
        if not c.autoregressive:
            glance = [GlanceMask((1,), (8,), 4), None, GlanceMask((0, 6), (9, 10), 7), None]
        st = forward(p, c, self.SRCS, self.LENS, prev_ids=prevs, glance=glance)
        assert st.logits[-1].shape == (4, max(self.LENS), V)
        for b, (src, T) in enumerate(zip(self.SRCS, self.LENS)):
            one = forward(p, c, src, T, prev_ids=prevs[b] if prevs else None,
                          glance=glance[b] if glance else None)
            for l in range(c.dec_layers):
                assert within(st.logits[l][b, :T], one.logits[l])
            if c.mode == "length":
                assert within(st.length_logits[b], one.length_logits)

    def test_summed_gradient_equals_per_sentence_sum(self):
        c = cfg(decoder_input="soft_copy")
        p = init_params(c, 32)
        st = forward(p, c, self.SRCS, self.LENS)
        rng = np.random.default_rng(33)
        dls = [rng.normal(size=x.shape) for x in st.logits]
        dlen = rng.normal(size=st.length_logits.shape)
        for b, T in enumerate(self.LENS):  # padded positions carry no gradient
            for dl in dls:
                dl[b, T:] = 0.0
        got = backward(p, st, dls, dlength=dlen)
        want = {k: np.zeros_like(v) for k, v in p.items()}
        for b, (src, T) in enumerate(zip(self.SRCS, self.LENS)):
            one = forward(p, c, src, T)
            g = backward(p, one, [dl[b, :T] for dl in dls], dlength=dlen[b])
            for k in want:
                want[k] += g[k]
        for k in p:
            assert within(got[k], want[k]), k

    def test_equal_lengths_build_no_mask(self):
        c = cfg(decoder_input="soft_copy")
        p = init_params(c, 34)
        st = forward(p, c, [(5, 7, 9), (6, 8, 10)], [4, 4])
        assert st.cache["enc"]["src"].real is None
        assert forward(p, c, SRC, 4).cache["enc"]["src"].real is None
        assert forward(p, c, self.SRCS, self.LENS).cache["enc"]["src"].real is not None

    def test_dropout_draws_one_padded_array_per_site(self):
        c = cfg(dropout=0.2, enc_layers=1, dec_layers=1, dec_self_attention=(False,))
        p = init_params(c, 35)
        st = forward(p, c, self.SRCS, self.LENS, train=True, rng=np.random.default_rng(0))
        # encoder input, encoder FFN, decoder input, cross-attention, FFN
        rng = np.random.default_rng(0)
        shapes = [(4, 5, 8), (4, 5, 8), (4, 7, 8), (4, 7, 8), (4, 7, 8)]
        want = [(rng.random(s) >= 0.2) / 0.8 for s in shapes]
        enc, dec = st.cache["enc"], st.cache["dec"]
        got = [enc["in_mask"], enc["layers"][0][2], dec["in_mask"],
               dec["layers"][0]["cross"][7], dec["layers"][0]["ffn"][2]]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_mismatched_batch_rejected(self):
        c = cfg()
        p = init_params(c, 36)
        with pytest.raises(ModelError):
            forward(p, c, self.SRCS, self.LENS[:3])
        with pytest.raises(ModelError):
            forward(p, c, self.SRCS, self.LENS, glance=[None, None])
        with pytest.raises(ModelError):
            forward(p, c, [], [])


class TestTiedEmbeddings:
    def test_unused_token_row_moves_its_logit_column_only(self):
        c = cfg()
        p = init_params(c, 3)
        spare = 11  # not in SRC, not unk
        before = forward(p, c, SRC, 4).logits[-1]
        p2 = {k: v.copy() for k, v in p.items()}
        p2["emb"][spare] += 0.25
        after = forward(p2, c, SRC, 4).logits[-1]
        changed = np.abs(after - before).max(axis=0)
        assert changed[spare] > 1e-6
        others = np.delete(changed, spare)
        assert np.all(others == 0)


class TestDropout:
    def test_zero_dropout_train_equals_eval(self):
        c = cfg(dropout=0.0)
        p = init_params(c, 4)
        rng = np.random.default_rng(0)
        a = forward(p, c, SRC, 5, train=True, rng=rng).logits[-1]
        b = forward(p, c, SRC, 5).logits[-1]
        assert np.array_equal(a, b)

    def test_dropout_changes_train_pass_only(self):
        c = cfg(dropout=0.3)
        p = init_params(c, 4)
        a = forward(p, c, SRC, 5, train=True, rng=np.random.default_rng(0)).logits[-1]
        b = forward(p, c, SRC, 5, train=True, rng=np.random.default_rng(1)).logits[-1]
        assert not np.array_equal(a, b)
        e1 = forward(p, c, SRC, 5).logits[-1]
        e2 = forward(p, c, SRC, 5).logits[-1]
        assert np.array_equal(e1, e2)

    def test_train_mode_requires_rng_when_dropping(self):
        c = cfg(dropout=0.3)
        p = init_params(c, 4)
        with pytest.raises(ModelError):
            forward(p, c, SRC, 5, train=True)


def zeroed_like(c, seed=0):
    p = init_params(c, seed)
    return {k: (v if k == "soft_tau" else np.zeros_like(v)) for k, v in p.items()}


class TestLossValues:
    def test_nat_uniform_logits_is_log_vocab(self):
        c = cfg()
        st = forward(zeroed_like(c), c, SRC, len(TGT))
        val, _ = token_loss(st.logits[-1], TGT)
        assert val == pytest.approx(math.log(V), rel=1e-12)

    def test_length_uniform_logits_is_log_classes(self):
        c = cfg(length_bound=32)
        st = forward(zeroed_like(c), c, SRC, 4)
        val, _ = loss_length(st.length_logits, length_target_class(c, len(SRC), 4)[0])
        assert val == pytest.approx(math.log(65), rel=1e-12)

    def test_nat_mask_excludes_positions(self):
        c = cfg()
        p = init_params(c, 5)
        st = forward(p, c, SRC, len(TGT))
        mask = GlanceMask((0, 2), (TGT[0], TGT[2]), len(TGT))
        val, dl = token_loss(st.logits[-1], TGT, mask=mask)
        assert np.all(dl[[0, 2]] == 0)
        logp = log_softmax(st.logits[-1])
        want = -(logp[1, TGT[1]] + logp[3, TGT[3]]) / 2
        assert val == pytest.approx(float(want), rel=1e-12)

    def test_nat_all_masked_is_zero(self):
        c = cfg()
        st = forward(init_params(c, 5), c, SRC, 2)
        mask = GlanceMask((0, 1), (6, 8), 2)
        val, dl = token_loss(st.logits[-1], (6, 8), mask=mask)
        assert val == 0.0 and np.all(dl == 0)

    def test_ctc_loss_positive_and_infeasible_raises(self):
        from natkit.ctc import InfeasibleTargetError

        c = cfg(upsample=2)
        st = forward(init_params(c, 6), c, SRC, 6)
        val, _ = token_loss(st.logits[-1], (6, 8, 10), ctc=True)
        assert val > 0
        with pytest.raises(InfeasibleTargetError):
            token_loss(st.logits[-1], (6, 6, 6, 6), ctc=True)  # needs 7 slots, table has 6

    def test_length_target_class(self):
        c = cfg(length_bound=4)
        assert length_target_class(c, 5, 6) == (5, False)  # offset +1 -> 1 + 4
        assert length_target_class(c, 5, 9) == (8, False)  # offset +K, in range
        assert length_target_class(c, 5, 20) == (8, True)  # clamped at +K
        assert length_target_class(c, 9, 1) == (0, True)  # clamped at -K
        a = cfg(length_mode="absolute", max_abs_len=10)
        assert length_target_class(a, 5, 6) == (6, False)
        assert length_target_class(a, 5, 9) == (9, False)
        assert length_target_class(a, 5, 50) == (9, True)

    @pytest.mark.parametrize("ctc, mask", [
        (True, None),
        (False, None),
        (False, GlanceMask((1,), (8,), 3)),
        (False, GlanceMask((0, 1, 2), (6, 8, 10), 3)),
    ], ids=["ctc", "ce", "ce-glanced", "ce-all-glanced"])
    def test_value_without_gradient_is_bit_equal(self, ctc, mask):
        c = cfg(upsample=2)
        x = forward(init_params(c, 6), c, SRC, 6).logits[-1]
        logits = x if ctc else x[:3]
        val, dl = token_loss(logits, (6, 8, 10), ctc=ctc, mask=mask)
        assert dl.shape == logits.shape
        assert token_loss(logits, (6, 8, 10), ctc=ctc, mask=mask, grad=False) == (val, None)


@st.composite
def loss_batches(draw):
    """A padded batch for one loss head: per-row decoder lengths, targets and
    glance masks, and a seed for (B, T_max, V) logits on 1 or 2 layers.
    Cross-entropy rows have a target per position and masks from none to all
    positions; CTC rows have feasible targets at their decoder length."""
    ctc = draw(st.booleans())
    n_rows = draw(st.integers(1, 5))
    lens, labels, masks = [], [], []
    for _ in range(n_rows):
        if ctc:
            target = tuple(draw(st.lists(st.sampled_from((5, 6, 7)), min_size=1, max_size=4)))
            lens.append(min_alignment_len(target) + draw(st.integers(0, 3)))
            masks.append(None)
        else:
            T = draw(st.integers(1, 12))
            target = tuple(draw(st.lists(st.integers(0, V - 1), min_size=T, max_size=T)))
            lens.append(T)
            kind = draw(st.sampled_from(("none", "empty", "some", "all")))
            if kind == "none":
                masks.append(None)
            else:
                pos = {"empty": [], "all": list(range(T))}.get(kind) or sorted(
                    draw(st.sets(st.integers(0, T - 1), min_size=1, max_size=T)))
                masks.append(GlanceMask(tuple(pos), tuple(target[p] for p in pos), T))
        labels.append(target)
    return ctc, lens, labels, masks, draw(st.integers(1, 2)), draw(st.integers(0, 2**32 - 1))


def _parent_ce_row(logits, target, mask):
    """One row's position-wise cross-entropy as it was computed one row at a
    time: the mean over the unrevealed positions' compacted picks."""
    target = np.asarray(target)
    revealed = set(mask.positions) if mask is not None else set()
    rows = np.array([t for t in range(len(target)) if t not in revealed], dtype=np.int64)
    dlogits = np.zeros_like(logits)
    if len(rows) == 0:
        return 0.0, dlogits
    logp = log_softmax(logits)
    n = len(rows)
    probs = np.exp(logp[rows])
    probs[np.arange(n), target[rows]] -= 1.0
    dlogits[rows] = probs / n
    return -float(logp[rows, target[rows]].sum()) / n, dlogits


class TestBatchedLossHeads:
    """A batched loss head against the same rows one at a time: values and
    gradients bit-equal, values Python floats, padded positions 0."""

    @settings(max_examples=150)
    @given(loss_batches())
    def test_token_loss_rows_bit_equal(self, case):
        ctc, lens, labels, masks, n_layers, seed = case
        rng = np.random.default_rng(seed)
        B, T_max = len(lens), max(lens)
        layers = [rng.normal(0.0, 3.0, size=(B, T_max, V)) for _ in range(n_layers)]
        # the deep-supervision average, as the training objective forms it
        values, grad = [-0.0] * B, np.zeros((B, T_max, V))
        for logits in layers:
            vals, dl = token_loss(logits, labels, ctc=ctc, mask=masks, lens=lens)
            assert all(type(v) is float for v in vals)
            values = [a + v for a, v in zip(values, vals)]
            grad += dl / n_layers
        for b, (T, target, mask) in enumerate(zip(lens, labels, masks)):
            value, row_grad = -0.0, np.zeros((T, V))
            for logits in layers:
                v, dl = token_loss(logits[b, :T], target, ctc=ctc, mask=mask)
                assert type(v) is float
                if not ctc:
                    want, want_grad = _parent_ce_row(logits[b, :T], target, mask)
                    assert v == want and dl.tobytes() == want_grad.tobytes()
                value += v
                row_grad += dl / n_layers
            assert values[b] == value
            assert grad[b, :T].tobytes() == row_grad.tobytes()
            pad = grad[b, T:]
            assert np.all(pad == 0) and not np.signbit(pad).any()
            if mask is not None and len(mask) == T:
                assert value == 0.0 and np.all(grad[b] == 0)

    @settings(max_examples=150)
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_length_loss_rows_bit_equal(self, classes, seed):
        logits = np.random.default_rng(seed).normal(0.0, 3.0, size=(len(classes), 9))
        values, grad = loss_length(logits, classes)
        assert grad.shape == logits.shape
        assert loss_length(logits, classes, grad=False) == (values, None)
        for b, cls in enumerate(classes):
            value, row_grad = loss_length(logits[b], cls)
            assert type(values[b]) is float and values[b] == value
            assert grad[b].tobytes() == row_grad.tobytes()
            want, want_grad = _parent_ce_row(logits[b][None], (cls,), None)
            assert value == want and row_grad.tobytes() == want_grad[0].tobytes()

    def test_batch_needs_lengths(self):
        logits = np.zeros((2, 3, V))
        with pytest.raises(ModelError, match="one decoder length per row"):
            token_loss(logits, [(5, 6, 7), (5,)])
        with pytest.raises(ModelError, match="decoder length 2 != target length 3"):
            token_loss(logits, [(5, 6, 7), (5,)], lens=[2, 1])
        with pytest.raises(ModelError, match="decoder length 4 exceeds the padded length 3"):
            token_loss(logits, [(5, 6, 7, 8), (5,)], lens=[4, 1])


class TestDeepSupervision:
    # the layer average lives in the training objective, so run that
    @staticmethod
    def passes(kw, tgt):
        """One layer's train-mode pass without and with deep supervision."""
        out = []
        for ds in (False, True):
            c = cfg(dec_layers=1, dec_self_attention=(True,), deep_supervision=ds, **kw)
            one = _batch_pass(init_params(c, 7), c, [(TokenSeq(SRC), TokenSeq(tgt))],
                              TrainConfig(), None, None, train=True)
            out.append((one.values[0], one.grads, one.components[0]))
        return out

    def test_single_layer_bit_identical_to_base(self):
        (val, grads, comp), (ds_val, ds_grads, ds_comp) = self.passes({}, TGT)
        assert ds_val == val and ds_comp == comp
        assert all(np.array_equal(ds_grads[k], grads[k]) for k in grads)

    def test_single_layer_ctc_bit_identical(self):
        (val, grads, _), (ds_val, ds_grads, _) = self.passes({"upsample": 2}, (6, 8))
        assert ds_val == val
        assert all(np.array_equal(ds_grads[k], grads[k]) for k in grads)

    def test_mean_identity_across_layers(self):
        for kw, T, tgt in (({}, len(TGT), TGT), ({"upsample": 2}, 6, (6, 8, 10))):
            c = cfg(dec_layers=3, dec_self_attention=(True, True, True), deep_supervision=True, **kw)
            p = init_params(c, 8)
            st = forward(p, c, SRC, T)
            per_layer = [token_loss(st.logits[l], tgt, ctc=c.mode == "ctc") for l in range(3)]
            one = _batch_pass(p, c, [(TokenSeq(SRC), TokenSeq(tgt))], TrainConfig(),
                              None, None, train=True)
            grads = one.grads
            assert one.components[0]["token"] == sum(v for v, _ in per_layer) / 3
            dlength = None
            if c.mode == "length":
                cls, _ = length_target_class(c, len(SRC), len(tgt))
                dlength = TrainConfig().length_loss_weight * loss_length(st.length_logits, cls)[1]
            want = backward(p, st, [dl / 3 for _, dl in per_layer], dlength=dlength)
            assert all(np.array_equal(grads[k], want[k]) for k in want)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def fd_check(loss_fn, params, rng, n_coords=24, h=1e-5, tol=1e-4):
    """Central differences on a random subset of parameter coordinates."""
    _, grads = loss_fn(params)
    flat = [(k, i) for k, v in params.items() for i in range(v.size)]
    picks = rng.choice(len(flat), size=min(n_coords, len(flat)), replace=False)
    for pick in picks:
        k, i = flat[int(pick)]
        up = {kk: vv.copy() for kk, vv in params.items()}
        dn = {kk: vv.copy() for kk, vv in params.items()}
        up[k].reshape(-1)[i] += h
        dn[k].reshape(-1)[i] -= h
        fd = (loss_fn(up)[0] - loss_fn(dn)[0]) / (2 * h)
        g = grads[k].reshape(-1)[i]
        assert abs(fd - g) <= tol * max(1.0, abs(g), abs(fd)), (k, i, fd, g)


class TestGradients:
    def test_nat_loss_all_strategies(self):
        for strategy in ("unk", "uniform_copy", "soft_copy"):
            c = cfg(decoder_input=strategy, activation="gelu", init="normal")
            p = init_params(c, 9)

            def run(params):
                st = forward(params, c, SRC, len(TGT))
                val, dl = token_loss(st.logits[-1], TGT)
                dls = [None] * c.dec_layers
                dls[-1] = dl
                return val, backward(params, st, dls)

            fd_check(run, p, np.random.default_rng(10))

    def test_nat_loss_with_glance_mask(self):
        c = cfg(decoder_input="uniform_copy")
        p = init_params(c, 11)
        mask = GlanceMask((1,), (TGT[1],), len(TGT))

        def run(params):
            st = forward(params, c, SRC, len(TGT), glance=mask)
            val, dl = token_loss(st.logits[-1], TGT, mask=mask)
            dls = [None] * c.dec_layers
            dls[-1] = dl
            return val, backward(params, st, dls)

        fd_check(run, p, np.random.default_rng(12))

    def test_ctc_loss_through_model(self):
        c = cfg(upsample=2, decoder_input="uniform_copy")
        p = init_params(c, 13)

        def run(params):
            st = forward(params, c, SRC, 6)
            val, dl = token_loss(st.logits[-1], (6, 8, 10), ctc=True)
            dls = [None] * c.dec_layers
            dls[-1] = dl
            return val, backward(params, st, dls)

        fd_check(run, p, np.random.default_rng(14))

    def test_deep_supervision_both_bases(self):
        # the layer average lives in the training objective, so run that
        for kw, tgt in (({}, TGT), ({"upsample": 2}, (6, 8, 10))):
            c = cfg(deep_supervision=True, dec_self_attention=(False, True), **kw)
            p = init_params(c, 15)
            pair = (TokenSeq(SRC), TokenSeq(tgt))

            def run(params):
                one = _batch_pass(params, c, [pair], TrainConfig(), None, None, train=True)
                return one.values[0], one.grads

            fd_check(run, p, np.random.default_rng(16))

    def test_length_loss(self):
        c = cfg()
        p = init_params(c, 17)

        def run(params):
            st = forward(params, c, SRC, 4)
            val, dlen = loss_length(st.length_logits, length_target_class(c, len(SRC), 4)[0])
            return val, backward(params, st, [None] * c.dec_layers, dlength=dlen)

        fd_check(run, p, np.random.default_rng(18))

    def test_composite_token_plus_length(self):
        c = cfg(decoder_input="soft_copy")
        p = init_params(c, 19)
        w = 0.1

        def run(params):
            st = forward(params, c, SRC, len(TGT))
            tv, dl = token_loss(st.logits[-1], TGT)
            lv, dlen = loss_length(st.length_logits, length_target_class(c, len(SRC), len(TGT))[0])
            dls = [None] * c.dec_layers
            dls[-1] = dl
            return tv + w * lv, backward(params, st, dls, dlength=w * dlen)

        fd_check(run, p, np.random.default_rng(20))

    def test_autoregressive_teacher_forcing(self):
        c = cfg(autoregressive=True)
        p = init_params(c, 21)
        prev = (BOS_ID,) + TGT
        labels = TGT + (EOS_ID,)

        def run(params):
            st = forward(params, c, SRC, len(prev), prev_ids=prev)
            val, dl = token_loss(st.logits[-1], labels)
            dls = [None] * c.dec_layers
            dls[-1] = dl
            return val, backward(params, st, dls)

        fd_check(run, p, np.random.default_rng(22))

    def test_gradients_under_fixed_dropout_masks(self):
        c = cfg(dropout=0.2)
        p = init_params(c, 23)

        def run(params):
            st = forward(params, c, SRC, len(TGT), train=True, rng=np.random.default_rng(99))
            val, dl = token_loss(st.logits[-1], TGT)
            dls = [None] * c.dec_layers
            dls[-1] = dl
            return val, backward(params, st, dls)

        fd_check(run, p, np.random.default_rng(24))


class TestDecode:
    def test_ctc_decode_collapses(self):
        c = cfg(upsample=2)
        p = init_params(c, 25)
        out = decode(p, c, SRC)
        assert BLANK_ID not in out
        assert len(out) <= 2 * len(SRC)

    def test_counter_single_pass(self):
        for c in (cfg(upsample=2), cfg()):
            counter = ForwardCounter()
            decode(init_params(c, 26), c, SRC, counter=counter)
            assert counter.passes == 1

    def test_predicted_length_zero_gives_empty(self):
        c = cfg(length_bound=4)
        p = zeroed_like(c)
        p["len_b"] = np.zeros(9)
        p["len_b"][0] = 5.0  # offset -4 -> predicted length max(0, 3 - 4) = 0
        assert decode(p, c, SRC) == ()

    def test_predicted_length_helper(self):
        c = cfg(length_bound=4)
        logits = np.zeros(9)
        logits[6] = 3.0  # offset +2
        assert predicted_length(c, 5, logits) == 7
        a = cfg(length_mode="absolute", max_abs_len=12)
        al = np.zeros(12)
        al[7] = 2.0
        assert predicted_length(a, 5, al) == 7


class TestDecodeAt:
    def rigged_eos_params(self, c):
        p = zeroed_like(c)
        p[f"dec{c.dec_layers - 1}_b"] = np.ones(c.d_model)
        p["emb"][EOS_ID] = np.ones(c.d_model)
        return p

    def test_immediate_eos_counts_one_pass(self):
        c = cfg(autoregressive=True)
        counter = ForwardCounter()
        out = decode_at(self.rigged_eos_params(c), c, SRC, counter=counter)
        assert out == ()
        assert counter.passes == 1

    def test_length_cap(self):
        c = cfg(autoregressive=True, max_len=64)
        counter = ForwardCounter()
        out = decode_at(zeroed_like(c), c, SRC, counter=counter)  # never emits eos
        assert len(out) == 2 * len(SRC) + 8
        assert counter.passes == len(out)

    def test_rejects_parallel_config(self):
        c = cfg()
        with pytest.raises(ModelError):
            decode_at(init_params(c, 0), c, SRC)

    def test_prefix_past_max_len_raises(self):
        c = cfg(autoregressive=True, max_len=10)  # cap 2 * 3 + 8 = 14 > 10
        counter = ForwardCounter()
        with pytest.raises(ModelError, match=r"^decoder length 11 exceeds max_len=10$"):
            decode_at(zeroed_like(c), c, SRC, counter=counter)  # never emits eos
        assert counter.passes == 10

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        vocab_size=st.integers(6, 16),
        d_model=st.integers(2, 16),
        dec_layers=st.integers(1, 3),
        activation=st.sampled_from(ACTIVATIONS),
        init=st.sampled_from(INITS),
        dropout=st.sampled_from([0.0, 0.1, 0.5]),
        max_len=st.integers(3, 16),
        max_extra=st.integers(0, 8),
        seed=st.integers(0, 2**16),
    )
    def test_matches_teacher_forced_pass(self, data, vocab_size, d_model, dec_layers,
                                         activation, init, dropout, max_len, max_extra, seed):
        # Greedy output is fixed by one property: every emitted token, and the
        # <eos> it stopped on, is the argmax of a teacher-forced pass over
        # <bos> + output. Dropout must not act, because decoding is eval mode.
        c = ModelConfig(vocab_size=vocab_size, d_model=d_model, enc_layers=1,
                        dec_layers=dec_layers, activation=activation, init=init,
                        dropout=dropout, autoregressive=True, max_len=max_len)
        src = tuple(data.draw(st.lists(st.integers(5, vocab_size - 1), min_size=1, max_size=max_len)))
        p = init_params(c, seed)
        if max_extra == 8:
            # decode serves an autoregressive config through decode_at's default cap
            runs = []
            for fn in (decode, decode_at):
                counter = ForwardCounter()
                try:
                    runs.append((fn(p, c, src, counter=counter), counter.passes))
                except ModelError as exc:
                    runs.append((str(exc), counter.passes))
            assert runs[0] == runs[1]
        cap = 2 * len(src) + max_extra
        counter = ForwardCounter()
        try:
            out = decode_at(p, c, src, max_extra=max_extra, counter=counter)
        except ModelError as exc:
            assert str(exc) == f"decoder length {max_len + 1} exceeds max_len={max_len}"
            assert cap > max_len and counter.passes == max_len
            # the guard fired only if a cap of exactly max_len runs out without <eos>
            cap = max_len
            counter = ForwardCounter()
            out = decode_at(p, c, src, max_extra=cap - 2 * len(src), counter=counter)
            assert len(out) == cap
        stopped = len(out) < cap
        prev = (BOS_ID,) + (out if stopped else out[:-1])
        states = forward(p, c, src, len(prev), prev_ids=prev)
        pred = tuple(int(i) for i in np.argmax(states.logits[-1], axis=1))
        assert pred[:len(out)] == out
        if stopped:
            assert pred[len(out)] == EOS_ID
            assert counter.passes == len(out) + 1
        else:
            assert counter.passes == cap


class TestAverageParams:
    def test_arithmetic_mean(self):
        c = cfg()
        a, b = init_params(c, 1), init_params(c, 2)
        avg = average_params([a, b])
        for k in a:
            assert np.allclose(avg[k], (a[k] + b[k]) / 2)

    def test_single_checkpoint_identity(self):
        a = init_params(cfg(), 1)
        avg = average_params([a])
        assert all(np.array_equal(avg[k], a[k]) for k in a)

    def test_mismatch_rejected(self):
        a = init_params(cfg(), 1)
        b = init_params(cfg(d_model=16), 1)
        with pytest.raises(ModelError):
            average_params([a, b])
        with pytest.raises(ModelError):
            average_params([a, {k: v for k, v in a.items() if k != "emb"}])
        with pytest.raises(ModelError):
            average_params([])
