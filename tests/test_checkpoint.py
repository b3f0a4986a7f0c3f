import json
from dataclasses import asdict

import numpy as np
import pytest

from natkit.checkpoint import CheckpointError, config_from_dict, load_checkpoint, save_checkpoint
from natkit.corpus import SPECIALS, Vocabulary
from natkit.model import ModelConfig, init_params


def fixture(tmp_path):
    cfg = ModelConfig(vocab_size=9, d_model=8, enc_layers=1, dec_layers=2,
                      upsample=2, dec_self_attention=(True, False), max_len=16)
    vocab = Vocabulary.from_tokens(["aa", "bb", "cc", "dd"])
    params = init_params(cfg, 12)
    path = tmp_path / "model.ckpt"
    return cfg, vocab, params, path


class TestRoundtrip:
    def test_exact_values_and_metadata(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab, extra={"step": 40})
        p2, c2, v2, extra = load_checkpoint(path)
        assert c2 == cfg
        assert v2 == vocab
        assert extra == {"step": 40}
        assert set(p2) == set(params)
        for k in params:
            assert p2[k].shape == params[k].shape
            assert np.array_equal(p2[k], params[k])

    def test_extra_defaults_to_empty(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        *_, extra = load_checkpoint(path)
        assert extra == {}

    def test_resave_byte_identical(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        first = path.read_bytes()
        save_checkpoint(path, params, cfg, vocab)
        assert path.read_bytes() == first

    def test_scalar_parameter_roundtrip(self, tmp_path):
        cfg = ModelConfig(vocab_size=9, d_model=8, enc_layers=1, dec_layers=1,
                          decoder_input="soft_copy", max_len=16)
        vocab = Vocabulary.from_tokens(["aa", "bb", "cc", "dd"])
        params = init_params(cfg, 0)
        assert params["soft_tau"].shape == ()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, cfg, vocab)
        p2, *_ = load_checkpoint(path)
        assert p2["soft_tau"].shape == ()
        assert float(p2["soft_tau"]) == float(params["soft_tau"])


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        raw = path.read_bytes()
        path.write_bytes(b"x" + raw[1:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_tensor(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unsupported_format_version(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        raw = path.read_bytes().replace(b'"format": 1', b'"format": 99', 1)
        path.write_bytes(raw)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def edit_header(path, edit):
    """Rewrite a saved checkpoint's header with ``edit`` applied to it."""
    magic, header, body = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    edit(header)
    path.write_bytes(magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + body)


def edit_config(path, edit):
    """Rewrite a saved checkpoint's header with ``edit`` applied to its config."""
    edit_header(path, lambda header: edit(header["config"]))


class TestBadConfig:
    def test_unknown_key(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        edit_config(path, lambda c: c.update(n_heads=4))
        with pytest.raises(CheckpointError, match="unknown checkpoint config keys: n_heads"):
            load_checkpoint(path)

    def test_missing_vocab_size(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        edit_config(path, lambda c: c.pop("vocab_size"))
        with pytest.raises(CheckpointError, match="lacks required keys: vocab_size"):
            load_checkpoint(path)

    def test_rejected_values(self):
        good = asdict(ModelConfig(vocab_size=9, d_model=8, max_len=16))
        for key, value in (("d_model", 1), ("activation", "tanh"), ("d_model", "wide"),
                           ("dec_self_attention", 3)):
            with pytest.raises(CheckpointError, match="invalid checkpoint config"):
                config_from_dict({**good, key: value})
        with pytest.raises(CheckpointError):
            config_from_dict(["vocab_size", 9])


class TestConfigDict:
    def test_roundtrip_preserves_tuples(self):
        cfg = ModelConfig(vocab_size=9, d_model=8, enc_layers=1, dec_layers=2,
                          dec_self_attention=(False, True), max_len=16)
        d = json.loads(json.dumps(asdict(cfg)))
        assert d["dec_self_attention"] == [False, True]
        assert config_from_dict(d) == cfg

    def test_roundtrip_all_modes(self):
        for cfg in (
            ModelConfig(vocab_size=9, upsample=2),
            ModelConfig(vocab_size=9, length_mode="absolute", max_abs_len=10),
            ModelConfig(vocab_size=9, autoregressive=True),
        ):
            assert config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


class TestBadHeader:
    @pytest.mark.parametrize("key", ["config", "vocab", "specials", "manifest"])
    def test_missing_key(self, tmp_path, key):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        edit_header(path, lambda h: h.pop(key))
        with pytest.raises(CheckpointError, match=f"header lacks {key}"):
            load_checkpoint(path)

    def test_header_not_a_mapping(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        magic, _, body = path.read_bytes().split(b"\n", 2)
        path.write_bytes(magic + b"\n[1]\n" + body)
        with pytest.raises(CheckpointError, match="not a mapping"):
            load_checkpoint(path)

    def test_header_not_utf8(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        path.write_bytes(path.read_bytes().replace(b'"config"', b'"co\xe9fig"', 1))
        with pytest.raises(CheckpointError, match="unreadable checkpoint header"):
            load_checkpoint(path)

    def test_manifest_lacks_a_tensor(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        edit_header(path, lambda h: h.update(manifest=[e for e in h["manifest"] if e[0] != "dec0_W"]))
        with pytest.raises(CheckpointError, match="config needs \\['dec0_W', \\[8, 8\\]\\]"):
            load_checkpoint(path)

    def test_manifest_shape_differs_from_config(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        # the tensors were written at d_model 8
        edit_config(path, lambda c: c.update(d_model=4))
        with pytest.raises(CheckpointError, match="manifest lists"):
            load_checkpoint(path)

    def test_manifest_with_extra_tensor(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        edit_header(path, lambda h: h["manifest"].append(["zz_extra", [2]]))
        with pytest.raises(CheckpointError, match="zz_extra', \\[2\\]\\], which its config does not use"):
            load_checkpoint(path)

    def test_vocabulary_size_differs_from_config(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        edit_header(path, lambda h: h.update(vocab=h["vocab"][:-1]))
        with pytest.raises(CheckpointError, match="vocabulary has 8 tokens, its config vocab_size=9"):
            load_checkpoint(path)

    @pytest.mark.parametrize("specials", [list(SPECIALS[:4]), list(SPECIALS[::-1]), "<unk>"],
                             ids=["eos_as_content", "reordered", "not_a_list"])
    def test_foreign_specials(self, tmp_path, specials):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        edit_header(path, lambda h: h.update(specials=specials))
        with pytest.raises(CheckpointError, match="natkit's fixed layout"):
            load_checkpoint(path)

    @pytest.mark.parametrize("vocab", [5, ["<unk>", "aa"], ["<unk>", "<blank>", "<pad>", "<bos>", "<eos>", "aa", "aa"]])
    def test_invalid_vocabulary(self, tmp_path, vocab):
        cfg, _, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, Vocabulary.from_tokens(["aa", "bb", "cc", "dd"]))
        edit_header(path, lambda h: h.update(vocab=vocab))
        with pytest.raises(CheckpointError, match="invalid vocabulary"):
            load_checkpoint(path)

    def test_manifest_not_a_list(self, tmp_path):
        cfg, vocab, params, path = fixture(tmp_path)
        save_checkpoint(path, params, cfg, vocab)
        edit_header(path, lambda h: h.update(manifest=7))
        with pytest.raises(CheckpointError, match="manifest is not a list"):
            load_checkpoint(path)
