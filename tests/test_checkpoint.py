import json

import numpy as np
import pytest

from natkit.checkpoint import (
    CheckpointError,
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from natkit.corpus import SPECIALS, Vocabulary
from natkit.model import ModelConfig, init_params


def fixture(tmp_path):
    cfg = ModelConfig(vocab_size=9, d_model=8, enc_layers=1, dec_layers=2,
                      upsample=2, dec_self_attention=(True, False), max_len=16)
    vocab = Vocabulary.from_tokens(["aa", "bb", "cc", "dd"], specials=SPECIALS)
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
        vocab = Vocabulary.from_tokens(["aa", "bb", "cc", "dd"], specials=SPECIALS)
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


def edit_config(path, edit):
    """Rewrite a saved checkpoint's header with ``edit`` applied to its config."""
    magic, header, body = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    edit(header["config"])
    path.write_bytes(magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + body)


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
        good = config_to_dict(ModelConfig(vocab_size=9, d_model=8, max_len=16))
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
        d = config_to_dict(cfg)
        assert config_from_dict(d) == cfg

    def test_roundtrip_all_modes(self):
        for cfg in (
            ModelConfig(vocab_size=9, upsample=2),
            ModelConfig(vocab_size=9, length_mode="absolute", max_abs_len=10),
            ModelConfig(vocab_size=9, autoregressive=True),
        ):
            assert config_from_dict(config_to_dict(cfg)) == cfg
