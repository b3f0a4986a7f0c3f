import configparser
import contextlib
import io
import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natkit.checkpoint import save_checkpoint
from natkit.cli import MODEL_KEYS, TRAIN_KEYS, _typed_section, main
from natkit.corpus import SPECIALS, read_lines, synth_task, synth_vocab, write_parallel
from natkit.metrics import bleu
from natkit.model import ModelConfig, init_params
from natkit.training import TrainConfig

TRAIN_INI = """\
[data]
src = {src}
tgt = {tgt}

[model]
d_model = 16
enc_layers = 1
dec_layers = 1
decoder_input = uniform_copy
upsample = 2
max_len = 24

[training]
steps = {steps}
batch_size = 8
warmup = 10
eval_every = 20
seed = 3
"""


def write_corpus(dir_path, n=40, seed=5):
    vocab = synth_vocab(12)
    corpus = synth_task(n, (4, 7), 1, seed, n_words=12)
    write_parallel(corpus, vocab, dir_path / "src.txt", dir_path / "tgt.txt")
    return dir_path / "src.txt", dir_path / "tgt.txt"


def edited_checkpoint(ckpt, dest, edit):
    """A copy of ``ckpt`` at ``dest`` with ``edit`` applied to its JSON header."""
    magic, header, body = ckpt.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    edit(header)
    dest.write_bytes(magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    return dest


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small trained checkpoint shared by the decode and bench tests."""
    root = tmp_path_factory.mktemp("trained")
    src, tgt = write_corpus(root)
    ini = root / "train.ini"
    ini.write_text(TRAIN_INI.format(src=src, tgt=tgt, steps=60))
    assert main(["train", "--config", str(ini), "--out-dir", str(root / "run")]) == 0
    return {"src": src, "tgt": tgt, "ckpt": root / "run" / "model.ckpt", "root": root}


class TestScore:
    def test_identity_scores(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("the quick brown fox jumps\nover the lazy dog again\n")
        assert main(["score", "--hyp", str(ref), "--ref", str(ref)]) == 0
        out = capsys.readouterr().out
        assert "bleu = 100.00" in out
        assert "chrf = 100.00" in out
        assert "ter = 0.00" in out
        assert "tok:13a" in out

    def test_json_output(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("aa bb cc dd ee\n")
        assert main(["score", "--hyp", str(ref), "--ref", str(ref), "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["metric"] for r in reports] == ["bleu", "chrf", "ter"]
        assert all(set(r) == {"metric", "value", "signature", "n_sentences"} for r in reports)
        assert reports[2]["value"] == 0.0

    def test_metric_selection_and_alias(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("aa bb cc dd\n")
        assert main(["score", "--hyp", str(ref), "--ref", str(ref), "--metrics", "chrfpp"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("chrf = 100.00")
        assert "bleu" not in out

    def test_out_file(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("aa bb cc dd\n")
        out_path = tmp_path / "report.txt"
        assert main(
            ["score", "--hyp", str(ref), "--ref", str(ref), "--out", str(out_path)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert "ter = 0.00" in out_path.read_text()

    def test_line_count_mismatch_exit_2(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a\nb\n")
        ref.write_text("a\n")
        assert main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 2
        err = capsys.readouterr().err
        assert "2" in err and "1" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("a\n")
        assert main(["score", "--hyp", str(tmp_path / "nope.txt"), "--ref", str(ref)]) == 2

    def test_unknown_metric_exit_2(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("a\n")
        assert main(["score", "--hyp", str(ref), "--ref", str(ref), "--metrics", "comet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown metric 'comet'; choose from ")
        for name in ("bleu", "chrfpp", "ter"):
            assert name in err.split("choose from ")[1].strip().split(", ")

    def test_empty_reference_line_named_exit_2(self, tmp_path, capsys):
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_text("a b\nc d\n")
        ref.write_text("a b\n\n")
        assert main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 2
        assert capsys.readouterr().err == (
            f"error: {ref}:2: TER needs a non-empty reference sentence\n"
        )
        assert main(["score", "--hyp", str(hyp), "--ref", str(ref), "--metrics", "bleu,chrf"]) == 0


class TestSignif:
    def make_files(self, tmp_path):
        ref = tmp_path / "ref.txt"
        lines = [f"w{i} alpha beta gamma delta" for i in range(30)]
        ref.write_text("".join(l + "\n" for l in lines))
        perfect = tmp_path / "perfect.txt"
        perfect.write_text("".join(l + "\n" for l in lines))
        noisy = tmp_path / "noisy.txt"
        noisy.write_text("".join(l.replace("beta", "xx") + "\n" for l in lines))
        return ref, perfect, noisy

    def test_root_and_child(self, tmp_path, capsys):
        ref, perfect, noisy = self.make_files(tmp_path)
        spec = tmp_path / "table.spec"
        spec.write_text(f"base\t{noisy.name}\n+fix\t{perfect.name}\n")
        assert main(["signif", "--spec", str(spec), "--ref", str(ref), "--n-resamples", "200"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "system\tmetric\tvalue\tbase\tp\tdagger"
        assert len(lines) == 3
        root_cols = lines[1].split("\t")
        child_cols = lines[2].split("\t")
        assert root_cols[0] == "base" and root_cols[3] == "-" and root_cols[4] == "-"
        assert child_cols[0] == "+fix" and child_cols[3] == "base"
        assert float(child_cols[4]) <= 0.05 and child_cols[5] == "n"

    def test_identical_files_get_dagger(self, tmp_path, capsys):
        ref, perfect, _ = self.make_files(tmp_path)
        spec = tmp_path / "table.spec"
        spec.write_text(f"a\t{perfect.name}\n+b\t{perfect.name}\n")
        assert main(["signif", "--spec", str(spec), "--ref", str(ref)]) == 0
        child = capsys.readouterr().out.strip().split("\n")[2].split("\t")
        assert child[4] == "1.0000" and child[5] == "y"

    def test_chain_pairing(self, tmp_path, capsys):
        ref, perfect, noisy = self.make_files(tmp_path)
        spec = tmp_path / "table.spec"
        spec.write_text(
            f"root\t{noisy.name}\n+A\t{noisy.name}\n+A+B\t{perfect.name}\n"
        )
        assert main(["signif", "--spec", str(spec), "--ref", str(ref), "--n-resamples", "100"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        bases = {l.split("\t")[0]: l.split("\t")[3] for l in lines[1:]}
        assert bases == {"root": "-", "+A": "root", "+A+B": "+A"}

    def test_blocks_compare_roots(self, tmp_path, capsys):
        ref, perfect, noisy = self.make_files(tmp_path)
        spec = tmp_path / "table.spec"
        spec.write_text(f"first\t{noisy.name}\n\nsecond\t{perfect.name}\n")
        assert main(["signif", "--spec", str(spec), "--ref", str(ref), "--n-resamples", "100"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[2].split("\t")[3] == "first"

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        ref, perfect, _ = self.make_files(tmp_path)
        spec = tmp_path / "table.spec"
        spec.write_text("no tab separator here\n")
        assert main(["signif", "--spec", str(spec), "--ref", str(ref)]) == 2

    def test_empty_reference_line_named_exit_2(self, tmp_path, capsys):
        ref, perfect, noisy = self.make_files(tmp_path)
        lines = ref.read_text().split("\n")
        lines[4] = ""
        ref.write_text("\n".join(lines))
        spec = tmp_path / "table.spec"
        spec.write_text(f"base\t{noisy.name}\n+fix\t{perfect.name}\n")
        args = ["signif", "--spec", str(spec), "--ref", str(ref), "--n-resamples", "100"]
        assert main(args + ["--metric", "ter"]) == 2
        assert f"error: {ref}:5: TER needs" in capsys.readouterr().err
        assert main(args + ["--metric", "bleu"]) == 0

    def test_child_without_parent_exit_2(self, tmp_path, capsys):
        ref, perfect, _ = self.make_files(tmp_path)
        spec = tmp_path / "table.spec"
        spec.write_text(f"root\t{perfect.name}\n+A+B\t{perfect.name}\n")
        assert main(["signif", "--spec", str(spec), "--ref", str(ref)]) == 2


class TestTrain:
    def test_artifacts_and_rerun_identical(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path)
        ini = tmp_path / "train.ini"
        ini.write_text(TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=30))

        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "a")]) == 0
        assert "trained 30 steps" in capsys.readouterr().out
        a = tmp_path / "a"
        assert (a / "model.ckpt").is_file()
        assert (a / "final.ckpt").is_file()
        log_lines = (a / "train_log.jsonl").read_text().strip().split("\n")
        assert len(log_lines) == 30
        assert json.loads(log_lines[0])["step"] == 1

        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "b")]) == 0
        b = tmp_path / "b"
        for name in ("model.ckpt", "final.ckpt", "train_log.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_model(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path)
        ini = tmp_path / "train.ini"
        ini.write_text(TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=30))
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(
            ["train", "--config", str(ini), "--out-dir", str(tmp_path / "c"), "--seed", "9"]
        ) == 0
        assert (tmp_path / "a" / "model.ckpt").read_bytes() != (
            tmp_path / "c" / "model.ckpt"
        ).read_bytes()

    def test_paths_resolve_relative_to_config(self, tmp_path, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        write_corpus(sub)
        ini = sub / "train.ini"
        ini.write_text(TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=5))
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "out")]) == 0

    def test_missing_data_section_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "train.ini"
        ini.write_text("[model]\nd_model = 8\n")
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "o")]) == 2

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path)
        ini = tmp_path / "train.ini"
        ini.write_text(f"[data]\nsrc = {src}\ntgt = {tgt}\n\n[model]\nwidth = 8\n")
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "o")]) == 2

    def test_vocab_size_rejected(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path)
        ini = tmp_path / "train.ini"
        ini.write_text(f"[data]\nsrc = {src}\ntgt = {tgt}\n\n[model]\nvocab_size = 99\n")
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "o")]) == 2

    def test_glat_start_with_autoregressive_exit_2(self, tmp_path, capsys):
        write_corpus(tmp_path)
        ini = tmp_path / "train.ini"
        text = TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=2)
        ini.write_text(text.replace("upsample = 2", "autoregressive = true")
                       .replace("[training]", "[training]\nglat_start = 0.5"))
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "glat_start" in err and "autoregressive" in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(
            ["train", "--config", str(tmp_path / "no.ini"), "--out-dir", str(tmp_path / "o")]
        ) == 2


# out-of-range [training] values; the last one is the knob a sweep sets
OUT_OF_RANGE = {
    "glat_start": [("glat_start", "1.5")],
    "glat_slope": [("glat_start", "0.3"), ("glat_slope", "0.5")],
    "eval_every": [("eval_every", "0")],
    "lr": [("lr", "-1")],
}


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("key", list(OUT_OF_RANGE))
def test_out_of_range_training_value_exit_2(tmp_path, capsys, command, key):
    write_corpus(tmp_path, n=10)
    values = OUT_OF_RANGE[key]
    in_ini = values if command == "train" else values[:-1]
    text = TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=2).replace("eval_every = 20\n", "")
    ini = tmp_path / "train.ini"
    ini.write_text(text.replace("[training]\n", "[training]\n" + "".join(
        f"{k} = {v}\n" for k, v in in_ini)))
    out = tmp_path / "o"
    if command == "train":
        argv = ["train", "--config", str(ini), "--out-dir", str(out)]
    else:
        knob, raw = values[-1]
        argv = ["sweep", "--config", str(ini), "--knob", knob, f"--values={raw}", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


class TestDecode:
    def test_round_trip_matches_in_process(self, tmp_path, trained, capsys):
        hyp_path = tmp_path / "hyp.txt"
        assert main(
            [
                "decode",
                "--checkpoint", str(trained["ckpt"]),
                "--src", str(trained["src"]),
                "--out", str(hyp_path),
            ]
        ) == 0
        assert "decoded 40 sentences in 40 decoder passes" in capsys.readouterr().out

        out_path = tmp_path / "score.json"
        assert main(
            [
                "score",
                "--hyp", str(hyp_path),
                "--ref", str(trained["tgt"]),
                "--metrics", "bleu",
                "--json",
                "--out", str(out_path),
            ]
        ) == 0
        cli_value = json.loads(out_path.read_text())[0]["value"]
        direct = bleu(read_lines(hyp_path), read_lines(trained["tgt"])).value
        assert cli_value == direct

    def test_deterministic(self, tmp_path, trained, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["decode", "--checkpoint", str(trained["ckpt"]), "--src", str(trained["src"])]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_source_line_exit_2(self, tmp_path, trained, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("w01 w02\n\nw03\n")
        assert main(
            ["decode", "--checkpoint", str(trained["ckpt"]), "--src", str(bad)]
        ) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: empty source line")

    @pytest.mark.parametrize("mode, n_long", [("ctc", 17), ("at", 21)])
    def test_over_long_line_named_exit_2(self, tmp_path, capsys, mode, n_long):
        # upsample 3 needs 3 * 17 = 51 positions; the AT cap 2 * 21 + 8 = 50
        # passes max_len when zero weights never predict <eos>
        vocab = synth_vocab(12)
        kw = {"upsample": 3} if mode == "ctc" else {"autoregressive": True}
        config = ModelConfig(vocab_size=len(vocab), d_model=8, enc_layers=1, dec_layers=1,
                             max_len=48, **kw)
        params = {k: np.zeros_like(v) for k, v in init_params(config, 0).items()}
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, params, config, vocab)
        words = vocab.tokens[len(SPECIALS):]
        src = tmp_path / "src.txt"
        src.write_text(" ".join(words[:4]) + "\n" + " ".join(words[i % len(words)] for i in range(n_long)) + "\n")
        out = tmp_path / "hyp.txt"
        assert main(["decode", "--checkpoint", str(ckpt), "--src", str(src), "--out", str(out)]) == 2
        assert f"{src}:2: decoder length" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_with_unknown_config_key_exit_2(self, tmp_path, trained, capsys):
        magic, header, body = trained["ckpt"].read_bytes().split(b"\n", 2)
        header = json.loads(header)
        header["config"]["n_heads"] = 4
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        assert main(["decode", "--checkpoint", str(bad), "--src", str(trained["src"])]) == 2
        assert "n_heads" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("manifest"), "header lacks manifest"),
        (lambda h: h.update(manifest=[e for e in h["manifest"] if e[0] != "dec0_W"]), "'dec0_W'"),
        (lambda h: h.update(vocab=h["vocab"][:-1]), "vocab_size"),
    ])
    def test_malformed_checkpoint_header_exit_2(self, tmp_path, trained, capsys, edit, message):
        bad = edited_checkpoint(trained["ckpt"], tmp_path / "bad.ckpt", edit)
        assert main(["decode", "--checkpoint", str(bad), "--src", str(trained["src"])]) == 2
        assert message in capsys.readouterr().err

    def test_checkpoint_header_not_utf8_exit_2(self, tmp_path, trained, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(trained["ckpt"].read_bytes().replace(b'"config"', b'"co\xe9fig"', 1))
        assert main(["decode", "--checkpoint", str(bad), "--src", str(trained["src"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unreadable checkpoint header in {bad}: ")
        assert "Traceback" not in err

    def test_checkpoint_with_foreign_specials_exit_2(self, tmp_path, trained, capsys):
        # four specials would make <eos> a content token and id 4 a word
        bad = edited_checkpoint(trained["ckpt"], tmp_path / "bad.ckpt",
                                lambda h: h.update(specials=h["specials"][:4]))
        out = tmp_path / "hyp.txt"
        assert main(["decode", "--checkpoint", str(bad), "--src", str(trained["src"]),
                     "--out", str(out)]) == 2
        assert "natkit's fixed layout" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_dropout_grid_six_rows(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path, n=20)
        ini = tmp_path / "train.ini"
        ini.write_text(TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=10))
        assert main(
            [
                "sweep", "--config", str(ini),
                "--knob", "dropout",
                "--values", "0,0.1,0.2,0.3,0.4,0.5",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "knob\tvalue\tval_loss"
        assert len(lines) == 7
        assert [l.split("\t")[1] for l in lines[1:]] == ["0", "0.1", "0.2", "0.3", "0.4", "0.5"]
        assert all(float(l.split("\t")[2]) > 0 for l in lines[1:])

    def test_divergence_reported_nonzero_exit(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path, n=20)
        ini = tmp_path / "train.ini"
        ini.write_text(TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=10))
        assert main(
            ["sweep", "--config", str(ini), "--knob", "lr", "--values", "5e-3,1e100"]
        ) == 1
        captured = capsys.readouterr()
        rows = captured.out.strip().split("\n")
        assert rows[2].split("\t") == ["lr", "1e100", "diverges"]
        assert "1e100" in captured.err

    def test_unknown_knob_exit_2(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path, n=10)
        ini = tmp_path / "train.ini"
        ini.write_text(TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=5))
        assert main(["sweep", "--config", str(ini), "--knob", "width", "--values", "1"]) == 2

    def test_bad_value_exit_2(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path, n=10)
        ini = tmp_path / "train.ini"
        ini.write_text(TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=5))
        assert main(["sweep", "--config", str(ini), "--knob", "lr", "--values", "fast"]) == 2


class TestBench:
    def test_table_shape(self, tmp_path, trained, capsys):
        assert main(
            [
                "bench",
                "--system", f"nat={trained['ckpt']}",
                "--src", str(trained["src"]),
                "--runs", "1",
                "--warmup", "1",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "label\tmean_ms\tstd_ms\truns\tspeedup_vs_base"
        cols = lines[1].split("\t")
        assert cols[0] == "nat" and cols[2] == "0.000" and cols[4] == "1.0"

    def test_over_long_line_named_exit_2(self, tmp_path, capsys):
        # upsample 3 needs 3 * 17 = 51 positions, past max_len 48
        vocab = synth_vocab(12)
        config = ModelConfig(vocab_size=len(vocab), d_model=8, enc_layers=1, dec_layers=1,
                             upsample=3, max_len=48)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, init_params(config, 0), config, vocab)
        words = vocab.tokens[len(SPECIALS):]
        src = tmp_path / "src.txt"
        src.write_text(" ".join(words[:4]) + "\n" + " ".join(words[i % len(words)] for i in range(17)) + "\n")
        out = tmp_path / "table.tsv"
        assert main(["bench", "--system", f"nat={ckpt}", "--src", str(src),
                     "--runs", "1", "--warmup", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}:2: decoder length 51 exceeds max_len=48\n"
        )
        assert not out.exists()

    def test_bad_system_spec_exit_2(self, tmp_path, trained, capsys):
        assert main(["bench", "--system", "justalabel", "--src", str(trained["src"])]) == 2

    def test_duplicate_labels_exit_2(self, tmp_path, trained, capsys):
        spec = f"x={trained['ckpt']}"
        assert main(["bench", "--system", spec, "--system", spec, "--src", str(trained["src"])]) == 2

    def test_unknown_base_exit_2(self, tmp_path, trained, capsys):
        assert main(
            [
                "bench",
                "--system", f"nat={trained['ckpt']}",
                "--src", str(trained["src"]),
                "--base", "at",
            ]
        ) == 2


class TestAnalyze:
    def test_identity_histogram_mass_at_zero(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("aa bb cc dd\nee ff gg\n")
        out = tmp_path / "ana"
        assert main(
            ["analyze", "--hyp", str(ref), "--ref", str(ref), "--out-dir", str(out)]
        ) == 0
        hist = (out / "levenshtein.tsv").read_text().strip().split("\n")
        assert hist == ["distance\tcount", "0\t2"]
        buckets = (out / "bucketed_bleu.tsv").read_text().strip().split("\n")
        assert buckets[0] == "bucket\tbleu\tn"
        assert sum(int(l.split("\t")[2]) for l in buckets[1:]) == 2

    def test_custom_edges(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("aa bb cc dd ee\n")
        out = tmp_path / "ana"
        assert main(
            [
                "analyze", "--hyp", str(ref), "--ref", str(ref),
                "--out-dir", str(out), "--edges", "0,3",
            ]
        ) == 0
        buckets = (out / "bucketed_bleu.tsv").read_text().strip().split("\n")
        assert [l.split("\t")[0] for l in buckets[1:]] == ["[0,3)", "[3,inf)"]

    def test_mismatch_exit_2(self, tmp_path, capsys):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_text("a\nb\n")
        ref.write_text("a\n")
        assert main(
            ["analyze", "--hyp", str(hyp), "--ref", str(ref), "--out-dir", str(tmp_path / "o")]
        ) == 2


class TestSynth:
    def test_deterministic_and_aligned(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--n", "25", "--len-min", "3", "--len-max", "6",
                "--modes", "2", "--seed", "4"]
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "src.txt").read_bytes() == (b / "src.txt").read_bytes()
        assert (a / "tgt.txt").read_bytes() == (b / "tgt.txt").read_bytes()

        src_lines = read_lines(a / "src.txt")
        tgt_lines = read_lines(a / "tgt.txt")
        assert len(src_lines) == 25 and len(tgt_lines) == 25
        for s, t in zip(src_lines, tgt_lines):
            assert len(t.split()) == len(s.split()) + 1

    def test_seed_changes_data(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out-dir", str(a), "--n", "10", "--seed", "1"]) == 0
        assert main(["synth", "--out-dir", str(b), "--n", "10", "--seed", "2"]) == 0
        assert (a / "src.txt").read_bytes() != (b / "src.txt").read_bytes()

    def test_bad_range_exit_2(self, tmp_path, capsys):
        assert main(
            ["synth", "--out-dir", str(tmp_path / "o"), "--len-min", "5", "--len-max", "3"]
        ) == 2
        assert capsys.readouterr().err == "error: bad source length range (5, 3)\n"
        assert not (tmp_path / "o").exists()


class TestNotUtf8:
    """A byte that is not UTF-8 exits 2 and names its file and line."""

    @staticmethod
    def assert_named(capsys, path, line):
        err = capsys.readouterr().err
        assert err == f"error: {path}:{line}: not valid UTF-8\n"
        assert "Traceback" not in err

    def test_score(self, tmp_path, capsys):
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_bytes(b"cafe\r\nthe caf\xe9\r\n")
        ref.write_text("cafe\ncafe\n")
        assert main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 2
        self.assert_named(capsys, hyp, 2)

    def test_signif(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("a b\nc d\ne f\n")
        (tmp_path / "good.txt").write_text("a b\nc d\ne f\n")
        (tmp_path / "bad.txt").write_bytes(b"a b\nc d\ne \xff\n")
        spec = tmp_path / "table.spec"
        spec.write_text("base\tgood.txt\n+bad\tbad.txt\n")
        assert main(["signif", "--spec", str(spec), "--ref", str(ref)]) == 2
        self.assert_named(capsys, tmp_path / "bad.txt", 3)

    def test_decode(self, tmp_path, trained, capsys):
        src = tmp_path / "src.txt"
        src.write_bytes(b"w01 w02\n\xc3 w03\n")
        assert main(["decode", "--checkpoint", str(trained["ckpt"]), "--src", str(src)]) == 2
        self.assert_named(capsys, src, 2)

    def test_train(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path, n=10)
        lines = tgt.read_bytes().split(b"\n")
        lines[3] += b" \xe9"
        tgt.write_bytes(b"\n".join(lines))
        ini = tmp_path / "train.ini"
        ini.write_text(TRAIN_INI.format(src=src, tgt=tgt, steps=2))
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "run")]) == 2
        self.assert_named(capsys, tgt, 4)

    def test_train_config(self, tmp_path, capsys):
        src, tgt = write_corpus(tmp_path, n=10)
        ini = tmp_path / "train.ini"
        ini.write_bytes(TRAIN_INI.format(src=src, tgt=tgt, steps=2).encode().replace(
            b"[model]", b"[model]\n; caf\xe9"))
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "run")]) == 2
        self.assert_named(capsys, ini, 6)


_FUZZ_WORDS = ["a", "b", "café", "naïve", "日本語", "ß", "«x»", "—", "1,000.", "\u00a0"]
_fuzz_line = st.tuples(
    st.one_of(st.lists(st.sampled_from(_FUZZ_WORDS), max_size=5).map(" ".join),
              st.sampled_from([" ", "\t", " \t "])),
    st.sampled_from([b"", b"", b"", b"\xff", b"caf\xe9", b"\xc3"]),
    st.sampled_from([b"\n", b"\r\n"]),
).map(lambda t: t[0].encode("utf-8") + t[1] + t[2])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.lists(_fuzz_line, min_size=n, max_size=n).map(b"".join)] * 2)))
def test_score_fuzz_exit_0_or_named_line(files):
    # empty, whitespace-only and non-ASCII lines, CRLF endings, bad bytes
    with tempfile.TemporaryDirectory() as tmp:
        hyp, ref = Path(tmp) / "hyp.txt", Path(tmp) / "ref.txt"
        hyp.write_bytes(files[0])
        ref.write_bytes(files[1])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["score", "--hyp", str(hyp), "--ref", str(ref), "--metrics", "bleu,chrf,ter"])
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 2:
        assert re.match(rf"error: ({re.escape(str(hyp))}|{re.escape(str(ref))}):\d+: ", err), err
    else:
        assert code == 0 and err == ""


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "natkit" in capsys.readouterr().out

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def _ini_text(value) -> str:
    """A config value as it is written in an INI file."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


CONFIG_FIELDS = [("model", f) for f in fields(ModelConfig) if f.name != "vocab_size"]
CONFIG_FIELDS += [("training", f) for f in fields(TrainConfig)]


@pytest.mark.parametrize("section, field", CONFIG_FIELDS, ids=lambda v: getattr(v, "name", v))
def test_every_config_field_settable(tmp_path, capsys, section, field):
    raw = _ini_text(field.default)
    parser = configparser.ConfigParser()
    parser.read_string(f"[{section}]\n{field.name} = {raw}\n")
    keys = MODEL_KEYS if section == "model" else TRAIN_KEYS
    assert _typed_section(parser, section, keys) == {field.name: field.default}

    write_corpus(tmp_path, n=8)
    ini = tmp_path / "train.ini"
    # a length-mode model, so that every default value trains
    ini.write_text(TRAIN_INI.format(src="src.txt", tgt="tgt.txt", steps=1).replace("upsample = 2\n", ""))
    assert main(["sweep", "--config", str(ini), "--knob", field.name, "--values", raw]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[1].split("\t")[:2] == [field.name, raw]
