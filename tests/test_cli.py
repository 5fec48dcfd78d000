import configparser
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest
from test_checkpoint import save_non_finite

from treesent import classify, cli, encoder, optim, synth, treebank
from treesent import pretrain as pt
from treesent import tokenizer as tok
from treesent.autodiff import Tensor
from treesent.checkpoint import load_checkpoint, save_checkpoint
from treesent.encoder import _truncated_normal
from treesent.optim import make_rng
from treesent.tokenizer import SPECIAL_TOKENS
from treesent.treebank import MAX_TREE_DEPTH


def write_config(path, data_dir, out_dir, **overrides):
    values = {
        "vocab_size": 120,
        "max_len": 16,
        "seed": 3,
        "task": "sst5",
        "pre_epochs": 1,
        "pre_batch": 16,
        "pre_lr": 1e-3,
        "max_steps": 3,
        "ft_epochs": 1,
        "ft_batch": 32,
        "ft_lr": 1e-3,
    }
    values.update(overrides)
    text = f"""
[paths]
data_dir = {data_dir}
out_dir = {out_dir}

[model]
preset = toy
vocab_size = {values["vocab_size"]}
max_len = {values["max_len"]}

[pretrain]
epochs = {values["pre_epochs"]}
batch_size = {values["pre_batch"]}
lr = {values["pre_lr"]}
max_steps = {values["max_steps"]}

[finetune]
epochs = {values["ft_epochs"]}
batch_size = {values["ft_batch"]}
lr = {values["ft_lr"]}

[run]
seed = {values["seed"]}
task = {values["task"]}
"""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    data.mkdir()
    synth.write_dataset(data, n_train=40, n_dev=15, n_test=15, seed=9)
    out = root / "out"
    cfg = write_config(root / "run.ini", data, out)
    return {"root": root, "data": str(data), "out": str(out), "cfg": cfg}


@pytest.fixture(scope="module")
def pipeline(workspace):
    """Run the full command chain once; individual tests inspect artifacts."""
    cfg = workspace["cfg"]
    out = workspace["out"]
    assert cli.main(["prepare", "--config", cfg]) == 0
    assert cli.main(["vocab", "--config", cfg]) == 0
    assert cli.main(["pretrain", "--config", cfg]) == 0
    assert cli.main(["finetune", "--config", cfg,
                     "--init", os.path.join(out, "pretrain.ckpt")]) == 0
    assert cli.main(["eval", "--config", cfg,
                     "--checkpoint", os.path.join(out, "finetune_sst5.ckpt")]) == 0
    return workspace


class TestPrepare:
    def test_artifacts(self, pipeline):
        out = pipeline["out"]
        lines = open(os.path.join(out, "sentences_train.txt")).read().splitlines()
        assert len(lines) == 40
        assert all(line.strip() for line in lines)
        stats = json.load(open(os.path.join(out, "stats.json")))
        assert stats["sentences"] == 70
        assert os.path.exists(os.path.join(out, "stats.txt"))
        assert os.path.exists(os.path.join(out, "config.prepare.ini"))

    def test_refuses_overwrite_without_force(self, pipeline, capsys):
        assert cli.main(["prepare", "--config", pipeline["cfg"]]) == 1
        assert "--force" in capsys.readouterr().err

    def test_force_overwrites(self, pipeline):
        assert cli.main(["prepare", "--config", pipeline["cfg"], "--force"]) == 0

    def test_missing_split_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        synth.write_dataset(data, n_train=5, n_dev=2, n_test=2, seed=1)
        os.remove(data / "dev.txt")
        cfg = write_config(tmp_path / "c.ini", data, tmp_path / "out")
        assert cli.main(["prepare", "--config", cfg]) == 2
        assert "dev.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("depth, code", [(MAX_TREE_DEPTH, 0), (MAX_TREE_DEPTH + 1, 2)])
    def test_tree_depth_cap(self, tmp_path, capsys, depth, code):
        # a chain of `depth` nested nodes; a few hundred levels would
        # overflow the recursive tree code, so past the cap it exits 2
        data = tmp_path / "data"
        data.mkdir()
        synth.write_dataset(data, n_train=5, n_dev=2, n_test=2, seed=1)
        with open(data / "train.txt", "a", encoding="utf-8") as fh:
            fh.write("(2 " * (depth - 1) + "(3 deep)" + ")" * (depth - 1) + "\n")
        cfg = write_config(tmp_path / "c.ini", data, tmp_path / "out")
        assert cli.main(["prepare", "--config", cfg]) == code
        if code:
            err = capsys.readouterr().err
            assert "train.txt:6" in err and f"deeper than {MAX_TREE_DEPTH}" in err


class TestVocab:
    def test_file_layout(self, pipeline):
        out = pipeline["out"]
        lines = open(os.path.join(out, "vocab.txt"), encoding="utf-8").read().splitlines()
        assert len(lines) == 120
        assert lines[:5] == list(SPECIAL_TOKENS)
        assert len(set(lines)) == len(lines)


class TestPretrain:
    def test_checkpoint_and_loss_curve(self, pipeline):
        out = pipeline["out"]
        config, params, prov = load_checkpoint(os.path.join(out, "pretrain.ckpt"))
        assert config.layers == 2 and config.hidden == 64
        assert prov["step"] == 3
        rows = open(os.path.join(out, "pretrain_loss.csv")).read().splitlines()
        assert rows[0] == "step,mlm_loss,nsp_loss"
        assert len(rows) == 4
        steps = [int(r.split(",")[0]) for r in rows[1:]]
        assert steps == [1, 2, 3]

    @pytest.mark.parametrize("epochs, max_steps, resume, saved", [
        (2, 100, False, [3, 6]),  # one save per epoch, none after the last
        (2, 4, False, [3, 4]),    # max_steps ends the second epoch early
        (0, 100, False, [0]),     # no epoch ran: the untrained state is saved
        (1, 3, True, [3]),        # resumed at max_steps: nothing runs, one save
    ])
    def test_each_checkpoint_is_saved_once(self, pipeline, tmp_path, monkeypatch,
                                           epochs, max_steps, resume, saved):
        # 40 train trees, batch 16: 3 steps an epoch
        cfg, out = scratch_config(pipeline, tmp_path, pre_epochs=epochs, max_steps=max_steps)
        steps = []

        def counting(path, config, params, prov, real=cli.save_checkpoint):
            steps.append(prov["step"])
            return real(path, config, params, prov)

        monkeypatch.setattr(cli, "save_checkpoint", counting)
        argv = ["pretrain", "--config", cfg]
        if resume:
            argv += ["--resume", os.path.join(pipeline["out"], "pretrain.ckpt")]
        assert cli.main(argv) == 0
        assert steps == saved
        _, _, prov = load_checkpoint(str(out / "pretrain.ckpt"))
        assert prov["step"] == saved[-1]

    def test_resume_trains_the_loaded_parameters(self, pipeline, tmp_path, monkeypatch):
        start = os.path.join(pipeline["out"], "pretrain.ckpt")  # step 3 of seed 3
        _, loaded, _ = load_checkpoint(start)
        cfg, out = scratch_config(pipeline, tmp_path, max_steps=5)
        states = []

        def recording(*args, real=cli.pt.pretrain, **kwargs):
            states.append(real(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(cli.pt, "pretrain", recording)
        assert cli.main(["pretrain", "--config", cfg, "--resume", start]) == 0
        _, saved, prov = load_checkpoint(str(out / "pretrain.ckpt"))
        assert prov["step"] == 5
        (state,) = states
        opt = state.optimizer
        assert opt.t == 2
        # the checkpoint holds the arena the optimizer trained, in full
        assert set(saved) == set(opt.params)
        arena = np.concatenate([saved[name].data.ravel() for name in opt.params])
        assert arena.tobytes() == opt.arena.tobytes()
        # and that arena started from the loaded values: every tensor moved
        # by a few steps of at most about lr each
        for name, tensor in loaded.items():
            moved = np.abs(saved[name].data - tensor.data).max()
            assert 0 < moved < 3 * 1e-3 * 1.01, name


class TestFinetuneEval:
    def test_finetuned_checkpoint_has_head(self, pipeline):
        out = pipeline["out"]
        _, params, prov = load_checkpoint(os.path.join(out, "finetune_sst5.ckpt"))
        assert "head.w" in params and "head.b" in params
        assert params["head.w"].shape == (64, 5)
        assert prov["task"] == "sst5"

    def test_finetuned_checkpoint_holds_encoder_and_head_only(self, pipeline):
        # the pretraining heads (mlm.b, nsp.*) are dropped before training
        config, params, _ = load_checkpoint(os.path.join(pipeline["out"], "finetune_sst5.ckpt"))
        assert set(params) == set(encoder.param_shapes(config)) | {"head.w", "head.b"}

    def test_finetune_is_handed_one_dev_record_per_tree(self, pipeline, tmp_path, monkeypatch):
        # fine-tuning reads only the dev roots, so the CLI builds no record below them
        cfg, _ = scratch_config(pipeline, tmp_path)
        handed = []
        finetune = classify.finetune

        def spy(train_records, dev_records, *args):
            handed.append(dev_records)
            return finetune(train_records, dev_records, *args)

        monkeypatch.setattr(classify, "finetune", spy)
        assert cli.main(["finetune", "--config", cfg, "--init",
                         os.path.join(pipeline["out"], "pretrain.ckpt")]) == 0
        dev = treebank.load_corpus(os.path.join(pipeline["data"], "dev.txt"), "dev")
        (records,) = handed
        assert len(records) == len(dev.trees)
        assert [r.text for r in records] == [tree.span_text for tree in dev.trees]

    def test_no_scorable_dev_root_is_reported(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        (data / "dev.txt").write_text("(2 (3 good) (1 bad))\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.ini", data, tmp_path / "out", task="sst2")
        shutil.copytree(pipeline["out"], tmp_path / "out")
        assert cli.main(["finetune", "--config", cfg, "--force", "--init",
                         os.path.join(pipeline["out"], "pretrain.ckpt")]) == 0
        captured = capsys.readouterr()
        assert "no dev root could be scored; kept the last epoch" in captured.err
        assert "best dev root accuracy: None (epoch 0)" in captured.out

    def test_reports_agree(self, pipeline):
        out = pipeline["out"]
        tsv = open(os.path.join(out, "report_sst5.tsv")).read()
        payload = json.load(open(os.path.join(out, "report_sst5.json")))
        for line in tsv.splitlines()[1:]:
            if line.startswith("#"):
                continue
            task, scope, n, shown = line.split("\t")
            cell = payload["cells"][f"{task}/{scope}"]
            assert cell["n"] == int(n)
            assert f"{100 * cell['accuracy']:.1f}" == shown
        assert payload["cells"]["sst5/root"]["n"] == 15

    def test_root_scope_predicts_root_texts_only(self, pipeline, tmp_path, monkeypatch):
        cfg, out = scratch_config(pipeline, tmp_path)
        sent = []
        predict_texts = classify.predict_texts

        def counting(texts, *args, **kwargs):
            sent.extend(texts)
            return predict_texts(texts, *args, **kwargs)

        monkeypatch.setattr(classify, "predict_texts", counting)
        fine = os.path.join(pipeline["out"], "finetune_sst5.ckpt")
        assert cli.main(["eval", "--config", cfg, "--scope", "root", "--checkpoint", fine]) == 0
        test = treebank.load_corpus(os.path.join(pipeline["data"], "test.txt"), "test")
        roots = [tree.span_text for tree in test.trees]
        assert sorted(sent) == sorted(set(roots)) and len(roots) == 15
        cells = json.load(open(out / "report_sst5.json"))["cells"]
        both = json.load(open(os.path.join(pipeline["out"], "report_sst5.json")))["cells"]
        assert cells == {"sst5/root": both["sst5/root"]}

    def test_eval_missing_checkpoint(self, pipeline, capsys):
        assert cli.main(["eval", "--config", pipeline["cfg"], "--force",
                         "--checkpoint", "/nonexistent.ckpt"]) == 2

    def test_checkpoint_without_head_rejected(self, pipeline, capsys):
        out = pipeline["out"]
        code = cli.main(["eval", "--config", pipeline["cfg"], "--force",
                         "--checkpoint", os.path.join(out, "pretrain.ckpt")])
        assert code == 2
        assert "head" in capsys.readouterr().err


def scratch_config(pipeline, tmp_path, **overrides):
    """A config over the pipeline's data with a fresh out dir holding its vocab."""
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(os.path.join(pipeline["out"], "vocab.txt"), out)
    return write_config(tmp_path / "run.ini", pipeline["data"], out, **overrides), out


# every writing command's outputs, the config copy last
COMMAND_OUTPUTS = {
    "prepare": ["sentences_train.txt", "sentences_dev.txt", "sentences_test.txt",
                "stats.txt", "stats.json", "config.prepare.ini"],
    "vocab": ["vocab.txt", "config.vocab.ini"],
    "pretrain": ["pretrain.ckpt", "pretrain_loss.csv", "config.pretrain.ini"],
    "finetune": ["finetune_sst5.ckpt", "config.finetune_sst5.ini"],
    "eval": ["report_sst5.tsv", "report_sst5.json", "config.eval_sst5.ini"],
}


def output_scratch(pipeline, tmp_path, command):
    """A scratch out dir holding the command's inputs, and its argv."""
    cfg, out = scratch_config(pipeline, tmp_path)
    if command == "vocab":
        os.remove(out / "vocab.txt")
    inputs = {"finetune": ["--init", os.path.join(pipeline["out"], "pretrain.ckpt")],
              "eval": ["--checkpoint", os.path.join(pipeline["out"], "finetune_sst5.ckpt")]}
    return [command, "--config", cfg, *inputs.get(command, [])], out


def snapshot(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


class TestOutputs:
    @pytest.mark.parametrize("command, output", [
        (command, output) for command, outputs in COMMAND_OUTPUTS.items() for output in outputs])
    def test_existing_output_is_refused_before_any_work(self, pipeline, tmp_path, monkeypatch,
                                                        capsys, command, output):
        argv, out = output_scratch(pipeline, tmp_path, command)
        (out / output).write_bytes(b"written by hand\n")

        def unreachable(*args, **kwargs):
            raise AssertionError(f"{command} went on past an existing {output}")

        monkeypatch.setattr(cli, "_load_split", unreachable)
        monkeypatch.setattr(classify, "finetune", unreachable)
        before = snapshot(out)
        assert cli.main(argv) == 1
        assert f"{output} (use --force)" in capsys.readouterr().err
        assert snapshot(out) == before

    @pytest.mark.parametrize("command, k", [
        (command, k) for command, outputs in COMMAND_OUTPUTS.items()
        for k in range(len(outputs))])
    def test_failed_rename_leaves_each_output_old_or_new(self, pipeline, tmp_path, monkeypatch,
                                                         capsys, command, k):
        argv, out = output_scratch(pipeline, tmp_path, command)
        outputs = COMMAND_OUTPUTS[command]
        for name in outputs[::2]:  # every other output starts with old bytes
            (out / name).write_bytes(b"old\n")
        before = snapshot(out)

        def replace(src, dst, real=os.replace):
            # the first rename onto output k fails; pretrain renames its
            # checkpoint once per epoch and again at the end
            if os.path.basename(dst) == outputs[k]:
                raise OSError(f"rename onto {outputs[k]} failed")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert cli.main([*argv, "--force"]) == 2
        assert f"rename onto {outputs[k]} failed" in capsys.readouterr().err
        failed = snapshot(out)
        monkeypatch.undo()
        assert cli.main([*argv, "--force"]) == 0
        new = snapshot(out)
        assert set(failed) <= set(before) | set(outputs)  # no *.tmp is left
        assert failed.get(outputs[k]) == before.get(outputs[k])
        for name in outputs:
            assert failed.get(name) in (before.get(name), new[name]), name

    def test_two_tasks_share_an_out_dir(self, pipeline, tmp_path):
        cfg, out = scratch_config(pipeline, tmp_path)
        for task in ("sst5", "sst2"):
            assert cli.main(["finetune", "--config", cfg, "--task", task, "--init",
                             os.path.join(pipeline["out"], "pretrain.ckpt")]) == 0
            assert cli.main(["eval", "--config", cfg, "--task", task,
                             "--checkpoint", str(out / f"finetune_{task}.ckpt")]) == 0
        for task in ("sst5", "sst2"):
            for command in ("finetune", "eval"):
                copy = configparser.ConfigParser()
                assert copy.read(out / f"config.{command}_{task}.ini")
                assert copy.get("run", "task") == task


class TestRecords:
    def test_provenance_records_the_argv_given_to_main(self, pipeline, tmp_path, monkeypatch):
        # the command and its overrides, not the host process's arguments;
        # no paths, so runs in two directories stay byte-identical
        monkeypatch.setattr("sys.argv", ["host-process", "--its-own", "args"])
        cfg, out = scratch_config(pipeline, tmp_path)
        init = os.path.join(pipeline["out"], "pretrain.ckpt")
        for argv, ckpt, command in (
                (["pretrain", "--seed", "3", "--config", cfg], "pretrain.ckpt", "pretrain --seed 3"),
                (["finetune", "--config", cfg, "--init", init, "--task", "sst5", "--scope", "root"],
                 "finetune_sst5.ckpt", "finetune --task sst5 --scope root")):
            assert cli.main(argv) == 0
            _, _, prov = load_checkpoint(str(out / ckpt))
            assert prov["command"] == command

    def test_eval_config_copy_holds_the_checkpoint_task(self, pipeline, tmp_path):
        # [run] task = sst2, but the checkpoint and its report are sst5
        cfg, out = scratch_config(pipeline, tmp_path, task="sst2")
        assert cli.main(["eval", "--config", cfg, "--checkpoint",
                         os.path.join(pipeline["out"], "finetune_sst5.ckpt")]) == 0
        copy = configparser.ConfigParser()
        assert copy.read(out / "config.eval_sst5.ini")
        assert copy.get("run", "task") == "sst5"
        assert not (out / "config.eval_sst2.ini").exists()


# a damaged input, the command that reads it, and what its one error line says
DATA_ERRORS = {
    "vocab_duplicate": ("eval", "vocab.txt: duplicate tokens"),
    "vocab_specials": ("eval", "vocab.txt: vocab must start with"),
    "vocab_latin1": ("eval", "vocab.txt: 'utf-8' codec"),
    "test_latin1": ("eval", "test.txt:{lines}: 'utf-8' codec"),
    "train_one_tree": ("pretrain", "train split has 1 tree"),
    "train_empty": ("pretrain", "train split has 0 tree"),
    "train_neutral": ("finetune", "no usable training samples"),
}


class TestFailureExitCodes:
    def test_divergence_exits_3_without_checkpoint(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path, pre_lr=1e12, ft_lr=1e12)
        with np.errstate(all="ignore"):
            assert cli.main(["pretrain", "--config", cfg]) == 3
            assert cli.main(["finetune", "--config", cfg, "--init",
                             os.path.join(pipeline["out"], "pretrain.ckpt")]) == 3
        assert "diverged" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_truncated_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        raw = open(os.path.join(pipeline["out"], "finetune_sst5.ckpt"), "rb").read()
        cut_path = str(tmp_path / "cut.ckpt")
        for cut in (6, 10, 40, len(raw) // 3, len(raw) // 2, len(raw) - 1):
            with open(cut_path, "wb") as fh:
                fh.write(raw[:cut])
            assert cli.main(["eval", "--config", cfg, "--checkpoint", cut_path]) == 2
            assert cli.main(["finetune", "--config", cfg, "--init", cut_path]) == 2
        assert "truncated" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_trailing_bytes_in_checkpoint_exit_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        raw = open(os.path.join(pipeline["out"], "finetune_sst5.ckpt"), "rb").read()
        long_path = str(tmp_path / "long.ckpt")
        with open(long_path, "wb") as fh:
            fh.write(raw + b"\x00")
        assert cli.main(["eval", "--config", cfg, "--checkpoint", long_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "1 trailing byte(s) after the last tensor" in err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_vocab_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        vocab_path = os.path.join(out, "vocab.txt")
        tokens = open(vocab_path, encoding="utf-8").read().splitlines()
        # same size and the same tokens, in another order: ids now mean other words
        n_special = len(SPECIAL_TOKENS)
        tokens[n_special:] = tokens[:n_special - 1:-1]
        with open(vocab_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(tokens) + "\n")
        pre = os.path.join(pipeline["out"], "pretrain.ckpt")
        fine = os.path.join(pipeline["out"], "finetune_sst5.ckpt")
        assert cli.main(["finetune", "--config", cfg, "--init", pre]) == 2
        assert cli.main(["pretrain", "--config", cfg, "--resume", pre]) == 2
        assert cli.main(["eval", "--config", cfg, "--checkpoint", fine]) == 2
        assert cli.main(["predict", "--config", cfg, "--checkpoint", fine,
                         "--text", "a movie"]) == 2
        assert "different vocab" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_max_len_beyond_checkpoint_positions_exits_2(self, pipeline, tmp_path, capsys):
        # the toy checkpoints hold max(16, 64) = 64 position embeddings
        cfg, out = scratch_config(pipeline, tmp_path, max_len=100)
        pre = os.path.join(pipeline["out"], "pretrain.ckpt")
        fine = os.path.join(pipeline["out"], "finetune_sst5.ckpt")
        assert cli.main(["finetune", "--config", cfg, "--init", pre]) == 2
        assert cli.main(["pretrain", "--config", cfg, "--resume", pre]) == 2
        assert cli.main(["eval", "--config", cfg, "--checkpoint", fine]) == 2
        assert cli.main(["predict", "--config", cfg, "--checkpoint", fine,
                         "--text", " ".join(["movie"] * 90)]) == 2
        err = capsys.readouterr().err
        assert "max_positions 64" in err and "[model] max_len = 100" in err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    # "²" passes str.isdigit but not int(); "٣" and "03" pass both; "((" has an
    # empty label. Each command that reads the treebank names the bad line.
    @pytest.mark.parametrize("bad", ["(² bad)", "(٣ bad)", "(03 bad)", "((2 bad))"])
    def test_bad_label_exits_2_naming_the_line(self, pipeline, tmp_path, capsys, bad):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        line_no = {}
        for split in ("train", "dev", "test"):
            with open(data / f"{split}.txt", encoding="utf-8") as fh:
                line_no[split] = len(fh.readlines()) + 1
            with open(data / f"{split}.txt", "a", encoding="utf-8") as fh:
                fh.write(bad + "\n")
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(os.path.join(pipeline["out"], "vocab.txt"), out)
        cfg = write_config(tmp_path / "run.ini", data, out)
        pre = os.path.join(pipeline["out"], "pretrain.ckpt")
        fine = os.path.join(pipeline["out"], "finetune_sst5.ckpt")
        for argv, split in [(["prepare"], "train"), (["vocab", "--force"], "train"),
                            (["pretrain"], "train"), (["finetune", "--init", pre], "train"),
                            (["eval", "--checkpoint", fine], "test")]:
            assert cli.main([argv[0], "--config", cfg, *argv[1:]]) == 2, argv
            err = capsys.readouterr().err
            assert f"{split}.txt:{line_no[split]}:" in err and "expected label digit 0-4" in err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    @pytest.mark.parametrize("damage", DATA_ERRORS)
    def test_library_data_error_exits_2(self, pipeline, tmp_path, capsys, damage):
        command, named = DATA_ERRORS[damage]
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        cfg, out = scratch_config({**pipeline, "data": str(data)}, tmp_path, task="sst2")
        vocab, test, train = out / "vocab.txt", data / "test.txt", data / "train.txt"
        lines = len(test.read_bytes().splitlines()) + 1
        if damage == "vocab_duplicate":
            vocab.write_bytes(vocab.read_bytes() + vocab.read_bytes().splitlines()[-1] + b"\n")
        elif damage == "vocab_specials":
            tokens = vocab.read_bytes().splitlines()
            vocab.write_bytes(b"\n".join([tokens[1], tokens[0], *tokens[2:]]) + b"\n")
        elif damage == "vocab_latin1":
            vocab.write_bytes(vocab.read_bytes() + b"caf\xe9\n")
        elif damage == "test_latin1":
            test.write_bytes(test.read_bytes() + b"(2 caf\xe9)\n")
        elif damage == "train_one_tree":
            train.write_bytes(train.read_bytes().splitlines(keepends=True)[0])
        elif damage == "train_empty":
            train.write_bytes(b"")
        else:  # sst2 leaves out every label of an all-neutral split
            train.write_bytes(re.sub(rb"\(\d", b"(2", train.read_bytes()))
        inputs = {"eval": ["--checkpoint", os.path.join(pipeline["out"], "finetune_sst5.ckpt")],
                  "finetune": ["--init", os.path.join(pipeline["out"], "pretrain.ckpt")]}
        before = snapshot(out)
        assert cli.main([command, "--config", cfg, *inputs.get(command, [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named.format(lines=lines) in err and "Traceback" not in err
        assert snapshot(out) == before

    def test_checkpoint_without_vocab_fingerprint_loads(self, pipeline, tmp_path):
        cfg, out = scratch_config(pipeline, tmp_path)
        config, params, prov = load_checkpoint(os.path.join(pipeline["out"], "finetune_sst5.ckpt"))
        del prov["vocab_sha256"]
        older = str(tmp_path / "older.ckpt")
        save_checkpoint(older, config, params, prov)
        assert cli.main(["eval", "--config", cfg, "--checkpoint", older]) == 0


class TestPredict:
    def test_probabilities_printed(self, pipeline, capsys):
        out = pipeline["out"]
        code = cli.main(["predict", "--config", pipeline["cfg"],
                         "--checkpoint", os.path.join(out, "finetune_sst5.ckpt"),
                         "--text", "a great movie"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert [line.split(": ")[0] for line in lines[:5]] == list(treebank.LABEL_NAMES)
        probs = [float(line.split(": ")[1]) for line in lines[:5]]
        assert abs(sum(probs) - 1.0) < 0.01
        assert lines[5].split(": ")[1] in treebank.LABEL_NAMES

    def test_sst2_class_names_printed(self, pipeline, tmp_path, capsys):
        hidden = encoder.preset("toy").hidden
        sst2 = rewrite_checkpoint(os.path.join(pipeline["out"], "finetune_sst5.ckpt"),
                                  tmp_path / "sst2.ckpt",
                                  {"head.w": (hidden, 2), "head.b": (2,)}, task="sst2")
        assert cli.main(["predict", "--config", pipeline["cfg"], "--checkpoint", sst2,
                         "--text", "a great movie"]) == 0
        # a zeroed head ties the two classes, and argmax keeps the first
        assert capsys.readouterr().out.splitlines() == [
            "negative: 0.500", "positive: 0.500", "label: negative"]


class TestUsageErrors:
    def test_missing_config_file(self, capsys):
        assert cli.main(["prepare", "--config", "/no/such/file.ini"]) == 1

    def test_bad_task_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", tmp_path, tmp_path / "o", task="sst9")
        assert cli.main(["prepare", "--config", cfg]) == 1
        assert "task" in capsys.readouterr().err

    def test_no_command(self):
        assert cli.main([]) == 1


class TestDeterminism:
    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        data = pipeline["data"]
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.ini", data, out)
            outs.append((str(out), cfg))
        results = []
        for out, cfg in outs:
            for args in (["vocab", "--config", cfg, "--force"],
                         ["pretrain", "--config", cfg, "--force"],
                         ["finetune", "--config", cfg, "--force",
                          "--init", os.path.join(out, "pretrain.ckpt")],
                         ["eval", "--config", cfg, "--force",
                          "--checkpoint", os.path.join(out, "finetune_sst5.ckpt")]):
                assert cli.main(args) == 0
            results.append({
                "pretrain": open(os.path.join(out, "pretrain.ckpt"), "rb").read(),
                "finetune": open(os.path.join(out, "finetune_sst5.ckpt"), "rb").read(),
                "report": open(os.path.join(out, "report_sst5.tsv")).read(),
            })
        assert results[0] == results[1]


def set_key(path, section, key, value):
    """Rewrite the config file at ``path`` with ``[section] key = value``."""
    parser = configparser.ConfigParser()
    parser.read(path)
    if section != parser.default_section and not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


WRITE_CONFIG_DUMP = """\
[paths]
data_dir = data
out_dir = out
vocab = out/vocab.txt

[model]
preset = toy
vocab_size = 120
max_len = 16

[pretrain]
epochs = 1
batch_size = 16
lr = 0.001
mask_rate = 0.15
max_steps = 3

[finetune]
epochs = 1
batch_size = 32
lr = 0.001
head_lr = 0.001
freeze_encoder = False

[run]
seed = 3
task = sst5
scope = all,root
"""


class TestConfigTable:
    @pytest.mark.parametrize("command, section, key, value", [
        ("pretrain", "model", "max_len", "abc"),
        ("pretrain", "pretrain", "lr", "fast"),
        ("pretrain", "pretrain", "batch_size", "0"),
        ("finetune", "finetune", "batch_size", "0"),
        ("pretrain", "model", "max_len", "2"),
        ("pretrain", "model", "max_len", "4"),  # a sentence pair needs 5
        ("pretrain", "pretrain", "mask_rate", "0"),
        ("pretrain", "run", "scope", ""),
        ("pretrain", "run", "scope", ","),
    ])
    def test_bad_value_exits_1_naming_the_key(self, pipeline, tmp_path, capsys,
                                              command, section, key, value):
        cfg, out = scratch_config(pipeline, tmp_path)
        set_key(cfg, section, key, value)
        init = ["--init", os.path.join(pipeline["out"], "pretrain.ckpt")]
        assert cli.main([command, "--config", cfg, *(init if command == "finetune" else [])]) == 1
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    @pytest.mark.parametrize("section, key, value", [
        ("pretrain", "mask_rte", "0.5"), ("finetune", "lr_head", "5"),
        ("bogus", "x", "1"), ("DEFAULT", "seed", "4"),
    ])
    def test_unknown_key_exits_1_naming_it(self, pipeline, tmp_path, capsys,
                                           section, key, value):
        cfg, out = scratch_config(pipeline, tmp_path)
        set_key(cfg, section, key, value)
        for command in ("prepare", "vocab"):
            assert cli.main([command, "--config", cfg, "--force"]) == 1
            assert f"unknown config key [{section}] {key}" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_unknown_empty_section_exits_1(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("\n[bogus]\n")
        assert cli.main(["prepare", "--config", cfg]) == 1
        assert "unknown config section [bogus]" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    @pytest.mark.parametrize("key", ["pretrain.lr", "finetune.lr", "finetune.head_lr"])
    @pytest.mark.parametrize("value", ["0", "-1e-3", "nan", "inf"])
    def test_learning_rate_must_be_positive(self, pipeline, tmp_path, capsys, key, value):
        cfg, out = scratch_config(pipeline, tmp_path)
        section, key = key.split(".")
        set_key(cfg, section, key, value)
        assert cli.main(["prepare", "--config", cfg]) == 1
        assert f"bad config value [{section}] {key}" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_bad_scope_override_exits_1(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        fine = os.path.join(pipeline["out"], "finetune_sst5.ckpt")
        assert cli.main(["eval", "--config", cfg, "--scope", "bogus",
                         "--checkpoint", fine]) == 1
        assert "[run] scope" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    @pytest.mark.parametrize("section, key, value", [
        ("run", "seed", "7"), *(("model", "preset", name) for name in encoder.PRESETS),
        ("run", "task", "sst2"), ("run", "scope", "root"),
    ])
    def test_override_reaches_config_copy(self, pipeline, tmp_path, section, key, value):
        cfg, out = scratch_config(pipeline, tmp_path)
        assert cli.main(["prepare", "--config", cfg, f"--{key}", value]) == 0
        copy = configparser.ConfigParser()
        copy.read(out / "config.prepare.ini")
        assert copy.get(section, key) == value

    def test_dump_load_dump_is_identical(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "data%%", "out")
        set_key(path, "finetune", "freeze_encoder", "yes")
        set_key(path, "run", "scope", "root")
        cfg = cli.RunConfig.load(path)
        dumped = tmp_path / "dumped.ini"
        dumped.write_text(cfg.dump(), encoding="utf-8")
        again = cli.RunConfig.load(str(dumped))
        assert again == cfg
        assert again.dump() == cfg.dump()

    def test_write_config_dump_is_pinned(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "data", "out")
        assert cli.RunConfig.load(path).dump() == WRITE_CONFIG_DUMP


def rewrite_checkpoint(src, dst, shapes=None, **provenance):
    """Copy checkpoint ``src`` to ``dst`` with zeroed tensors of the given
    shapes and the given provenance entries."""
    config, params, prov = load_checkpoint(src)
    for name, shape in (shapes or {}).items():
        params[name] = Tensor(np.zeros(shape, dtype=np.float32))
    prov.update(provenance)
    save_checkpoint(str(dst), config, params, prov)
    return str(dst)


class TestCheckpointHeads:
    def test_resume_from_finetuned_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        fine = os.path.join(pipeline["out"], "finetune_sst5.ckpt")
        assert cli.main(["pretrain", "--config", cfg, "--resume", fine]) == 2
        assert "head.b" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_wrong_shaped_head_exits_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        bad = rewrite_checkpoint(os.path.join(pipeline["out"], "finetune_sst5.ckpt"),
                                 tmp_path / "bad.ckpt", {"head.w": (8, 5)})
        assert cli.main(["eval", "--config", cfg, "--checkpoint", bad]) == 2
        assert cli.main(["predict", "--config", cfg, "--checkpoint", bad,
                         "--text", "a movie"]) == 2
        assert "head.w" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_resume_with_wrong_shaped_mlm_bias_exits_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        # step 3 already equals max_steps, so a resume would only save again
        bad = rewrite_checkpoint(os.path.join(pipeline["out"], "pretrain.ckpt"),
                                 tmp_path / "bad.ckpt", {"mlm.b": (7,)})
        assert cli.main(["pretrain", "--config", cfg, "--resume", bad]) == 2
        assert "mlm.b" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_non_finite_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        config, params, prov = load_checkpoint(os.path.join(pipeline["out"], "finetune_sst5.ckpt"))
        bad = save_non_finite(tmp_path / "nan.ckpt", config, params, "head.w", np.nan, prov)
        assert cli.main(["eval", "--config", cfg, "--checkpoint", bad]) == 2
        assert cli.main(["predict", "--config", cfg, "--checkpoint", bad,
                         "--text", "a movie"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("head.w is not finite") == 2
        assert "nan" not in captured.out
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_unknown_task_exits_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        bad = rewrite_checkpoint(os.path.join(pipeline["out"], "finetune_sst5.ckpt"),
                                 tmp_path / "bad.ckpt", task="sst9")
        assert cli.main(["eval", "--config", cfg, "--checkpoint", bad]) == 2
        assert "sst9" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_head_width_must_match_task(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        bad = rewrite_checkpoint(os.path.join(pipeline["out"], "finetune_sst5.ckpt"),
                                 tmp_path / "bad.ckpt", task="sst2")
        assert cli.main(["eval", "--config", cfg, "--checkpoint", bad]) == 2
        assert cli.main(["predict", "--config", cfg, "--checkpoint", bad,
                         "--text", "a movie"]) == 2
        assert "sst2" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_finetune_init_from_same_task_trains_stored_head(self, pipeline, tmp_path):
        fine = os.path.join(pipeline["out"], "finetune_sst5.ckpt")
        _, stored, _ = load_checkpoint(fine)
        fresh = _truncated_normal(make_rng(3, stream=2), (64, 5))  # seed 3's draw
        saved = {}
        for epochs in (0, 1):
            (tmp_path / str(epochs)).mkdir()
            cfg, out = scratch_config(pipeline, tmp_path / str(epochs), ft_epochs=epochs)
            assert cli.main(["finetune", "--config", cfg, "--init", fine]) == 0
            _, saved[epochs], _ = load_checkpoint(str(out / "finetune_sst5.ckpt"))
        # no epoch: the stored head comes back as it was, not a fresh draw
        for name in ("head.w", "head.b"):
            assert saved[0][name].data.tobytes() == stored[name].data.tobytes()
        # one epoch: that head trains on
        w, b = saved[1]["head.w"].data, saved[1]["head.b"].data
        assert not np.array_equal(w, stored["head.w"].data)
        assert not np.array_equal(w, fresh)
        assert not np.array_equal(b, stored["head.b"].data) and b.any()

    def test_finetune_init_from_other_task_exits_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        fine = os.path.join(pipeline["out"], "finetune_sst5.ckpt")
        assert cli.main(["finetune", "--config", cfg, "--task", "sst2", "--init", fine]) == 2
        err = capsys.readouterr().err
        assert "sst5" in err and "sst2" in err
        assert sorted(os.listdir(out)) == ["vocab.txt"]

    def test_half_a_head_exits_2(self, pipeline, tmp_path, capsys):
        cfg, out = scratch_config(pipeline, tmp_path)
        config, params, prov = load_checkpoint(os.path.join(pipeline["out"], "finetune_sst5.ckpt"))
        del params["head.b"]
        half = str(tmp_path / "half.ckpt")
        save_checkpoint(half, config, params, prov)
        assert cli.main(["finetune", "--config", cfg, "--init", half]) == 2
        assert cli.main(["eval", "--config", cfg, "--checkpoint", half]) == 2
        assert "only one of head.w and head.b" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["vocab.txt"]


# A library caller's process: it imports treesent.pretrain, not the CLI,
# and runs the toy steps of test_pretrain_step_takes_few_page_faults.
LIBRARY_PRETRAIN_STEPS = """
import resource, sys
import treesent.pretrain as pt
from treesent import encoder, optim, tokenizer as tok  # loaded by treesent.pretrain
assert "treesent.cli" not in sys.modules
words = [f"w{i}" for i in range(1995)]
vocab = tok.Vocab(list(tok.SPECIAL_TOKENS) + words)
rng = optim.make_rng(4)
state = pt.init_pretrain_state(encoder.preset("toy", vocab_size=len(vocab)),
                               pt.PretrainConfig(lr=1e-4))
def text():
    return " ".join(words[i] for i in rng.integers(0, len(words), 40))
batches = [[(pt.mask_tokens(tok.encode_pair(text(), text(), vocab, 64), 0.15, rng, vocab),
             row % 2) for row in range(16)] for _ in range(8)]
for rows in batches[:2]:
    pt.pretrain_step(state, rows, rng)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for rows in batches[2:]:
    pt.pretrain_step(state, rows, rng)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 6)
"""

glibc_only = pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                                reason="the policy is glibc's mallopt")


class TestMallocPolicy:
    @glibc_only
    def test_pretrain_step_takes_few_page_faults(self):
        assert optim.set_malloc_policy()
        words = [f"w{i}" for i in range(1995)]
        vocab = tok.Vocab(list(SPECIAL_TOKENS) + words)
        rng = make_rng(4)
        config = encoder.preset("toy", vocab_size=len(vocab))
        state = pt.init_pretrain_state(config, pt.PretrainConfig(lr=1e-4))

        def batch():  # 16 pairs of 64 pieces
            rows = []
            for row in range(16):
                a, b = (" ".join(words[i] for i in rng.integers(0, len(words), 40))
                        for _ in range(2))
                seq = tok.encode_pair(a, b, vocab, 64)
                rows.append((pt.mask_tokens(seq, 0.15, rng, vocab), row % 2))
            return rows

        batches = [batch() for _ in range(8)]
        for rows in batches[:2]:  # warm-up: the heap grows to a step's peak
            pt.pretrain_step(state, rows, rng)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for rows in batches[2:]:
            pt.pretrain_step(state, rows, rng)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # without the policy glibc trims and re-faults each step's
        # temporaries: hundreds to thousands of faults per step
        assert faults / 6 < 50

    def test_without_mallopt_the_policy_does_nothing(self, monkeypatch):
        class NoMallopt:  # a C library without mallopt, such as musl's or macOS's
            def __init__(self, name):
                pass

        monkeypatch.setattr(optim.ctypes, "CDLL", NoMallopt)
        assert optim.set_malloc_policy() is False

    @glibc_only
    def test_importing_the_library_sets_the_policy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(treebank.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", LIBRARY_PRETRAIN_STEPS], env=env,
                             capture_output=True, text=True, check=True).stdout
        # glibc's defaults take thousands of faults per step here
        assert float(out) < 50
