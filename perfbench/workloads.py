"""The benchmark's workloads: seeded inputs, CLI stage calls and output checks.

Each workload writes a synthetic treebank, runs the set-up stages through
``treesent.cli.main`` and then names the one stage the benchmark times.
All paths handed to the CLI are relative to the workload's directory, so
the provenance written into checkpoints, and so the artifact digests, do
not depend on where the checkout lives.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import gen

def _ini(sections):
    out = []
    for section, items in sections.items():
        out.append(f"[{section}]")
        out.extend(f"{key} = {value}" for key, value in items.items())
        out.append("")
    return "\n".join(out)


def cli_call(cli, directory, argv):
    """Run ``treesent <argv>`` in-process inside ``directory``.

    Returns (exit code or the traceback's last frame, captured stdout). The
    process argv is set as the console script would set it, because the
    CLI records it in checkpoint provenance.
    """
    cwd, saved_argv = os.getcwd(), sys.argv
    out, err = io.StringIO(), io.StringIO()
    os.chdir(directory)
    sys.argv = ["treesent", *argv]
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a traceback is a failed call, not a harness crash
        rc = traceback.format_exc(limit=-1).strip()
    finally:
        sys.argv = saved_argv
        os.chdir(cwd)
    return rc, out.getvalue()


def digest(directory, names):
    """sha256 over the named files (name, then bytes), in the given order."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _rows_sum_to_one(predictions, failures):
    for _, preds in predictions:
        for p in preds:
            probs = np.asarray(p.probs, dtype=np.float64)
            if not np.all(np.isfinite(probs)) or abs(probs.sum() - 1.0) > 1e-4:
                failures.append(f"prediction row sums to {probs.sum()!r}")
                return


class Workload:
    """Base: set-up stages, the timed stage and its output checks."""

    name = ""
    train_batches = True      # a batch is an optimizer step (else a forward batch)
    setup_stages = ()         # CLI argv lists run after prepare and vocab
    stage = ()                # the timed CLI argv
    setup_artifacts = ()      # files whose bytes must repeat across set-ups
    stage_artifacts = ()      # files whose bytes must repeat across stage calls

    def __init__(self, seed, scale=1.0):
        self.seed = seed
        self.scale = scale

    def size(self, n, step=1):
        """``n`` sentences scaled, rounded to a multiple of ``step``."""
        return max(step, int(round(n * self.scale / step)) * step)

    def splits(self):
        raise NotImplementedError

    def config(self):
        raise NotImplementedError

    def setup(self, cli, directory):
        """Generate inputs and run the set-up stages; returns [(argv, rc)]."""
        self.data = self.splits()
        gen.write_splits(os.path.join(directory, "data"), self.data)
        with open(os.path.join(directory, "run.ini"), "w", encoding="utf-8") as fh:
            fh.write(self.config())
        calls = []
        for argv in (["prepare", "--config", "run.ini"], ["vocab", "--config", "run.ini"],
                     *self.setup_stages):
            rc, _ = cli_call(cli, directory, list(argv))
            calls.append((argv, rc))
            if rc != 0:
                break
        return calls

    def vocab_size(self, directory):
        with open(os.path.join(directory, "out", "vocab.txt"), encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def stage_texts(self):
        """The texts the timed stage works on, for the input properties."""
        raise NotImplementedError

    def check(self, directory, stdout, probe):
        """Output checks of one stage call -> (failures, quality metrics)."""
        raise NotImplementedError


def _short_config(seed, finetune_epochs):
    return _ini({
        "paths": {"data_dir": "data", "out_dir": "out"},
        "model": {"preset": "toy", "vocab_size": 2000, "max_len": 24},
        "pretrain": {"epochs": 1, "batch_size": 16, "lr": 1e-3, "max_steps": 4},
        "finetune": {"epochs": finetune_epochs, "batch_size": 32, "lr": 1e-3},
        "run": {"seed": seed, "task": "sst5", "scope": "all,root"},
    })


class FinetunePhrases(Workload):
    """``treesent finetune`` over every phrase node of short polar trees."""

    name = "finetune-phrases"
    epochs = 2
    batch_size = 32
    setup_stages = (["pretrain", "--config", "run.ini"],)
    stage = ("finetune", "--config", "run.ini", "--init", "out/pretrain.ckpt", "--force")
    setup_artifacts = ("out/vocab.txt", "out/stats.json", "out/pretrain.ckpt")
    stage_artifacts = ("out/finetune_sst5.ckpt",)

    def splits(self):
        rng = np.random.default_rng([self.seed, 1])
        # dev:train as in SST (1101 dev to 8544 train sentences, ~13%), so the
        # per-epoch dev evaluation is a small share of the stage, as in the paper
        return {"train": gen.polar_split(rng, self.size(40, 5)),
                "dev": gen.polar_split(rng, 5),
                "test": gen.polar_split(rng, 5)}

    def config(self):
        return _short_config(self.seed, self.epochs)

    def stage_texts(self):
        return self.data["train"].texts

    def steps_per_epoch(self):
        return math.ceil(len(self.data["train"].nodes) / self.batch_size)

    def check(self, directory, stdout, probe):
        failures = []
        m = re.search(r"best dev root accuracy: ([0-9.eE+-]+)", stdout)
        acc = float(m.group(1)) if m else float("nan")
        if not 0.0 <= acc <= 1.0:
            failures.append(f"dev root accuracy {acc!r} not in [0, 1]")
        expected = self.epochs * self.steps_per_epoch()
        if len(probe.losses) != expected:
            failures.append(f"{len(probe.losses)} training losses, expected {expected}")
        if not all(math.isfinite(x) for x in probe.losses):
            failures.append("non-finite training loss")
        _rows_sum_to_one(probe.predictions, failures)
        last = probe.losses[-self.steps_per_epoch():] or [float("nan")]
        return failures, {"accuracy": acc, "loss_end": float(np.mean(last))}


class PretrainPairs(Workload):
    """``treesent pretrain`` on long sentences over a Zipf-weighted invented lexicon."""

    name = "pretrain-pairs"
    epochs = 2
    batch_size = 16
    stage = ("pretrain", "--config", "run.ini", "--force")
    setup_artifacts = ("out/vocab.txt", "out/stats.json")
    stage_artifacts = ("out/pretrain.ckpt", "out/pretrain_loss.csv")

    def splits(self):
        rng = np.random.default_rng([self.seed, 2])
        pool = gen.word_pool(rng, 3000)
        return {"train": gen.zipf_split(rng, pool, self.size(97, 1)),
                "dev": gen.polar_split(rng, 5),
                "test": gen.polar_split(rng, 5)}

    def config(self):
        return _ini({
            "paths": {"data_dir": "data", "out_dir": "out"},
            "model": {"preset": "toy", "vocab_size": 2000, "max_len": 64},
            "pretrain": {"epochs": self.epochs, "batch_size": self.batch_size, "lr": 1e-3},
            "run": {"seed": self.seed, "task": "sst5", "scope": "all,root"},
        })

    def stage_texts(self):
        return list(self.data["train"].roots)

    def steps_per_epoch(self):
        return math.ceil((self.data["train"].sentences - 1) / self.batch_size)

    def check(self, directory, stdout, probe):
        failures = []
        with open(os.path.join(directory, "out", "pretrain_loss.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = self.epochs * self.steps_per_epoch()
        if len(rows) != expected:
            failures.append(f"{len(rows)} loss rows, expected {expected}")
        totals = [float(r["mlm_loss"]) + float(r["nsp_loss"]) for r in rows]
        if not all(math.isfinite(x) for x in totals):
            failures.append("non-finite pretraining loss")
        last = totals[-self.steps_per_epoch():] or [float("nan")]
        return failures, {"loss_end": float(np.mean(last))}


class EvalGrid(Workload):
    """``treesent eval`` of a fixed fine-tuned checkpoint over a large test split."""

    name = "eval-grid"
    train_batches = False
    setup_stages = (["pretrain", "--config", "run.ini"],
                    ["finetune", "--config", "run.ini", "--init", "out/pretrain.ckpt"])
    stage = ("eval", "--config", "run.ini", "--checkpoint", "out/finetune_sst5.ckpt", "--force")
    setup_artifacts = ("out/vocab.txt", "out/stats.json", "out/pretrain.ckpt",
                       "out/finetune_sst5.ckpt")
    stage_artifacts = ("out/report_sst5.tsv", "out/report_sst5.json")
    CHECKPOINT_SEED = 0  # train/dev/model seed: the checkpoint is the same for every --seed

    def splits(self):
        fixed = np.random.default_rng([self.CHECKPOINT_SEED, 3])
        train, dev = gen.polar_split(fixed, self.size(40, 5)), gen.polar_split(fixed, 20)
        return {"train": train, "dev": dev,
                "test": gen.polar_split(np.random.default_rng([self.seed, 3]),
                                        self.size(150, 5))}

    def config(self):
        return _short_config(self.CHECKPOINT_SEED, 1)

    def stage_texts(self):
        return self.data["test"].texts

    def check(self, directory, stdout, probe):
        failures = []
        test = self.data["test"]
        with open(os.path.join(directory, "out", "report_sst5.json"), encoding="utf-8") as fh:
            cells = json.load(fh)["cells"]
        for cell, n in (("sst5/all", len(test.nodes)), ("sst5/root", test.sentences)):
            got = cells.get(cell, {}).get("n")
            if got != n:
                failures.append(f"{cell} n = {got}, generated {n}")
        _rows_sum_to_one(probe.predictions, failures)
        probs = {text: p.probs for texts, preds in probe.predictions
                 for text, p in zip(texts, preds)}
        missing = [t for t, _ in test.nodes if t not in probs]
        if missing:
            failures.append(f"{len(missing)} test texts never predicted")
            return failures, {"accuracy": float("nan"), "loss_end": float("nan")}
        rows = np.array([probs[t] for t, _ in test.nodes], dtype=np.float64)
        gold = np.array([y for _, y in test.nodes])
        acc = float(np.mean(rows.argmax(axis=1) == gold))
        reported = cells["sst5/all"]["accuracy"]
        if reported is None or abs(reported - acc) > 1e-9:
            failures.append(f"reported accuracy {reported!r} != recomputed {acc!r}")
        nll = -np.log(np.maximum(rows[np.arange(len(gold)), gold], 1e-30))
        return failures, {"accuracy": acc, "loss_end": float(nll.mean())}


WORKLOADS = {w.name: w for w in (FinetunePhrases, PretrainPairs, EvalGrid)}
