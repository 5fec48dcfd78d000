"""The names and argument positions the benchmark's tracer patches.

``perfbench/spans.py`` times treesent from outside, by replacing module
attributes, and it reads ``encode_batch``'s ``mask`` and ``training`` by
position. A renamed function or a moved argument would not stop a
benchmark run: it would leave its metrics blank or wrong. These tests fail
instead. ``spans.py`` is loaded from its path and not changed.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
from test_cli import write_config
from test_pretrain import batch_from, letter_vocab, sentence_corpus, tiny_state

import treesent
from treesent import (autodiff, checkpoint, classify, cli, encoder, optim, pretrain, synth,
                      tokenizer, treebank)
from treesent.optim import make_rng

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# every attribute the tracer patches besides the ``OPS`` in spans.py
HOOKED = [
    (autodiff, "backward"),
    (encoder, "encode_batch"),
    (encoder, "attention_block"),
    (tokenizer, "encode"),
    (tokenizer, "encode_pair"),
    (classify, "predict_texts"),
    (classify, "_dev_root_accuracy"),
    (pretrain, "make_nsp_pairs"),
    (pretrain, "mask_tokens"),
    (pretrain, "pretrain_step"),
    (optim.AdamW, "step"),
    (checkpoint, "save_checkpoint"),
    (checkpoint, "load_checkpoint"),
    (treebank, "load_corpus"),
]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_encode_batch_mask_and_training_positions():
    names = list(inspect.signature(encoder.encode_batch).parameters)
    assert names[2] == "mask" and names[5] == "training", names


def test_traced_ops_exist():
    ops = load_spans().OPS
    assert ops
    missing = [op for op in ops if not callable(getattr(autodiff, op, None))]
    assert not missing


def test_hooked_attributes_exist():
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name in HOOKED
               if not callable(getattr(owner, name, None))]
    assert not missing


def test_hooks_install_and_restore():
    spans = load_spans()
    before = {(owner, name): getattr(owner, name) for owner, name in HOOKED}
    with spans.Patches() as patches:
        spans.Probe(train_batches=True).install(patches, treesent)
        spans.Tracer().install(patches, treesent)
        assert all(getattr(*key) is not fn for key, fn in before.items())
    assert {key: getattr(*key) for key in before} == before


def test_probe_times_a_training_step():
    # one pretraining step is one training encode_batch call followed by one
    # optimizer step: the probe must see its mask and close one batch
    spans = load_spans()
    vocab = letter_vocab()
    state = tiny_state(vocab)
    rng = make_rng(35)
    batch = batch_from(sentence_corpus(["ab cd", "ef gh ij", "kl"]), vocab, rng)
    probe = spans.Probe(train_batches=True)
    with spans.Patches() as patches:
        probe.install(patches, treesent)
        pretrain.pretrain_step(state, batch, rng)
    assert len(probe.batch_s) == 1
    assert probe.rows == len(batch)
    assert probe.real_tokens == sum(ex.seq.n_real for ex, _ in batch)
    assert len(probe.losses) == 2 and np.isfinite(probe.losses).all()


def test_tracer_counts_the_trees_cli_loads(tmp_path):
    # the CLI must reach load_corpus through the treebank module attribute,
    # where the tracer's span is, for treebank.load_s and treebank.trees
    spans = load_spans()
    data = tmp_path / "data"
    data.mkdir()
    synth.write_dataset(data, n_train=7, n_dev=3, n_test=2, seed=4)
    cfg = write_config(tmp_path / "run.ini", data, tmp_path / "out")
    tracer = spans.Tracer()
    with spans.Patches() as patches:
        tracer.install(patches, treesent)
        assert cli.main(["prepare", "--config", cfg]) == 0
    assert tracer.counts["treebank.trees"] == 7 + 3 + 2
