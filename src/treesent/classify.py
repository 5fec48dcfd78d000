"""Dropout + softmax classification head, fine-tuning loop, and the
SST-2/SST-5 × all-nodes/root-nodes accuracy grid.

The head is the ``head.w`` (H, K) and ``head.b`` (K,) tensors of the
parameter dict, the names a fine-tuned checkpoint stores them under.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .autodiff import Tensor
from .optim import AdamW, check_finite_loss, make_rng
from .tokenizer import encode, stack_batch
from .treebank import BinaryLabel, extract_phrases, to_binary

__all__ = [
    "TASK_CLASSES",
    "Prediction",
    "EvalReport",
    "FinetuneConfig",
    "EmptyTrainingSetError",
    "LabelSpaceMismatchError",
    "project_label",
    "finetune",
    "accuracy",
    "predict_texts",
    "evaluate",
]

TASK_CLASSES = {"sst2": 2, "sst5": 5}

# training batches are length-sorted within chunks of this many batches
BUCKET_CHUNK = 4


class EmptyTrainingSetError(ValueError):
    pass


class LabelSpaceMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Prediction:
    probs: np.ndarray
    label: int


@dataclass
class EvalReport:
    """Accuracy per (task, scope) cell; ``cells[(task, scope)] = (n, acc)``."""

    cells: dict = field(default_factory=dict)
    footer: str = "split: standard train/dev/test; every node occurrence scored"

    def to_tsv(self) -> str:
        lines = ["task\tscope\tn\taccuracy"]
        for (task, scope), (n, acc) in sorted(self.cells.items()):
            shown = f"{100.0 * acc:.1f}" if n > 0 else "n/a"
            lines.append(f"{task}\t{scope}\t{n}\t{shown}")
        lines.append(f"# {self.footer}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "cells": {
                f"{task}/{scope}": {"n": n, "accuracy": acc if n > 0 else None}
                for (task, scope), (n, acc) in sorted(self.cells.items())
            },
            "footer": self.footer,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 3
    batch_size: int = 32
    lr: float = 2e-5
    head_lr: float = 1e-3
    max_len: int = 64
    seed: int = 0
    freeze_encoder: bool = False


def _head_logits(pooled, params):
    return ad.linear(pooled, params["head.w"], params["head.b"])


def _head_predictions(pooled, params):
    """One Prediction per pooled row; argmax with lowest-index tie-break."""
    probs = ad.softmax(_head_logits(pooled, params)).data
    return [Prediction(probs=row, label=int(np.argmax(row))) for row in probs]


def project_label(label, task: str):
    """Task label index, or None when the sample is excluded (sst2 neutral)."""
    if task == "sst5":
        return label.value
    if task == "sst2":
        binary = to_binary(label)
        if binary is None:
            return None
        return 0 if binary is BinaryLabel.NEGATIVE else 1
    raise LabelSpaceMismatchError(f"unknown task {task!r}")


def accuracy(predictions, golds) -> float:
    """Fraction of exact label matches."""
    if len(predictions) != len(golds):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(golds)}")
    if len(predictions) == 0:
        raise ValueError("empty prediction list")
    correct = sum(1 for p, g in zip(predictions, golds) if p == g)
    return correct / len(predictions)


def _pooled_features(seqs, params, config, batch_size=64):
    """Inference-mode pooled [CLS] vectors of ``seqs`` as one (n, H) array.

    The encoder's last block runs at [CLS] alone. Sequences are batched in
    order of length, so rows of a batch need little padding; the rows come
    back in input order.
    """
    order = sorted(range(len(seqs)), key=lambda i: seqs[i].n_real)
    pooled = np.empty((len(seqs), config.hidden), dtype=params["pooler.w"].dtype)
    with ad.no_grad():
        for start in range(0, len(order), batch_size):
            sel = order[start:start + batch_size]
            ids, segs, mask = stack_batch([seqs[i] for i in sel])
            _, out = enc.encode_batch(ids, segs, mask, params, config, training=False,
                                      rows=np.zeros((len(sel), 1), dtype=np.int64))
            pooled[sel] = out.data
    return pooled


def predict_texts(texts, params, config, vocab, max_len, batch_size=64):
    """Deterministic inference over a list of texts -> list of Prediction."""
    seqs = [encode(t, vocab, max_len) for t in texts]
    with ad.no_grad():
        return _head_predictions(Tensor(_pooled_features(seqs, params, config, batch_size)),
                                 params)


def _dev_root_accuracy(dev_records, params, config, vocab, max_len, task):
    """Accuracy on the dev roots that ``task`` labels, or None if there are none."""
    roots = [r for r in dev_records if r.is_root]
    pairs = [(r, project_label(r.label, task)) for r in roots]
    pairs = [(r, y) for r, y in pairs if y is not None]
    if not pairs:
        return None
    preds = predict_texts([r.text for r, _ in pairs], params, config, vocab, max_len)
    return accuracy([p.label for p in preds], [y for _, y in pairs])


def _bucketed_batches(lengths, batch_size, rng):
    """One epoch of training batches, as arrays of example indices.

    A "sortish" sampler: permute the examples, cut the permutation into
    chunks of ``BUCKET_CHUNK`` batches, stable-sort each chunk by length,
    split it into batches and shuffle the batch order. Only the last chunk
    can be partial, so there are ``ceil(n / batch_size)`` batches and at
    most one is short.
    """
    order = rng.permutation(len(lengths))
    batches = []
    for start in range(0, len(order), BUCKET_CHUNK * batch_size):
        chunk = order[start:start + BUCKET_CHUNK * batch_size]
        chunk = chunk[np.argsort(lengths[chunk], kind="stable")]
        batches.extend(chunk[i:i + batch_size] for i in range(0, len(chunk), batch_size))
    return [batches[i] for i in rng.permutation(len(batches))]


def finetune(train_records, dev_records, params, config, vocab, task: str,
             hyper: FinetuneConfig):
    """Fine-tune encoder + head (or head only) with cross-entropy.

    A full fine-tune trains every parameter at ``hyper.lr``, as BERT does;
    ``hyper.head_lr`` is the learning rate of a frozen-encoder run.

    ``params`` without ``head.w`` gains a fresh head for ``task``; one with a
    head goes on training it. Each epoch's batches come from
    ``_bucketed_batches``: rows of similar length share a batch, so little
    of it is ``[PAD]``. The batches are drawn from their own random stream
    (3), apart from the head init and dropout (stream 2), so the dropout
    rate never changes which examples share a batch.

    Returns (params, summary); ``params`` is the dict given, head included.
    The checkpoint with the best dev root accuracy wins; ties keep the
    earlier epoch. With no dev root to score, the last epoch's params stay
    and ``best_dev_root_acc`` is None. Deterministic per seed. Raises
    ``FloatingPointError`` as soon as a batch loss is not finite.
    """
    if task not in TASK_CLASSES:
        raise LabelSpaceMismatchError(f"unknown task {task!r}")
    k = TASK_CLASSES[task]
    labeled = [(r, project_label(r.label, task)) for r in train_records]
    labeled = [(r, y) for r, y in labeled if y is not None]
    if not labeled:
        raise EmptyTrainingSetError("no usable training samples after label projection")

    rng = make_rng(hyper.seed, stream=2)
    if "head.w" not in params:
        w = enc._truncated_normal(rng, (config.hidden, k))
        params["head.w"] = Tensor(w, requires_grad=True)
        params["head.b"] = Tensor(np.zeros(k, dtype=np.float32), requires_grad=True)
    elif params["head.b"].shape[0] != k:
        raise LabelSpaceMismatchError(
            f"head has {params['head.b'].shape[0]} classes, task needs {k}")

    if hyper.epochs == 0:
        return params, {"best_epoch": None, "best_dev_root_acc": None}

    if hyper.freeze_encoder:
        trainable, lr = {n: params[n] for n in ("head.w", "head.b")}, hyper.head_lr
    else:
        trainable, lr = params, hyper.lr
    steps_per_epoch = max(1, (len(labeled) + hyper.batch_size - 1) // hyper.batch_size)
    total = steps_per_epoch * hyper.epochs
    opt = AdamW(trainable, lr, total_steps=total)

    seqs = [encode(r.text, vocab, hyper.max_len) for r, _ in labeled]
    labels = np.array([y for _, y in labeled], dtype=np.int64)
    lengths = np.array([s.n_real for s in seqs])
    shuffle_rng = make_rng(hyper.seed, stream=3)

    if hyper.freeze_encoder:
        # BERT's feature-based approach: the frozen encoder's pooled output
        # is a fixed function of the phrase, so each is encoded once
        features = _pooled_features(seqs, params, config)

    best = None  # (acc, epoch, params_data)
    for epoch in range(hyper.epochs):
        for sel in _bucketed_batches(lengths, hyper.batch_size, shuffle_rng):
            if hyper.freeze_encoder:
                pooled = Tensor(features[sel])
            else:
                ids, segs, mask = stack_batch([seqs[i] for i in sel])
                _, pooled = enc.encode_batch(ids, segs, mask, params, config, training=True,
                                             rng=rng, rows=np.zeros((len(sel), 1), dtype=np.int64))
            pooled = ad.dropout(pooled, config.dropout_p, True, rng)
            loss = ad.softmax_cross_entropy(_head_logits(pooled, params), labels[sel])
            check_finite_loss(loss, opt.t + 1)
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
        dev_acc = _dev_root_accuracy(dev_records, params, config, vocab, hyper.max_len, task)
        if dev_acc is not None and (best is None or dev_acc > best[0]):
            best = (dev_acc, epoch, {k_: p.data.copy() for k_, p in trainable.items()})

    if best is None:
        return params, {"best_epoch": hyper.epochs - 1, "best_dev_root_acc": None}
    for name, data in best[2].items():
        params[name].data[...] = data  # into the optimizer's arena view
    return params, {"best_epoch": best[1], "best_dev_root_acc": best[0]}


def evaluate(params, config, vocab, corpora, cells, max_len=64) -> EvalReport:
    """Score the requested (task, scope) cells over every node occurrence.

    Every cell's task must fit the class count of the head in ``params``.
    Empty cells (e.g. sst2 root on all-neutral roots) report n=0 and are
    flagged rather than raising.
    """
    k = params["head.b"].shape[0]
    for task, _ in cells:
        if TASK_CLASSES.get(task) != k:
            raise LabelSpaceMismatchError(f"cell task {task} does not fit a {k}-class head")
    report = EvalReport()
    if not cells:
        return report
    task = cells[0][0]

    records = []
    for corpus in corpora:
        for tree in corpus.trees:
            records.extend(extract_phrases(tree))

    golds = [project_label(r.label, task) for r in records]
    usable = [(r, y) for r, y in zip(records, golds) if y is not None]
    # phrase texts recur across node occurrences: predict each distinct one once
    distinct = list(dict.fromkeys(r.text for r, _ in usable))
    by_text = dict(zip(distinct, predict_texts(distinct, params, config, vocab, max_len)))
    preds = [by_text[r.text] for r, _ in usable]

    for task, scope in cells:
        if scope == "root":
            triple = [(p, y) for p, (r, y) in zip(preds, usable) if r.is_root]
        else:
            triple = list(zip(preds, [y for _, y in usable]))
        if not triple:
            report.cells[(task, scope)] = (0, 0.0)
            continue
        acc = accuracy([p.label for p, _ in triple], [y for _, y in triple])
        report.cells[(task, scope)] = (len(triple), acc)
    return report
