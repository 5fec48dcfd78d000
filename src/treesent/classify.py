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
from .optim import AdamW, make_rng
from .tokenizer import assemble, length_batches, piece_ids, stack_batch
from .treebank import LABEL_NAMES, extract_phrases, root_record

__all__ = [
    "TASKS",
    "Prediction",
    "EvalReport",
    "FinetuneConfig",
    "EmptyTrainingSetError",
    "LabelSpaceMismatchError",
    "project_label",
    "check_head",
    "finetune",
    "accuracy",
    "predict_texts",
    "evaluate",
]


@dataclass(frozen=True)
class Task:
    names: tuple    # the class names, in class order
    classes: tuple  # the class of each treebank label 0-4; None leaves it out


# SST-2 drops the neutral label and merges the two labels on each side of it
TASKS = {
    "sst2": Task(("negative", "positive"), (0, 0, None, 1, 1)),
    "sst5": Task(LABEL_NAMES, (0, 1, 2, 3, 4)),
}

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
    FOOTER = "split: standard train/dev/test; every node occurrence scored"  # not a field

    def to_tsv(self) -> str:
        lines = ["task\tscope\tn\taccuracy"]
        for (task, scope), (n, acc) in sorted(self.cells.items()):
            shown = f"{100.0 * acc:.1f}" if n > 0 else "n/a"
            lines.append(f"{task}\t{scope}\t{n}\t{shown}")
        lines.append(f"# {self.FOOTER}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "cells": {
                f"{task}/{scope}": {"n": n, "accuracy": acc if n > 0 else None}
                for (task, scope), (n, acc) in sorted(self.cells.items())
            },
            "footer": self.FOOTER,
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
    try:
        return TASKS[task].classes[label.value]
    except KeyError:
        raise LabelSpaceMismatchError(f"unknown task {task!r}") from None


def check_head(task, params) -> Task:
    """``task``'s table entry; refuses an unknown task, and a head in
    ``params`` whose class count does not fit the task."""
    if task not in TASKS:
        raise LabelSpaceMismatchError(f"unknown task {task!r}")
    k = len(TASKS[task].names)
    if "head.b" in params and params["head.b"].shape != (k,):
        raise LabelSpaceMismatchError(
            f"task {task} needs a {k}-class head, not head.b of shape {params['head.b'].shape}")
    return TASKS[task]


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
    seqs = [assemble(ids, None, vocab, max_len) for ids in piece_ids(texts, vocab)]
    with ad.no_grad():
        return _head_predictions(Tensor(_pooled_features(seqs, params, config, batch_size)),
                                 params)


def _labeled(records, task):
    """(record, label) for each record that ``task`` labels."""
    return [(r, y) for r in records if (y := project_label(r.label, task)) is not None]


def _score(records, cells, params, config, vocab, max_len) -> EvalReport:
    """Accuracy over ``records`` of each (task, scope) cell; the cells share the head's task.

    Each distinct text of the labeled records is predicted once; an empty
    cell reports n=0.
    """
    report = EvalReport()
    if not cells:
        return report
    labeled = _labeled(records, cells[0][0])
    distinct = list(dict.fromkeys(r.text for r, _ in labeled))
    by_text = dict(zip(distinct, predict_texts(distinct, params, config, vocab, max_len)))
    for task, scope in cells:
        scored = [(by_text[r.text].label, y) for r, y in labeled if scope == "all" or r.is_root]
        acc = accuracy([p for p, _ in scored], [y for _, y in scored]) if scored else 0.0
        report.cells[(task, scope)] = (len(scored), acc)
    return report


def _dev_root_accuracy(dev_records, params, config, vocab, max_len, task):
    """Accuracy on the dev roots that ``task`` labels, or None if there are none."""
    roots = [r for r in dev_records if r.is_root]
    report = _score(roots, [(task, "root")], params, config, vocab, max_len)
    n, acc = report.cells[(task, "root")]
    return acc if n else None


def finetune(train_records, dev_records, params, config, vocab, task: str,
             hyper: FinetuneConfig):
    """Fine-tune encoder + head (or head only) with cross-entropy.

    A full fine-tune trains every parameter at ``hyper.lr``, as BERT does;
    ``hyper.head_lr`` is the learning rate of a frozen-encoder run.

    ``params`` without ``head.w`` gains a fresh head for ``task``; one with a
    head goes on training it. Each epoch's batches come from
    ``tokenizer.length_batches``, as pretraining's do: rows of similar
    length share a batch, so little of it is ``[PAD]``. The batches are
    drawn from their own random stream (3), apart from the head init and
    dropout (stream 2), so the dropout rate never changes which examples
    share a batch. Each batch is one ``AdamW.minimize`` call.

    Returns (params, summary); ``params`` is the dict given, head included.
    The checkpoint with the best dev root accuracy wins; ties keep the
    earlier epoch. With no dev root to score, the last epoch's params stay
    and ``best_dev_root_acc`` is None. Deterministic per seed. Raises
    ``FloatingPointError`` as soon as a batch loss is not finite.
    """
    k = len(check_head(task, params).names)
    labeled = _labeled(train_records, task)
    if not labeled:
        raise EmptyTrainingSetError("no usable training samples after label projection")

    rng = make_rng(hyper.seed, stream=2)
    if "head.w" not in params:
        w = enc._truncated_normal(rng, (config.hidden, k))
        params["head.w"] = Tensor(w, requires_grad=True)
        params["head.b"] = Tensor(np.zeros(k, dtype=np.float32), requires_grad=True)

    if hyper.epochs == 0:
        return params, {"best_epoch": None, "best_dev_root_acc": None}

    if hyper.freeze_encoder:
        trainable, lr = {n: params[n] for n in ("head.w", "head.b")}, hyper.head_lr
    else:
        trainable, lr = params, hyper.lr
    steps_per_epoch = max(1, (len(labeled) + hyper.batch_size - 1) // hyper.batch_size)
    total = steps_per_epoch * hyper.epochs
    opt = AdamW(trainable, lr, total_steps=total)

    seqs = [assemble(ids, None, vocab, hyper.max_len)
            for ids in piece_ids([r.text for r, _ in labeled], vocab)]
    labels = np.array([y for _, y in labeled], dtype=np.int64)
    lengths = np.array([s.n_real for s in seqs])
    shuffle_rng = make_rng(hyper.seed, stream=3)

    if hyper.freeze_encoder:
        # BERT's feature-based approach: the frozen encoder's pooled output
        # is a fixed function of the phrase, so each is encoded once
        features = _pooled_features(seqs, params, config)

    best = None  # (acc, epoch, a copy of the trained parameters' arena)
    for epoch in range(hyper.epochs):
        for sel in length_batches(lengths, hyper.batch_size, shuffle_rng):
            if hyper.freeze_encoder:
                pooled = Tensor(features[sel])
            else:
                ids, segs, mask = stack_batch([seqs[i] for i in sel])
                _, pooled = enc.encode_batch(ids, segs, mask, params, config, training=True,
                                             rng=rng, rows=np.zeros((len(sel), 1), dtype=np.int64))
            pooled = ad.dropout(pooled, config.dropout_p, True, rng)
            loss = ad.softmax_cross_entropy(_head_logits(pooled, params), labels[sel])
            opt.minimize(loss, opt.t + 1)
        dev_acc = _dev_root_accuracy(dev_records, params, config, vocab, hyper.max_len, task)
        if dev_acc is not None and (best is None or dev_acc > best[0]):
            best = (dev_acc, epoch, opt.arena.copy())

    if best is None:
        return params, {"best_epoch": hyper.epochs - 1, "best_dev_root_acc": None}
    opt.arena[...] = best[2]
    return params, {"best_epoch": best[1], "best_dev_root_acc": best[0]}


def evaluate(params, config, vocab, corpora, cells, max_len=64) -> EvalReport:
    """Score the requested (task, scope) cells over every node occurrence.

    Only the nodes the cells read get a record: the roots alone when every
    scope is ``root``. Every cell's task must fit the class count of the head
    in ``params``. Empty cells (e.g. sst2 root on all-neutral roots) report
    n=0 and are flagged rather than raising.
    """
    for task, _ in cells:
        check_head(task, params)
    trees = [tree for corpus in corpora for tree in corpus.trees]
    if all(scope == "root" for _, scope in cells):
        records = [root_record(tree) for tree in trees]
    else:
        records = [r for tree in trees for r in extract_phrases(tree)]
    return _score(records, cells, params, config, vocab, max_len)
