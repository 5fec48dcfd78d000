"""Outside-in instrumentation of treesent: function patches, probes and spans.

Nothing here edits ``src/``. Each hook replaces a public function (or the
``AdamW.step`` method) by a wrapper and puts the original back afterwards.
A function that another treesent module imported by name is replaced
there too, so ``from .tokenizer import encode`` call sites are covered.

Two kinds of hooks exist:

* ``Probe`` stays on for the end-to-end runs. Per call it takes at most two
  clock reads and a mask sum, and it keeps what the output checks need
  (optimizer-step boundaries, real-token counts, training losses and the
  predictions ``predict_texts`` returns).
* ``Tracer`` is on only for the traced calls of a ``--trace 1`` run. It
  records a span (name, start, end, parent) around every call into each
  layer and around every backward closure an autodiff op records, plus the
  counters the per-layer metrics need. Spans stay in memory until
  ``dump`` writes them out.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from collections import Counter

import numpy as np

now = time.perf_counter

# autodiff ops whose forward call and backward closure the tracer times
OPS = ("gelu", "matmul", "layer_norm", "softmax", "dropout", "add",
       "embedding_lookup", "index_select", "softmax_cross_entropy",
       "transpose", "reshape")


class Patches:
    """Replace attributes and restore them, last patch first."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, name, make):
        """Set ``owner.name`` to ``make(original)``, and every treesent
        module-level alias of the original function too."""
        orig = getattr(owner, name)
        new = make(orig)
        self._set(owner, name, new)
        if isinstance(owner, types.ModuleType):
            for mod in list(sys.modules.values()):
                if mod is owner or not getattr(mod, "__name__", "").startswith("treesent"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, new)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Probe:
    """End-to-end hooks: batch times, real tokens, losses, predictions.

    With ``train_batches`` a batch runs from a training ``encode_batch``
    call to the end of the next optimizer step; otherwise a batch is one
    ``encode_batch`` call.
    """

    def __init__(self, train_batches: bool):
        self.train_batches = train_batches
        self.reset()

    def reset(self):
        self.batch_s = []
        self.rows = 0
        self.slots = 0
        self.real_tokens = 0
        self.losses = []
        self.predictions = []  # (texts, [Prediction]) per predict_texts call
        self._open = None

    def install(self, patches, ts):
        patches.wrap(ts.encoder, "encode_batch", self._encode_batch)
        patches.wrap(ts.optim.AdamW, "step", self._step)
        patches.wrap(ts.autodiff, "softmax_cross_entropy", self._loss)
        patches.wrap(ts.classify, "predict_texts", self._predict)

    def _encode_batch(self, fn):
        def encode_batch(*args, **kwargs):
            mask = np.asarray(_arg(args, kwargs, 2, "mask"))
            self.rows += mask.shape[0]
            self.slots += mask.size
            self.real_tokens += int(mask.sum())
            training = _arg(args, kwargs, 5, "training", False)
            start = now()
            out = fn(*args, **kwargs)
            if not self.train_batches:
                self.batch_s.append(now() - start)
            elif training:
                self._open = start
            return out
        return encode_batch

    def _step(self, fn):
        def step(opt, *args, **kwargs):
            out = fn(opt, *args, **kwargs)
            if self._open is not None:
                self.batch_s.append(now() - self._open)
                self._open = None
            return out
        return step

    def _loss(self, fn):
        def softmax_cross_entropy(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.losses.append(float(out.data))
            return out
        return softmax_cross_entropy

    def _predict(self, fn):
        def predict_texts(texts, *args, **kwargs):
            preds = fn(texts, *args, **kwargs)
            self.predictions.append((list(texts), preds))
            return preds
        return predict_texts


class Tracer:
    """Spans and counters for the per-layer metrics of traced calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def timed(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, out)`` runs once
        the span has ended."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = now()
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def install(self, patches, ts):
        for op in OPS:
            patches.wrap(ts.autodiff, op, self._op(op))
        self._span(patches, ts.autodiff, "backward", "autodiff.backward")
        self._span(patches, ts.encoder, "encode_batch", "encoder.encode_batch", self._rows)
        self._span(patches, ts.encoder, "attention_block", "encoder.attention_block")
        for fn in ("encode", "encode_pair"):
            self._span(patches, ts.tokenizer, fn, f"tokenizer.{fn}", self._sequence)
        self._span(patches, ts.classify, "predict_texts", "classify.predict_texts", self._texts)
        self._span(patches, ts.classify, "_dev_root_accuracy", "classify.dev_eval")
        for fn in ("make_nsp_pairs", "mask_tokens", "pretrain_step"):
            self._span(patches, ts.pretrain, fn, f"pretrain.{fn}")
        self._span(patches, ts.optim.AdamW, "step", "optim.step")
        for fn in ("save_checkpoint", "load_checkpoint"):
            self._span(patches, ts.checkpoint, fn, f"checkpoint.{fn}", self._file_bytes)
        self._span(patches, ts.treebank, "load_corpus", "treebank.load_corpus", self._trees)

    def _span(self, patches, owner, attr, name, after=None):
        patches.wrap(owner, attr, lambda fn: self.timed(name, fn, after))

    def _op(self, op):
        name = f"autodiff.{op}"
        counts = self.counts

        def after(args, kwargs, out):
            flop = 0
            if op == "matmul":
                flop = 2 * out.data.size * np.shape(getattr(args[0], "data", args[0]))[-1]
                counts["autodiff.matmul.flop"] += flop
            bw = out._backward
            if bw is None:
                return
            bw_after = None
            if flop:
                grads = sum(p.requires_grad for p in out._parents)

                def bw_after(a, k, o):
                    counts["autodiff.matmul.flop"] += grads * flop
            out._backward = self.timed(f"{name}.bwd", bw, bw_after)

        return lambda fn: self.timed(name, fn, after)

    def _rows(self, args, kwargs, out):
        mask = np.asarray(_arg(args, kwargs, 2, "mask"))
        self.counts["encoder.rows"] += mask.shape[0]
        self.counts["encoder.slots"] += mask.size
        self.counts["encoder.real"] += int(mask.sum())

    def _sequence(self, args, kwargs, out):
        self.counts["tokenizer.sequences"] += 1
        self.counts["tokenizer.slots"] += out.ids.size
        self.counts["tokenizer.real"] += out.n_real

    def _texts(self, args, kwargs, out):
        texts = args[0]
        self.counts["classify.texts"] += len(texts)
        self.counts["classify.distinct"] += len(set(texts))

    def _file_bytes(self, args, kwargs, out):
        self.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    def _trees(self, args, kwargs, out):
        self.counts["treebank.trees"] += len(out.trees)

    def totals(self):
        """{span name: [calls, inclusive seconds, self seconds]}.

        Self time is a span's duration minus the time its direct child
        spans cover (children never overlap: the program is one thread).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def dump(self, fh, call):
        """Write every span as one JSON line tagged with the stage call."""
        for name, start, end, parent in self.spans:
            fh.write(json.dumps({"call": call, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")
