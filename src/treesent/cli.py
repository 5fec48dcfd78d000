"""Command-line surface: prepare / vocab / pretrain / finetune / eval / predict.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
The run config is an INI file. ``RunConfig``'s fields are its one table of
``[section] key`` entries, each with the parser that range-checks its value;
``--seed``, ``--preset``, ``--task`` and ``--scope`` set their keys through
the same parsers, so a bad value from either exits 1. A resolved copy is
written next to each command's artifacts as ``config.<command>.ini``
(``config.finetune_<task>.ini``, ``config.eval_<task>.ini``, each holding
the task it was made for). A command
claims its outputs before any work and exits 1 if one exists without
``--force``. Each file is written whole or not at all, and a command that
fails writes nothing, except ``pretrain``'s per-epoch checkpoint for
``--resume``. A checkpoint whose head tensors do not fit its config and task
exits 2, and so does ``finetune --init`` from a checkpoint fine-tuned for
another task. ``main`` first fixes glibc's malloc thresholds
(``set_malloc_policy``), so the temporaries a training step frees stay in
the heap for the next step.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import hashlib
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import classify, encoder, pretrain as pt, tokenizer, treebank
from .checkpoint import CheckpointError, load_checkpoint, replacing, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SPLITS = ("train", "dev", "test")
PRETRAIN_HEADS = ("mlm.b", "nsp.w", "nsp.b")  # eval and predict never read these
HEAD_EXTRAS = ("head.w", "head.b") + PRETRAIN_HEADS
OVERRIDES = (("run", "seed"), ("model", "preset"), ("run", "task"), ("run", "scope"))


# glibc's mallopt parameters (malloc.h) and the values main sets; see
# set_malloc_policy
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


class UsageError(ValueError):
    pass


class DataError(ValueError):
    pass


def _number(cast, lo, hi=math.inf):
    """A parser of ``cast`` numbers strictly between ``lo`` and ``hi``."""
    def parse(text):
        value = cast(text)
        if not lo < value < hi:
            raise ValueError(f"{value} is outside ({lo}, {hi})")
        return value
    return parse


def _choice(*names):
    def parse(text):
        if text not in names:
            raise ValueError(f"{text!r} is not one of {', '.join(names)}")
        return text
    return parse


def _bool(text):
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"{text!r} is not a boolean")
    return states[text.lower()]


def _scope(text):
    scope = tuple(_choice("all", "root")(s.strip()) for s in text.split(",") if s.strip())
    if not scope:
        raise ValueError("no scope given; use all, root or both")
    return scope


def _key(section, key, parse, **default):
    """A RunConfig field read from, and dumped as, ``[section] key``."""
    return field(metadata={"ini": (section, key, parse)}, **default)


@dataclass
class RunConfig:
    """The run config; each field is one ``[section] key``, in dump order."""

    data_dir: str = _key("paths", "data_dir", str)
    out_dir: str = _key("paths", "out_dir", str)
    vocab_path: str = _key("paths", "vocab", str, default="")  # "" = <out_dir>/vocab.txt
    preset: str = _key("model", "preset", _choice("base", "large", "toy"), default="toy")
    vocab_size: int = _key("model", "vocab_size", _number(int, 0), default=2000)
    max_len: int = _key("model", "max_len", _number(int, 2), default=32)  # [CLS] w [SEP]
    pretrain_epochs: int = _key("pretrain", "epochs", _number(int, -1), default=3)
    pretrain_batch_size: int = _key("pretrain", "batch_size", _number(int, 0), default=16)
    pretrain_lr: float = _key("pretrain", "lr", float, default=1e-4)
    mask_rate: float = _key("pretrain", "mask_rate", _number(float, 0, 1), default=0.15)
    pretrain_max_steps: int | None = _key("pretrain", "max_steps", _number(int, -1), default=None)
    finetune_epochs: int = _key("finetune", "epochs", _number(int, -1), default=3)
    finetune_batch_size: int = _key("finetune", "batch_size", _number(int, 0), default=32)
    finetune_lr: float = _key("finetune", "lr", float, default=2e-5)
    head_lr: float = _key("finetune", "head_lr", float, default=1e-3)
    freeze_encoder: bool = _key("finetune", "freeze_encoder", _bool, default=False)
    seed: int = _key("run", "seed", _number(int, -1, 2**128), default=0)  # a Philox key
    task: str = _key("run", "task", _choice(*classify.TASK_CLASSES), default="sst5")
    scope: tuple = _key("run", "scope", _scope, default=("all", "root"))

    @classmethod
    def load(cls, path, overrides=()):
        """Read ``path`` and ``(section, key, text)`` overrides through the
        field parsers; a missing or rejected value is a UsageError."""
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            parser.read(path)
            for section, key, text in overrides:
                parser.read_dict({section: {key: text}})
        except (ValueError, configparser.Error) as exc:
            raise UsageError(f"cannot read {path}: {exc}") from exc
        values = {}
        for f in fields(cls):
            section, key, parse = f.metadata["ini"]
            if not parser.has_option(section, key):
                if f.default is MISSING:
                    raise UsageError(f"config missing [{section}] {key}")
                continue
            try:
                values[f.name] = parse(parser.get(section, key))
            except (ValueError, configparser.Error) as exc:
                raise UsageError(f"bad config value [{section}] {key}: {exc}") from exc
        cfg = cls(**values)
        if not cfg.vocab_path:
            cfg.vocab_path = os.path.join(cfg.out_dir, "vocab.txt")
        return cfg

    def dump(self) -> str:
        """The config as ``load`` reads it; unset optional keys are left out."""
        sections = {}
        for f in fields(self):
            section, key, _ = f.metadata["ini"]
            value = getattr(self, f.name)
            if value is not None:
                text = ",".join(value) if isinstance(value, tuple) else str(value)
                text = text.replace("%", "%%")  # load reads "%%" as "%"
                sections.setdefault(section, [f"[{section}]"]).append(f"{key} = {text}")
        return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


def _outputs(cfg, force, name, *paths):
    """``paths`` then ``config.<name>.ini``: a command's outputs, claimed
    before it does any work; a UsageError if one exists without ``force``."""
    outputs = [*paths, os.path.join(cfg.out_dir, f"config.{name}.ini")]
    for path in outputs:
        if os.path.exists(path) and not force:
            raise UsageError(f"refusing to overwrite {path} (use --force)")
    return outputs


def _write(paths, texts):
    for path, text in zip(paths, texts, strict=True):
        with replacing(path) as fh:
            fh.write(text.encode("utf-8"))


def _split_path(cfg, split):
    path = os.path.join(cfg.data_dir, f"{split}.txt")
    if not os.path.exists(path):
        raise DataError(f"missing treebank file: {path}")
    return path


def _load_split(cfg, split):
    try:
        return treebank.load_corpus(_split_path(cfg, split), split)
    except treebank.CorpusLoadError as exc:
        raise DataError(str(exc)) from exc


def _model_config(cfg, vocab):
    base = encoder.preset(cfg.preset)
    return encoder.preset(cfg.preset, vocab_size=len(vocab),
                          max_positions=max(cfg.max_len, base.max_positions))


def cmd_prepare(cfg, force):
    names = [f"sentences_{s}.txt" for s in SPLITS] + ["stats.txt", "stats.json"]
    outputs = _outputs(cfg, force, "prepare", *(os.path.join(cfg.out_dir, n) for n in names))
    corpora = [_load_split(cfg, s) for s in SPLITS]
    stats = treebank.corpus_stats(corpora)
    sentences = ["".join(tree.span_text + "\n" for tree in c.trees) for c in corpora]
    _write(outputs, [*sentences, stats.to_text(), stats.to_json(), cfg.dump()])
    if stats.sentence_count == 0:
        print("warning: prepared an empty corpus", file=sys.stderr)
    print(f"sentences: {stats.sentence_count}")
    print(f"unique phrases: {stats.unique_phrase_count}")
    return EXIT_OK


def cmd_vocab(cfg, force):
    outputs = _outputs(cfg, force, "vocab", cfg.vocab_path)
    train = _load_split(cfg, "train")
    try:
        vocab = tokenizer.build_vocab([train], cfg.vocab_size)
    except tokenizer.TargetTooSmallError as exc:
        raise UsageError(str(exc)) from exc
    if len(vocab) == len(tokenizer.SPECIAL_TOKENS):
        print("warning: vocab contains only special tokens", file=sys.stderr)
    _write(outputs, [vocab.dump(), cfg.dump()])
    print(f"vocab size: {len(vocab)} -> {cfg.vocab_path}")
    return EXIT_OK


def _load_vocab(cfg):
    if not os.path.exists(cfg.vocab_path):
        raise DataError(f"vocab file not found: {cfg.vocab_path} (run the vocab command)")
    return tokenizer.Vocab.load(cfg.vocab_path)


def _vocab_sha256(vocab):
    return hashlib.sha256("\n".join(vocab.tokens).encode("utf-8")).hexdigest()


def _provenance(cfg, step, vocab, command):
    return {"seed": cfg.seed, "step": step, "command": command,
            "vocab_sha256": _vocab_sha256(vocab)}


def _load_checkpoint(cfg, path, vocab):
    """``load_checkpoint``, refusing a checkpoint trained on another vocab,
    for an unknown task, with head tensors of the wrong shape, or with
    fewer position embeddings than ``[model] max_len`` needs.

    A checkpoint without a stored fingerprint (written before they were
    recorded) is accepted as it stands.
    """
    model_cfg, params, prov = load_checkpoint(path, expect_extra=HEAD_EXTRAS)
    stored = prov.get("vocab_sha256")
    if stored is not None and stored != _vocab_sha256(vocab):
        raise DataError(f"{path} was trained with a different vocab than {cfg.vocab_path}")
    if cfg.max_len > model_cfg.max_positions:
        raise DataError(f"{path} has max_positions {model_cfg.max_positions}, "
                        f"below [model] max_len = {cfg.max_len}")
    task = prov.get("task", cfg.task)
    if task not in classify.TASK_CLASSES:
        raise DataError(f"{path} was fine-tuned for an unknown task {task!r}")
    if ("head.w" in params) != ("head.b" in params):
        raise DataError(f"{path} holds only one of head.w and head.b")
    h, k = model_cfg.hidden, classify.TASK_CLASSES[task]
    shapes = {"head.w": (h, k), "head.b": (k,), "mlm.b": (model_cfg.vocab_size,),
              "nsp.w": (h, 2), "nsp.b": (2,)}
    for name, shape in shapes.items():
        if name in params and params[name].shape != shape:
            raise DataError(f"{path}: tensor {name} has shape {params[name].shape}, "
                            f"its config and task {task} need {shape}")
    return model_cfg, params, prov


def cmd_pretrain(cfg, force, command, resume=None):
    outputs = _outputs(cfg, force, "pretrain", os.path.join(cfg.out_dir, "pretrain.ckpt"),
                       os.path.join(cfg.out_dir, "pretrain_loss.csv"))
    ckpt_path = outputs[0]
    if cfg.max_len < 5:
        raise UsageError("[model] max_len must be at least 5 to pretrain on sentence pairs")
    vocab = _load_vocab(cfg)
    train = _load_split(cfg, "train")
    model_cfg = _model_config(cfg, vocab)
    hyper = pt.PretrainConfig(
        epochs=cfg.pretrain_epochs, batch_size=cfg.pretrain_batch_size,
        lr=cfg.pretrain_lr, mask_rate=cfg.mask_rate, max_len=cfg.max_len,
        seed=cfg.seed, max_steps=cfg.pretrain_max_steps,
    )
    state = None
    if resume is not None:
        model_cfg, params, prov = _load_checkpoint(cfg, resume, vocab)
        state = pt.init_pretrain_state(model_cfg, len(vocab), cfg.seed, hyper)
        unknown = sorted(set(params) - set(state.params))
        if unknown:
            raise DataError(f"{resume} holds {unknown}, which pretraining does not train")
        for name, tensor in params.items():
            state.params[name].data[...] = tensor.data  # into the optimizer's arena view
        state.step = int(prov.get("step", 0))
    saved_step = None

    def checkpoint_fn(st, epoch):
        nonlocal saved_step
        save_checkpoint(ckpt_path, st.config, st.params,
                        _provenance(cfg, st.step, vocab, command))
        saved_step = st.step

    state = pt.pretrain(train, vocab, model_cfg, hyper, state=state,
                        checkpoint_fn=checkpoint_fn)
    if saved_step != state.step:  # no epoch ran, so no epoch saved
        save_checkpoint(ckpt_path, state.config, state.params,
                        _provenance(cfg, state.step, vocab, command))
    _write(outputs[1:], [pt.loss_history_csv(state), cfg.dump()])
    if state.loss_history:
        print(f"steps: {state.step}  final mlm loss: {state.loss_history[-1][1]:.4f}  "
              f"final nsp loss: {state.loss_history[-1][2]:.4f}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def cmd_finetune(cfg, force, command, init_ckpt):
    outputs = _outputs(cfg, force, f"finetune_{cfg.task}",
                       os.path.join(cfg.out_dir, f"finetune_{cfg.task}.ckpt"))
    vocab = _load_vocab(cfg)
    model_cfg, params, prov = _load_checkpoint(cfg, init_ckpt, vocab)
    if prov.get("task", cfg.task) != cfg.task:
        raise DataError(f"{init_ckpt} was fine-tuned for {prov['task']}, "
                        f"but [run] task = {cfg.task}")
    expected = _model_config(cfg, vocab)
    if (model_cfg.layers, model_cfg.hidden, model_cfg.heads) != (
            expected.layers, expected.hidden, expected.heads):
        raise DataError(
            f"checkpoint config {model_cfg.layers}L/{model_cfg.hidden}H/{model_cfg.heads}A "
            f"does not match preset {cfg.preset}")
    for name in PRETRAIN_HEADS:
        params.pop(name, None)
    train = _load_split(cfg, "train")
    dev = _load_split(cfg, "dev")
    train_records = [r for t in train.trees for r in treebank.extract_phrases(t)]
    dev_records = [r for t in dev.trees for r in treebank.extract_phrases(t)]
    hyper = classify.FinetuneConfig(
        epochs=cfg.finetune_epochs, batch_size=cfg.finetune_batch_size,
        lr=cfg.finetune_lr, head_lr=cfg.head_lr, max_len=cfg.max_len,
        seed=cfg.seed, freeze_encoder=cfg.freeze_encoder,
    )
    params, summary = classify.finetune(
        train_records, dev_records, params, model_cfg, vocab, cfg.task, hyper)
    prov = _provenance(cfg, 0, vocab, command)
    prov["task"] = cfg.task
    save_checkpoint(outputs[0], model_cfg, params, prov)
    _write(outputs[1:], [cfg.dump()])
    if summary["best_dev_root_acc"] is None and cfg.finetune_epochs > 0:
        print("warning: no dev root could be scored; kept the last epoch", file=sys.stderr)
    print(f"best dev root accuracy: {summary['best_dev_root_acc']}"
          f" (epoch {summary['best_epoch']})")
    print(f"checkpoint: {outputs[0]}")
    return EXIT_OK


def _load_model(cfg, ckpt_path):
    vocab = _load_vocab(cfg)
    model_cfg, params, prov = _load_checkpoint(cfg, ckpt_path, vocab)
    if "head.w" not in params:
        raise DataError(f"{ckpt_path} has no classifier head; fine-tune first")
    return vocab, model_cfg, params, prov.get("task", cfg.task)


def cmd_eval(cfg, force, ckpt_path):
    vocab, model_cfg, params, task = _load_model(cfg, ckpt_path)
    outputs = _outputs(cfg, force, f"eval_{task}", *(
        os.path.join(cfg.out_dir, f"report_{task}.{ext}") for ext in ("tsv", "json")))
    test = _load_split(cfg, "test")
    cells = [(task, scope) for scope in cfg.scope]
    report = classify.evaluate(params, model_cfg, vocab, [test], cells,
                               max_len=cfg.max_len)
    _write(outputs, [report.to_tsv(), report.to_json(), replace(cfg, task=task).dump()])
    sys.stdout.write(report.to_tsv())
    return EXIT_OK


def cmd_predict(cfg, ckpt_path, text):
    vocab, model_cfg, params, task = _load_model(cfg, ckpt_path)
    if not text.strip():
        print("warning: empty text; predicting on the bare [CLS][SEP] frame",
              file=sys.stderr)
    preds = classify.predict_texts([text], params, model_cfg, vocab, cfg.max_len)
    pred = preds[0]
    if task == "sst5":
        names = treebank.LABEL_NAMES
    else:
        names = ("negative", "positive")
    for i, p in enumerate(pred.probs):
        print(f"{names[i]}: {p:.3f}")
    print(f"label: {names[pred.label]}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treesent",
        description="Desk-scale BERT-style sentiment classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_force=True):
        p.add_argument("--config", required=True, help="run config file")
        if need_force:
            p.add_argument("--force", action="store_true",
                           help="overwrite existing outputs")
        for section, key in OVERRIDES:
            p.add_argument(f"--{key}", help=f"override [{section}] {key}")

    common(sub.add_parser("prepare", help="parse treebank files, export sentences and stats"))
    common(sub.add_parser("vocab", help="build the WordPiece vocabulary"))
    p = sub.add_parser("pretrain", help="masked-word + next-sentence pretraining")
    common(p)
    p.add_argument("--resume", default=None, help="continue from a checkpoint")
    p = sub.add_parser("finetune", help="fine-tune a classifier head")
    common(p)
    p.add_argument("--init", required=True, help="initial (pretrained) checkpoint")
    p = sub.add_parser("eval", help="evaluate a fine-tuned checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p = sub.add_parser("predict", help="classify one text")
    common(p, need_force=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True)
    return parser


def _command(args):
    """The parsed command as checkpoint provenance records it: the command
    and its overrides. Paths are left out: they say where the files were,
    not how they were made, and would make seeded artifacts differ by
    directory."""
    words = [args.command]
    for _, key in OVERRIDES:
        if getattr(args, key) is not None:
            words += [f"--{key}", getattr(args, key)]
    return " ".join(words)


def set_malloc_policy():
    """Fix glibc's malloc thresholds: blocks up to 32 MiB come from the
    heap, and the heap top is returned to the kernel only past 256 MiB free.

    A training step allocates and frees a few MB of temporaries. By default
    glibc trims the freed top of the heap after each step, so the next step
    faults the same pages in again. One threshold alone is not enough:
    fixing either switches off glibc's dynamic mmap threshold, so freed
    blocks of 128 KiB or more go back to ``mmap``. A toy pretraining step
    at batch 16 x 64 took 160-700 minor page faults with glibc's defaults,
    about 800 with the mmap threshold alone, about 3,400 with the trim
    threshold alone, and about 10 with both; a 20 s ``perfbench``
    ``pretrain-pairs`` run took 40k-225k faults and 0.5-1.0 s of system
    time without the thresholds, 19k and 0.4 s with them (x86-64, 2 vCPUs,
    glibc, numpy 2.4, 1 BLAS thread). The price is that the peak heap
    stays resident.

    Returns whether the policy was applied: where the C library has no
    ``mallopt`` (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return True


def main(argv=None):
    set_malloc_policy()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = RunConfig.load(args.config, [
            (section, key, getattr(args, key)) for section, key in OVERRIDES
            if getattr(args, key) is not None])
        force = getattr(args, "force", False)
        if args.command == "prepare":
            return cmd_prepare(cfg, force)
        if args.command == "vocab":
            return cmd_vocab(cfg, force)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, force, _command(args), resume=args.resume)
        if args.command == "finetune":
            return cmd_finetune(cfg, force, _command(args), args.init)
        if args.command == "eval":
            return cmd_eval(cfg, force, args.checkpoint)
        if args.command == "predict":
            return cmd_predict(cfg, args.checkpoint, args.text)
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
