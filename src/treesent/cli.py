"""Command-line surface: prepare / vocab / pretrain / finetune / eval / predict.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Configuration is a line-oriented ``key = value`` file with ``[section]``
headers; a resolved copy is written next to the artifacts each command
produces. Existing outputs are never overwritten without ``--force``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import classify, encoder, pretrain as pt, tokenizer, treebank
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .optim import make_rng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SPLITS = ("train", "dev", "test")
HEAD_EXTRAS = ("head.w", "head.b", "mlm.b", "nsp.w", "nsp.b")


class UsageError(ValueError):
    pass


class DataError(ValueError):
    pass


@dataclass
class RunConfig:
    data_dir: str
    out_dir: str
    vocab_path: str
    preset: str = "toy"
    vocab_size: int = 2000
    max_len: int = 32
    seed: int = 0
    task: str = "sst5"
    scope: tuple = ("all", "root")
    pretrain_epochs: int = 3
    pretrain_batch_size: int = 16
    pretrain_lr: float = 1e-4
    mask_rate: float = 0.15
    pretrain_max_steps: int | None = None
    finetune_epochs: int = 3
    finetune_batch_size: int = 32
    finetune_lr: float = 2e-5
    head_lr: float = 1e-3
    freeze_encoder: bool = False
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path):
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(path)

        def get(section, key, default=None, cast=str):
            if parser.has_option(section, key):
                return cast(parser.get(section, key))
            if default is None:
                raise UsageError(f"config missing [{section}] {key}")
            return default

        def get_bool(section, key, default):
            if parser.has_option(section, key):
                return parser.getboolean(section, key)
            return default

        scope = tuple(
            s.strip() for s in get("run", "scope", "all,root").split(",") if s.strip()
        )
        for s in scope:
            if s not in ("all", "root"):
                raise UsageError(f"bad scope entry {s!r} (use all,root)")
        task = get("run", "task", "sst5")
        if task not in classify.TASK_CLASSES:
            raise UsageError(f"bad task {task!r} (use sst2 or sst5)")
        preset_name = get("model", "preset", "toy")
        if preset_name not in ("base", "large", "toy"):
            raise UsageError(f"bad preset {preset_name!r}")
        cfg = cls(
            data_dir=get("paths", "data_dir"),
            out_dir=get("paths", "out_dir"),
            vocab_path=get("paths", "vocab", ""),
            preset=preset_name,
            vocab_size=get("model", "vocab_size", 2000, int),
            max_len=get("model", "max_len", 32, int),
            seed=get("run", "seed", 0, int),
            task=task,
            scope=scope,
            pretrain_epochs=get("pretrain", "epochs", 3, int),
            pretrain_batch_size=get("pretrain", "batch_size", 16, int),
            pretrain_lr=get("pretrain", "lr", 1e-4, float),
            mask_rate=get("pretrain", "mask_rate", 0.15, float),
            pretrain_max_steps=(
                int(parser.get("pretrain", "max_steps"))
                if parser.has_option("pretrain", "max_steps") else None
            ),
            finetune_epochs=get("finetune", "epochs", 3, int),
            finetune_batch_size=get("finetune", "batch_size", 32, int),
            finetune_lr=get("finetune", "lr", 2e-5, float),
            head_lr=get("finetune", "head_lr", 1e-3, float),
            freeze_encoder=get_bool("finetune", "freeze_encoder", False),
        )
        if not cfg.vocab_path:
            cfg.vocab_path = os.path.join(cfg.out_dir, "vocab.txt")
        cfg.raw = {s: dict(parser.items(s)) for s in parser.sections()}
        return cfg

    def dump(self) -> str:
        lines = [
            "[paths]",
            f"data_dir = {self.data_dir}",
            f"out_dir = {self.out_dir}",
            f"vocab = {self.vocab_path}",
            "",
            "[model]",
            f"preset = {self.preset}",
            f"vocab_size = {self.vocab_size}",
            f"max_len = {self.max_len}",
            "",
            "[pretrain]",
            f"epochs = {self.pretrain_epochs}",
            f"batch_size = {self.pretrain_batch_size}",
            f"lr = {self.pretrain_lr}",
            f"mask_rate = {self.mask_rate}",
            "",
            "[finetune]",
            f"epochs = {self.finetune_epochs}",
            f"batch_size = {self.finetune_batch_size}",
            f"lr = {self.finetune_lr}",
            f"head_lr = {self.head_lr}",
            f"freeze_encoder = {self.freeze_encoder}",
            "",
            "[run]",
            f"seed = {self.seed}",
            f"task = {self.task}",
            f"scope = {','.join(self.scope)}",
        ]
        if self.pretrain_max_steps is not None:
            idx = lines.index("[finetune]") - 1
            lines.insert(idx, f"max_steps = {self.pretrain_max_steps}")
        return "\n".join(lines) + "\n"


def _check_output(path, force):
    if os.path.exists(path) and not force:
        raise UsageError(f"refusing to overwrite {path} (use --force)")


def _write_text(path, text, force):
    _check_output(path, force)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_config_copy(cfg, force, name):
    path = os.path.join(cfg.out_dir, f"config.{name}.ini")
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.dump())


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
    corpora = [_load_split(cfg, s) for s in SPLITS]
    stats = treebank.corpus_stats(corpora)
    for corpus in corpora:
        lines = [tree.span_text for tree in corpus.trees]
        _write_text(os.path.join(cfg.out_dir, f"sentences_{corpus.split}.txt"),
                    "\n".join(lines) + ("\n" if lines else ""), force)
    _write_text(os.path.join(cfg.out_dir, "stats.txt"), stats.to_text(), force)
    _write_text(os.path.join(cfg.out_dir, "stats.json"), stats.to_json(), force)
    _write_config_copy(cfg, force, "prepare")
    if stats.sentence_count == 0:
        print("warning: prepared an empty corpus", file=sys.stderr)
    print(f"sentences: {stats.sentence_count}")
    print(f"unique phrases: {stats.unique_phrase_count}")
    return EXIT_OK


def cmd_vocab(cfg, force):
    train = _load_split(cfg, "train")
    try:
        vocab = tokenizer.build_vocab([train], cfg.vocab_size)
    except tokenizer.TargetTooSmallError as exc:
        raise UsageError(str(exc)) from exc
    if len(vocab) == len(tokenizer.SPECIAL_TOKENS):
        print("warning: vocab contains only special tokens", file=sys.stderr)
    _check_output(cfg.vocab_path, force)
    os.makedirs(os.path.dirname(os.path.abspath(cfg.vocab_path)), exist_ok=True)
    vocab.save(cfg.vocab_path)
    _write_config_copy(cfg, force, "vocab")
    print(f"vocab size: {len(vocab)} -> {cfg.vocab_path}")
    return EXIT_OK


def _load_vocab(cfg):
    if not os.path.exists(cfg.vocab_path):
        raise DataError(f"vocab file not found: {cfg.vocab_path} (run the vocab command)")
    return tokenizer.Vocab.load(cfg.vocab_path)


def _vocab_sha256(vocab):
    return hashlib.sha256("\n".join(vocab.tokens).encode("utf-8")).hexdigest()


def _provenance(cfg, step, vocab):
    return {"seed": cfg.seed, "step": step, "command": " ".join(sys.argv[1:]),
            "vocab_sha256": _vocab_sha256(vocab)}


def _load_checkpoint(cfg, path, vocab):
    """``load_checkpoint``, refusing a checkpoint trained on another vocab.

    A checkpoint without a stored fingerprint (written before they were
    recorded) is accepted as it stands.
    """
    model_cfg, params, prov = load_checkpoint(path, expect_extra=HEAD_EXTRAS)
    stored = prov.get("vocab_sha256")
    if stored is not None and stored != _vocab_sha256(vocab):
        raise DataError(f"{path} was trained with a different vocab than {cfg.vocab_path}")
    return model_cfg, params, prov


def cmd_pretrain(cfg, force, resume=None):
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
        for name, tensor in params.items():
            state.params[name].data = tensor.data
        state.step = int(prov.get("step", 0))
    ckpt_path = os.path.join(cfg.out_dir, "pretrain.ckpt")
    csv_path = os.path.join(cfg.out_dir, "pretrain_loss.csv")
    _check_output(ckpt_path, force)
    _check_output(csv_path, force)
    os.makedirs(cfg.out_dir, exist_ok=True)

    def checkpoint_fn(st, epoch):
        save_checkpoint(ckpt_path, st.config, st.params, _provenance(cfg, st.step, vocab))

    state = pt.pretrain(train, vocab, model_cfg, hyper, state=state,
                        checkpoint_fn=checkpoint_fn)
    save_checkpoint(ckpt_path, state.config, state.params,
                    _provenance(cfg, state.step, vocab))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(pt.loss_history_csv(state))
    _write_config_copy(cfg, force, "pretrain")
    if state.loss_history:
        print(f"steps: {state.step}  final mlm loss: {state.loss_history[-1][1]:.4f}  "
              f"final nsp loss: {state.loss_history[-1][2]:.4f}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def cmd_finetune(cfg, force, init_ckpt):
    vocab = _load_vocab(cfg)
    model_cfg, params, _ = _load_checkpoint(cfg, init_ckpt, vocab)
    expected = _model_config(cfg, vocab)
    if (model_cfg.layers, model_cfg.hidden, model_cfg.heads) != (
            expected.layers, expected.hidden, expected.heads):
        raise DataError(
            f"checkpoint config {model_cfg.layers}L/{model_cfg.hidden}H/{model_cfg.heads}A "
            f"does not match preset {cfg.preset}")
    train = _load_split(cfg, "train")
    dev = _load_split(cfg, "dev")
    train_records = [r for t in train.trees for r in treebank.extract_phrases(t)]
    dev_records = [r for t in dev.trees for r in treebank.extract_phrases(t)]
    hyper = classify.FinetuneConfig(
        epochs=cfg.finetune_epochs, batch_size=cfg.finetune_batch_size,
        lr=cfg.finetune_lr, head_lr=cfg.head_lr, max_len=cfg.max_len,
        seed=cfg.seed, freeze_encoder=cfg.freeze_encoder,
    )
    params, head, summary = classify.finetune(
        train_records, dev_records, params, model_cfg, vocab, cfg.task, hyper)
    out = dict(params)
    out["head.w"] = head.weights
    out["head.b"] = head.bias
    ckpt_path = os.path.join(cfg.out_dir, f"finetune_{cfg.task}.ckpt")
    _check_output(ckpt_path, force)
    os.makedirs(cfg.out_dir, exist_ok=True)
    prov = _provenance(cfg, 0, vocab)
    prov["task"] = cfg.task
    save_checkpoint(ckpt_path, model_cfg, out, prov)
    _write_config_copy(cfg, force, "finetune")
    print(f"best dev root accuracy: {summary['best_dev_root_acc']}"
          f" (epoch {summary['best_epoch']})")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def _load_model(cfg, ckpt_path):
    vocab = _load_vocab(cfg)
    model_cfg, params, prov = _load_checkpoint(cfg, ckpt_path, vocab)
    task = prov.get("task", cfg.task)
    if "head.w" not in params:
        raise DataError(f"{ckpt_path} has no classifier head; fine-tune first")
    head = classify.ClassifierHead(
        weights=params.pop("head.w"), bias=params.pop("head.b"),
        n_classes=classify.TASK_CLASSES[task],
    )
    params.pop("mlm.b", None)
    params.pop("nsp.w", None)
    params.pop("nsp.b", None)
    return vocab, model_cfg, params, head, task


def cmd_eval(cfg, force, ckpt_path):
    vocab, model_cfg, params, head, task = _load_model(cfg, ckpt_path)
    test = _load_split(cfg, "test")
    cells = [(task, scope) for scope in cfg.scope]
    report = classify.evaluate(params, model_cfg, head, vocab, [test], cells,
                               max_len=cfg.max_len)
    tsv_path = os.path.join(cfg.out_dir, f"report_{task}.tsv")
    json_path = os.path.join(cfg.out_dir, f"report_{task}.json")
    _write_text(tsv_path, report.to_tsv(), force)
    _write_text(json_path, report.to_json(), force)
    _write_config_copy(cfg, force, "eval")
    sys.stdout.write(report.to_tsv())
    return EXIT_OK


def cmd_predict(cfg, ckpt_path, text):
    vocab, model_cfg, params, head, task = _load_model(cfg, ckpt_path)
    if not text.strip():
        print("warning: empty text; predicting on the bare [CLS][SEP] frame",
              file=sys.stderr)
    preds = classify.predict_texts([text], params, model_cfg, head, vocab, cfg.max_len)
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
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        if need_force:
            p.add_argument("--force", action="store_true",
                           help="overwrite existing outputs")
        p.add_argument("--preset", choices=["base", "large", "toy"], default=None)
        p.add_argument("--task", choices=["sst2", "sst5"], default=None)
        p.add_argument("--scope", default=None, help="comma list of all,root")

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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if getattr(args, "preset", None):
            cfg.preset = args.preset
        if getattr(args, "task", None):
            cfg.task = args.task
        if getattr(args, "scope", None):
            cfg.scope = tuple(s.strip() for s in args.scope.split(",") if s.strip())
        force = getattr(args, "force", False)
        if args.command == "prepare":
            return cmd_prepare(cfg, force)
        if args.command == "vocab":
            return cmd_vocab(cfg, force)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, force, resume=args.resume)
        if args.command == "finetune":
            return cmd_finetune(cfg, force, args.init)
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
