"""Pretraining objectives: masked word prediction and next sentence prediction.

Masking is word-level: all subword pieces of a chosen word are selected
together. Selected positions get the standard 80/10/10 replacement split
([MASK] / random token / unchanged). The toy pretraining loop trains both
objectives jointly with the masked-word head tied to the token embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .autodiff import Tensor
from .optim import AdamW, make_rng
from .tokenizer import TokenSequence, assemble, length_batches, piece_ids, stack_batch

__all__ = [
    "IS_NEXT",
    "NOT_NEXT",
    "MASK_RATE",
    "MaskedExample",
    "NspPair",
    "PretrainState",
    "PretrainConfig",
    "NoMaskablePositionsError",
    "CorpusTooSmallError",
    "mask_tokens",
    "make_nsp_pairs",
    "init_pretrain_state",
    "pretrain_step",
    "pretrain",
]

IS_NEXT = 1
NOT_NEXT = 0
MASK_RATE = 0.15  # BERT's share of words selected for masked-word prediction


class NoMaskablePositionsError(ValueError):
    pass


class CorpusTooSmallError(ValueError):
    pass


@dataclass(frozen=True)
class MaskedExample:
    seq: TokenSequence
    targets: np.ndarray         # original id at each of mask_positions
    mask_positions: np.ndarray  # ascending


@dataclass(frozen=True)
class NspPair:
    seq: TokenSequence
    label: int  # IS_NEXT or NOT_NEXT
    a_text: str = ""
    b_text: str = ""


@dataclass
class PretrainState:
    params: dict            # encoder params + mlm.b + nsp.{w,b}
    config: enc.ModelConfig
    optimizer: AdamW
    step: int = 0
    loss_history: list = field(default_factory=list)  # (step, mlm, nsp)


@dataclass(frozen=True)
class PretrainConfig:
    """The run config's ``[pretrain]`` section: one field per key."""

    epochs: int = 3
    batch_size: int = 16
    lr: float = 1e-4
    max_steps: int | None = None


def mask_tokens(seq: TokenSequence, rate: float, rng, vocab) -> MaskedExample:
    """Word-level masking: each word selected independently with prob rate.

    A word is a maximal run of pieces other than [CLS] and [SEP] whose
    later pieces are "##" continuations. If no word is selected, one is
    forced, so every example trains the masked-word objective. Per selected
    position: 80% [MASK], 10% random vocab token, 10% unchanged; the target
    records the original id. The draws are one uniform per word in order,
    then the forced choice if any, then the per-position draws. Words are
    read from the ids and ``vocab.is_continuation``; no text is
    re-tokenized.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mask rate {rate} outside (0, 1)")
    ids = seq.ids
    maskable = (ids != vocab.cls_id) & (ids != vocab.sep_id)
    positions = np.flatnonzero(maskable)
    if positions.size == 0:
        raise NoMaskablePositionsError("sequence has no maskable positions")

    # a maskable piece starts a word unless it is a "##" piece right after
    # another maskable piece
    starts = maskable.copy()
    starts[1:] &= ~(vocab.is_continuation[ids[1:]] & maskable[:-1])
    word_of = np.cumsum(starts[positions]) - 1  # word index of each position
    n_words = int(word_of[-1]) + 1

    chosen = rng.random(n_words) < rate
    if not chosen.any():
        chosen[rng.integers(n_words)] = True

    # words and the pieces within them are in position order
    mask_positions = positions[chosen[word_of]].astype(np.int64)
    masked = ids.copy()
    n_special = len(vocab.special_ids)
    for i in mask_positions:
        r = rng.random()
        if r < 0.8:
            masked[i] = vocab.mask_id
        elif r < 0.9:
            masked[i] = int(rng.integers(n_special, len(vocab)))
        # else: keep the original token
    return MaskedExample(seq=TokenSequence(ids=masked, segment_ids=seq.segment_ids),
                         targets=ids[mask_positions],
                         mask_positions=mask_positions)


def make_nsp_pairs(sentences, pieces, vocab, max_len: int, rng) -> list:
    """Adjacent-sentence pairs, half true continuations, half random.

    ``pieces[i]`` holds the WordPiece ids of ``sentences[i]``, as
    ``tokenizer.piece_ids`` returns them, so each sentence is tokenized
    once per ``pretrain`` call, not once per pair and epoch: here each pair
    is only truncated and framed by sentence index, through
    ``tokenizer.assemble`` as ``encode_pair`` does. A random B is
    never a sentence whose text equals the true next one.
    """
    if len(sentences) < 2:
        raise CorpusTooSmallError("need at least 2 sentences for pairing")
    pairs = []
    for i in range(len(sentences) - 1):
        if rng.random() < 0.5:
            j, label = i + 1, IS_NEXT
        else:
            j, label = None, NOT_NEXT
            for _ in range(100):
                k = int(rng.integers(len(sentences)))
                if k != i + 1 and sentences[k] != sentences[i + 1]:
                    j = k
                    break
            if j is None:  # every sentence equals the true next one
                j, label = i + 1, IS_NEXT
        seq = assemble(pieces[i], pieces[j], vocab, max_len)
        pairs.append(NspPair(seq=seq, label=label, a_text=sentences[i], b_text=sentences[j]))
    return pairs


def init_pretrain_state(config, hyper: PretrainConfig, *, seed,
                        total_steps=None) -> PretrainState:
    """Fresh encoder and pretraining heads, drawn from ``seed``, and their optimizer."""
    rng = make_rng(seed, stream=1)
    params = enc.init_params(config, rng)
    h = config.hidden
    params["mlm.b"] = Tensor(np.zeros(config.vocab_size, dtype=np.float32), requires_grad=True)
    params["nsp.w"] = Tensor(enc._truncated_normal(rng, (h, 2)), requires_grad=True)
    params["nsp.b"] = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    opt = AdamW(params, hyper.lr, total_steps=total_steps)
    return PretrainState(params=params, config=config, optimizer=opt)


def pretrain_step(state: PretrainState, batch, rng):
    """One joint optimizer step; returns (mlm_loss, nsp_loss) floats.

    ``batch`` is a list of (MaskedExample, nsp_label) built from pair
    encodings: the masked sequence carries both objectives. Raises
    ``FloatingPointError`` before the update if the loss is not finite.
    """
    params, config = state.params, state.config
    ids, segs, mask = stack_batch([ex.seq for ex, _ in batch])
    nsp_labels = np.array([lbl for _, lbl in batch], dtype=np.int64)
    b, h = ids.shape[0], config.hidden

    # the encoder's last block runs at [CLS] (slot 0, for the pooler) and at
    # the masked positions (slots 1.., padded with 0) alone
    counts = [len(ex.mask_positions) for ex, _ in batch]
    m = 1 + max(counts)
    rows = np.zeros((b, m), dtype=np.int64)
    for row, (ex, _) in enumerate(batch):
        rows[row, 1:1 + counts[row]] = ex.mask_positions
    hidden, pooled = enc.encode_batch(ids, segs, mask, params, config,
                                      training=True, rng=rng, rows=rows)

    # masked-word head: tied token embedding + bias, at the masked slots only
    flat_slots = np.concatenate([row * m + 1 + np.arange(c) for row, c in enumerate(counts)])
    flat_targets = np.concatenate([ex.targets for ex, _ in batch])
    masked_states = ad.index_select(ad.reshape(hidden, (b * m, h)), 0, flat_slots)
    mlm_logits = ad.linear(masked_states, ad.transpose(params["emb.tok"]), params["mlm.b"])
    mlm_loss = ad.softmax_cross_entropy(mlm_logits, flat_targets)

    nsp_logits = ad.linear(pooled, params["nsp.w"], params["nsp.b"])
    nsp_loss = ad.softmax_cross_entropy(nsp_logits, nsp_labels)

    total = mlm_loss + nsp_loss
    state.optimizer.minimize(total, state.step + 1)
    state.step += 1
    mlm_val, nsp_val = float(mlm_loss.data), float(nsp_loss.data)
    state.loss_history.append((state.step, mlm_val, nsp_val))
    return mlm_val, nsp_val


def pretrain(corpus, vocab, config, hyper: PretrainConfig, *, max_len, seed,
             state: PretrainState | None = None,
             checkpoint_fn=None) -> PretrainState:
    """Toy-scale joint pretraining over a treebank corpus.

    ``hyper`` is the ``[pretrain]`` section; ``max_len`` and ``seed`` are
    the run's ``[model]`` and ``[run]`` keys. Each sentence is tokenized
    once per call, before the first epoch. Each epoch rebuilds sentence
    pairs from those piece ids (fresh pairing randomness), masks them, and
    draws its batches from ``tokenizer.length_batches`` on the epoch's
    stream, so pairs of similar length share a batch. Deterministic for a
    fixed seed. Training ends at ``hyper.max_steps`` steps, mid-epoch if need
    be; no epoch starts after that. ``checkpoint_fn(state, epoch)``, when
    given, is called after each epoch that ran.
    """
    n_pairs = len(corpus.trees) - 1
    if n_pairs < 1:
        raise CorpusTooSmallError(f"{corpus.split} split has {n_pairs + 1} tree(s); "
                                  "next-sentence pairs need at least 2")
    steps_per_epoch = max(1, (n_pairs + hyper.batch_size - 1) // hyper.batch_size)
    max_steps = math.inf if hyper.max_steps is None else hyper.max_steps
    total_steps = min(steps_per_epoch * hyper.epochs, max_steps)
    if state is None:
        state = init_pretrain_state(config, hyper, seed=seed, total_steps=total_steps)
    sentences = [tree.span_text for tree in corpus.trees]
    pieces = piece_ids(sentences, vocab)
    for epoch in range(hyper.epochs):
        if state.step >= max_steps:
            break
        rng = make_rng(seed, stream=1000 + epoch)
        pairs = make_nsp_pairs(sentences, pieces, vocab, max_len, rng)
        examples = []
        for pair in pairs:
            try:
                ex = mask_tokens(pair.seq, MASK_RATE, rng, vocab)
            except NoMaskablePositionsError:
                continue
            examples.append((ex, pair.label))
        lengths = np.array([ex.seq.n_real for ex, _ in examples])
        for sel in length_batches(lengths, hyper.batch_size, rng):
            if state.step >= max_steps:
                break
            pretrain_step(state, [examples[i] for i in sel], rng)
        if checkpoint_fn is not None:
            checkpoint_fn(state, epoch)
    return state


def loss_history_csv(state: PretrainState) -> str:
    lines = ["step,mlm_loss,nsp_loss"]
    for step, mlm, nsp in state.loss_history:
        lines.append(f"{step},{mlm:.6f},{nsp:.6f}")
    return "\n".join(lines) + "\n"
