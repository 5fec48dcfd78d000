"""Joint masked-word + next-sentence pretraining at toy scale.

Run: python demos/04_pretraining.py
"""

import tempfile

import numpy as np

from treesent import encoder, pretrain, synth, tokenizer
from treesent.optim import make_rng
from treesent.treebank import load_corpus

with tempfile.TemporaryDirectory() as d:
    synth.write_dataset(d, n_train=120, n_dev=20, n_test=20, seed=5)
    train = load_corpus(f"{d}/train.txt", "train")

vocab = tokenizer.build_vocab([train], 150)
print(f"vocabulary: {len(vocab)} pieces")

# What one training example looks like: a sentence pair with ~15% of its
# words hidden, plus a did-B-really-follow-A label.
# Each sentence is tokenized once; pairs are then assembled from piece ids.
sentences = [tree.span_text for tree in train.trees]
pieces = tokenizer.piece_ids(sentences, vocab)
rng = make_rng(7)
pairs = pretrain.make_nsp_pairs(sentences, pieces, vocab, max_len=20, rng=rng)
ex = pretrain.mask_tokens(pairs[0].seq, pretrain.MASK_RATE, rng, vocab)
print("\nsample pair (label =", pairs[0].label, "):")
print("  A:", pairs[0].a_text)
print("  B:", pairs[0].b_text)
print("  masked positions:", ex.mask_positions.tolist())

# Train a small encoder for a few epochs and watch both losses fall.
cfg = encoder.ModelConfig(layers=1, hidden=32, heads=2, intermediate=64,
                          vocab_size=len(vocab), max_positions=24)
hyper = pretrain.PretrainConfig(epochs=8, batch_size=16, lr=5e-3)
state = pretrain.pretrain(train, vocab, cfg, hyper, max_len=20, seed=4)

steps = [s for s, _, _ in state.loss_history]
mlm = [m for _, m, _ in state.loss_history]
nsp = [n for _, _, n in state.loss_history]
print(f"\ntrained {state.step} steps")
print(f"masked-word loss: {mlm[0]:.3f} -> {mlm[-1]:.3f}")
print(f"next-sentence loss: {nsp[0]:.3f} -> {nsp[-1]:.3f}")
print(f"uniform baseline would be ln(V) = {np.log(len(vocab)):.3f}")
