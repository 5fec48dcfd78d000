"""Canonicalization, WordPiece segmentation, and model-ready sequences.

Run: python demos/02_tokenization.py
"""

from treesent.tokenizer import (
    SPECIAL_TOKENS,
    Vocab,
    canonicalize,
    encode,
    encode_pair,
    stack_batch,
    wordpiece,
)

# Text is cleaned before segmentation: lowercase, accents stripped, digits
# and punctuation dropped.
for raw in ("Playing!!", "Café-au-lait, 1999.", "  A   GREAT   movie "):
    print(f"{raw!r:32} -> {canonicalize(raw)!r}")

# A vocabulary is a plain token list; continuation pieces carry "##".
letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
vocab = Vocab(list(SPECIAL_TOKENS) + letters + ["##" + c for c in letters]
              + ["play", "##ing", "##ed", "great"])

print("\ngreedy longest-match segmentation:")
for word in ("playing", "played", "plays", "great", "greatest"):
    print(f"  {word:10} -> {wordpiece(word, vocab)}")

# encode produces the frame the encoder consumes, [CLS] pieces [SEP],
# truncated to max_len but never padded.
seq = encode("a great playing", vocab, max_len=10)
print("\nsingle sentence frame:")
print("  tokens :", [vocab.tokens[i] for i in seq.ids])

# Sentence pairs get segment ids (0 for A and its [SEP], 1 for B).
pair = encode_pair("playing", "great", vocab, max_len=10)
print("\nsentence pair frame:")
print("  tokens  :", [vocab.tokens[i] for i in pair.ids])
print("  segments:", pair.segment_ids.tolist())

# Batching pads: stack_batch fills each row to the longest one with [PAD]
# and builds the mask that keeps attention off the padded slots.
ids, segs, mask = stack_batch([encode("great", vocab, max_len=10), seq])
print("\nbatch of two texts:")
for row_ids, row_mask in zip(ids, mask):
    print("  tokens :", [vocab.tokens[i] for i in row_ids])
    print("  mask   :", row_mask.astype(int).tolist())
