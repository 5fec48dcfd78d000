"""Fine-tune a classifier head and score the evaluation grid.

Run: python demos/05_finetune_and_eval.py  (takes a minute or two)
"""

import tempfile

from treesent import classify, encoder, pretrain, synth, tokenizer
from treesent.treebank import LABEL_NAMES, extract_phrases, load_corpus, root_record

with tempfile.TemporaryDirectory() as d:
    synth.write_dataset(d, n_train=120, n_dev=40, n_test=40, seed=5)
    splits = {s: load_corpus(f"{d}/{s}.txt", s) for s in ("train", "dev", "test")}

vocab = tokenizer.build_vocab([splits["train"]], 150)
cfg = encoder.preset("toy", vocab_size=len(vocab), max_positions=64)

print("pretraining the toy encoder...")
hyper = pretrain.PretrainConfig(epochs=3, batch_size=16, lr=1e-3, seed=0, max_len=24)
state = pretrain.pretrain(splits["train"], vocab, cfg, hyper)
params = {k: v for k, v in state.params.items()
          if not k.startswith(("mlm.", "nsp."))}

# Fine-tuning adds a fresh head (head.w, head.b) to the parameters, trains
# on every labeled phrase, not just whole sentences, and keeps the epoch
# with the best dev root accuracy, so it needs only the dev roots.
train_recs = [r for t in splits["train"].trees for r in extract_phrases(t)]
dev_recs = [root_record(t) for t in splits["dev"].trees]
ft = classify.FinetuneConfig(epochs=10, batch_size=32, lr=2e-3, head_lr=1e-3,
                             max_len=24, seed=1)
print("fine-tuning the five-way head...")
params, summary = classify.finetune(train_recs, dev_recs, params, cfg,
                                    vocab, "sst5", ft)
print("best dev root accuracy:", summary["best_dev_root_acc"],
      "at epoch", summary["best_epoch"])

# The evaluation grid scores every node occurrence and root nodes alone.
report = classify.evaluate(params, cfg, vocab, [splits["test"]],
                           [("sst5", "all"), ("sst5", "root")], max_len=24)
print("\ntest grid:")
print(report.to_tsv())

# Single-text prediction with class probabilities.
text = "a great movie worth seeing"
pred = classify.predict_texts([text], params, cfg, vocab, 24)[0]
print(f"prediction for {text!r}:")
for name, p in zip(LABEL_NAMES, pred.probs):
    print(f"  {name:14} {p:.3f}")
print("label:", LABEL_NAMES[pred.label])
