"""Desk-scale BERT-style sentiment classification over sentiment treebanks."""

from .autodiff import Tensor, backward, finite_diff_check
from .encoder import ModelConfig, preset
from .optim import set_malloc_policy
from .tokenizer import Vocab, build_vocab, canonicalize, encode, encode_pair, wordpiece
from .treebank import Corpus, PhraseTree, SentimentLabel, load_corpus, parse_tree

__version__ = "0.1.0"
set_malloc_policy()  # for every caller, not only the CLI; see its docstring

__all__ = [
    "Tensor",
    "backward",
    "finite_diff_check",
    "ModelConfig",
    "preset",
    "Vocab",
    "build_vocab",
    "canonicalize",
    "encode",
    "encode_pair",
    "wordpiece",
    "Corpus",
    "PhraseTree",
    "SentimentLabel",
    "load_corpus",
    "parse_tree",
]
