import os

import numpy as np
import pytest

from treesent import encoder, synth, tokenizer
from treesent.optim import make_rng

# Real treebank distribution (train.txt / dev.txt / test.txt), if the user
# provides one. Checks that depend on the published corpus counts are
# skipped without it.
SST_ENV = "TREESENT_SST_DIR"


def param_count(config):
    """Exact trainable scalar count of an encoder config."""
    return sum(int(np.prod(s)) for s in encoder.param_shapes(config).values())


def sst_dir():
    cand = os.environ.get(SST_ENV, os.path.join(os.path.dirname(__file__), "..", "data", "sst"))
    if all(os.path.exists(os.path.join(cand, f"{s}.txt")) for s in ("train", "dev", "test")):
        return cand
    return None


@pytest.fixture(scope="session")
def sst_path():
    path = sst_dir()
    if path is None:
        pytest.skip(f"real treebank files not found (set {SST_ENV} or place them in data/sst/)")
    return path


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    synth.write_dataset(d, n_train=120, n_dev=40, n_test=40, seed=5)
    return d


@pytest.fixture(scope="session")
def synth_corpora(synth_dir):
    from treesent.treebank import load_corpus

    return [load_corpus(os.path.join(synth_dir, f"{s}.txt"), s)
            for s in ("train", "dev", "test")]


@pytest.fixture(scope="session")
def small_vocab():
    """Hand-built vocab with the play/##ing pieces plus a full alphabet."""
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    tokens = list(tokenizer.SPECIAL_TOKENS) + letters + ["##" + c for c in letters]
    tokens += [t for t in ("play", "##ing", "rock", "##s", "movie") if t not in tokens]
    return tokenizer.Vocab(tokens)


@pytest.fixture
def rng():
    return make_rng(1234)
