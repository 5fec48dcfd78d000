import numpy as np
import pytest
from test_classify import tiny_setup
from test_pretrain import batch_from, letter_vocab, sentence_corpus

from treesent import autodiff as ad
from treesent import classify as cl
from treesent import encoder as enc
from treesent import pretrain as pt
from treesent import tokenizer as tok
from treesent.autodiff import Tensor
from treesent.optim import BETAS, EPS, WEIGHT_DECAY, AdamW, make_rng
from treesent.treebank import extract_phrases


def lr_per_step(opt, steps):
    return [opt._lr_at(t) for t in range(1, steps + 1)]


class ReferenceAdamW:
    """The per-tensor update the arena replaced: a loop over the tensors,
    a dozen temporaries each, reading the gradient arrays autodiff
    allocates for each leaf. Its parameters, ``m`` and ``v`` are the
    oracle the arena must match bit for bit."""

    def __init__(self, params, lr, total_steps=None):
        self.params = dict(params)
        self.schedule = AdamW({}, lr, total_steps=total_steps)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        # finetune snapshots and restores the parameters as one flat buffer, so
        # they sit in one here too; the update below still runs per tensor
        self.arena = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        bounds = np.cumsum([0] + [p.data.size for p in self.params.values()])
        for p, lo, hi in zip(self.params.values(), bounds[:-1], bounds[1:]):
            p.data = self.arena[lo:hi].reshape(p.data.shape)

    def step(self):
        self.t += 1
        lr = self.schedule._lr_at(self.t)
        b1, b2 = BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            update = update + WEIGHT_DECAY * p.data
            p.data -= (lr * update).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    # the training loops call minimize: the same check, zero_grad, backward
    # pass and step sequence, around the per-tensor update above
    minimize = AdamW.minimize


SHAPES = {"emb": (13, 8), "ln.g": (8,), "w": (8, 3, 2), "ln.b": (5,), "b": (3,),
          "scalar": (), "empty": (0, 4), "tail": (7, 7)}


def twin_params(seed):
    """Two equal parameter dicts of mixed shapes, one per optimizer."""
    rng = make_rng(seed)
    values = {name: rng.standard_normal(shape).astype(np.float32)
              for name, shape in SHAPES.items()}
    return tuple({name: Tensor(x.copy(), requires_grad=True) for name, x in values.items()}
                 for _ in range(2))


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def test_warmup_then_linear_decay():
    # 20 steps: the first 10% (2 steps) ramp up, the other 18 decay to 0
    opt = AdamW({}, 1.0, total_steps=20)
    want = [0.5, 1.0] + [(20 - t) / 18 for t in range(3, 21)]
    np.testing.assert_allclose(lr_per_step(opt, 20), want, rtol=0, atol=1e-15)
    assert opt._lr_at(20) == 0.0


def test_constant_lr_without_a_schedule():
    assert lr_per_step(AdamW({}, 0.3), 50) == [0.3] * 50


def test_unreached_parameter_gets_a_zero_gradient():
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    q = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = AdamW({"p": p, "q": q}, 0.1)
    opt.zero_grad()
    ad.backward(ad.tensor_sum(p))  # the loss does not reach q
    opt.step()
    # q keeps the zero gradient zero_grad gave it, PyTorch's set_to_none=False
    # rule: the step still decays q, and its m and v stay zero
    np.testing.assert_array_equal(q.grad, 0.0)
    np.testing.assert_allclose(q.data, 1.0 - 0.1 * WEIGHT_DECAY, rtol=1e-6)
    assert not opt.m["q"].any() and not opt.v["q"].any()
    assert (p.data < q.data).all()


def test_step_refuses_a_missing_gradient():
    params, _ = twin_params(9)
    opt = AdamW(params, 0.1)
    before = opt.arena.copy()
    with pytest.raises(RuntimeError, match="parameter emb has no gradient"):
        opt.step()  # no zero_grad yet, so every grad is None
    opt.zero_grad()
    params["b"].grad = None
    with pytest.raises(RuntimeError, match="parameter b has no gradient"):
        opt.step()
    assert opt.t == 0 and opt.arena.tobytes() == before.tobytes()


@pytest.mark.parametrize("total_steps", [None, 12])
def test_arena_matches_per_tensor_reference(total_steps):
    mine, theirs = twin_params(5)
    opt = AdamW(mine, 3e-2, total_steps=total_steps)
    ref = ReferenceAdamW(theirs, 3e-2, total_steps=total_steps)
    rng = make_rng(6)
    for step in range(12):
        # on odd steps the gradients are fresh arrays, of any memory layout,
        # that the step copies in; on even steps they are added into the
        # views zero_grad hands out, as a backward pass adds them
        if step % 2 == 0:
            opt.zero_grad()
        for name, shape in SHAPES.items():
            g = (rng.standard_normal(shape[::-1]).astype(np.float32).T
                 * np.float32(10.0 ** (step % 4 - 2)))
            theirs[name].grad = g.copy()
            if step % 2 == 0:
                mine[name].grad += g
            else:
                mine[name].grad = g
        opt.step()
        ref.step()
        for name in SHAPES:
            assert_bitwise_equal(mine[name].grad, theirs[name].grad)
            assert_bitwise_equal(mine[name].data, theirs[name].data)
            assert_bitwise_equal(opt.m[name], ref.m[name])
            assert_bitwise_equal(opt.v[name], ref.v[name])


def test_parameters_are_views_of_one_arena():
    params, _ = twin_params(7)
    before = {name: p.data.copy() for name, p in params.items()}
    opt = AdamW(params, 0.1)
    for name, p in params.items():
        assert_bitwise_equal(p.data, before[name])
        assert np.shares_memory(p.data, opt.arena) or p.data.size == 0
        assert opt.m[name].shape == opt.v[name].shape == p.data.shape
    assert opt.arena.size == sum(x.size for x in before.values())


def test_mixed_dtypes_are_refused():
    params = {"a": Tensor(np.zeros(3, dtype=np.float32), requires_grad=True),
              "b": Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)}
    with pytest.raises(TypeError, match="mixed dtypes"):
        AdamW(params, 0.1)


def test_float64_parameters_get_a_float64_arena():
    p = Tensor(np.ones(4, dtype=np.float64), requires_grad=True)
    opt = AdamW({"p": p}, 0.1)
    assert opt.arena.dtype == p.data.dtype == np.float64


def test_step_refuses_a_rebound_parameter():
    params, _ = twin_params(8)
    opt = AdamW(params, 0.1)
    opt.zero_grad()
    params["w"].data = params["w"].data.copy()  # detaches w from the arena
    with pytest.raises(RuntimeError, match="parameter w"):
        opt.step()
    # writing into the view is the way to replace values
    params, _ = twin_params(8)
    opt = AdamW(params, 0.1)
    opt.zero_grad()
    params["w"].data[...] = 0.5
    params["w"].grad = np.ones(SHAPES["w"], dtype=np.float32)
    opt.step()
    assert (params["w"].data < 0.5).all()


# Whole words past the one-hot threshold, so that the token table's gradient
# takes embedding_lookup's scatter into the leaf's array
WORDS = [f"w{i}" for i in range(ad._ONE_HOT_MAX_ROWS)]


def pretrain_twins(optimizer):
    """A tiny pretraining state with dropout, trained by ``optimizer``,
    and one masked batch of pairs over the whole-word vocab."""
    vocab = tok.Vocab(letter_vocab().tokens + WORDS)
    cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                          vocab_size=len(vocab), max_positions=16, dropout_p=0.1)
    state = pt.init_pretrain_state(cfg, pt.PretrainConfig(lr=1e-2, seed=0))
    state.optimizer = optimizer(state.params, 1e-2, total_steps=10)
    rng = make_rng(10)
    corpus = sentence_corpus([" ".join(rng.choice(WORDS, 5)) for _ in range(6)])
    return state, batch_from(corpus, vocab, rng, max_len=16)


def train_one_step(kind, optimizer, synth_corpora, monkeypatch):
    """One real training step of ``kind`` whose optimizer is ``optimizer``;
    returns that optimizer."""
    made = []

    def recording(*args, **kwargs):
        made.append(optimizer(*args, **kwargs))
        return made[-1]

    if kind == "pretrain":
        state, batch = pretrain_twins(recording)
        pt.pretrain_step(state, batch, make_rng(11))
    else:
        vocab, cfg, params = tiny_setup(dropout_p=0.1)
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)][:24]
        dev = [r for t in synth_corpora[1].trees for r in extract_phrases(t)][:5]
        hyper = cl.FinetuneConfig(epochs=1, batch_size=32, lr=1e-2, head_lr=1e-2, seed=3,
                                  max_len=16, freeze_encoder=kind == "frozen")
        monkeypatch.setattr(cl, "AdamW", recording)
        cl.finetune(train, dev, params, cfg, vocab, "sst5", hyper)
    (opt,) = made
    return opt


KINDS = ["pretrain", "finetune", "frozen"]


@pytest.mark.parametrize("kind", KINDS)
def test_backward_accumulates_into_the_arena(kind, synth_corpora, monkeypatch):
    # after zero_grad and a real step's backward pass each trained grad is
    # the optimizer's own view: no leaf gradient lives outside the arena
    opt = train_one_step(kind, AdamW, synth_corpora, monkeypatch)
    for p, view in zip(opt.params.values(), opt._grad_views):
        assert p.grad is view and np.shares_memory(view, opt._grad)


@pytest.mark.parametrize("kind", KINDS)
def test_training_step_matches_the_per_tensor_reference(kind, synth_corpora, monkeypatch):
    opt = train_one_step(kind, AdamW, synth_corpora, monkeypatch)
    ref = train_one_step(kind, ReferenceAdamW, synth_corpora, monkeypatch)
    assert opt.params.keys() == ref.params.keys()
    for name, p in opt.params.items():
        q = ref.params[name]
        # every trained tensor has a gradient, and a nonzero one
        assert q.grad is not None and q.grad.any(), name
        # p.grad still reads the backward pass's gradient after the step
        assert_bitwise_equal(p.grad, q.grad)
        assert_bitwise_equal(p.data, q.data)
        assert_bitwise_equal(opt.m[name], ref.m[name])
        assert_bitwise_equal(opt.v[name], ref.v[name])


def optimizer_state(opt):
    return [opt.arena.tobytes(), opt._m.tobytes(), opt._v.tobytes(), opt._grad.tobytes(), opt.t]


@pytest.mark.parametrize("kind", ["pretrain", "finetune"])
def test_a_non_finite_loss_changes_nothing(kind, synth_corpora, monkeypatch):
    # the first update trains; the second one's loss reads NaN, and the
    # update refuses it before zero_grad, so the parameters, m, v, the
    # gradients and t stay as the first update left them. Pretraining,
    # resumed here at step 5, numbers its steps from the checkpoint's step.
    made, before = [], []
    loss_fn = ad.softmax_cross_entropy

    def poisoned(*args, **kwargs):
        out = loss_fn(*args, **kwargs)
        if made[0].t == 1:
            before.append(optimizer_state(made[0]))
            out.data = np.full_like(out.data, np.nan)
        return out

    def recording(*args, **kwargs):
        made.append(AdamW(*args, **kwargs))
        return made[-1]

    if kind == "pretrain":
        vocab = tok.build_vocab(synth_corpora[:1], 120)
        cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                              vocab_size=len(vocab), max_positions=16, dropout_p=0.1)
        hyper = pt.PretrainConfig(epochs=1, batch_size=8, seed=1, max_len=16)
        state = pt.init_pretrain_state(cfg, hyper)
        state.step = 5
        made.append(state.optimizer)
        run, step = lambda: pt.pretrain(synth_corpora[0], vocab, cfg, hyper, state=state), 7
    else:
        vocab, cfg, params = tiny_setup(dropout_p=0.1)
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)][:24]
        hyper = cl.FinetuneConfig(epochs=1, batch_size=8, lr=1e-2, seed=3, max_len=16)
        monkeypatch.setattr(cl, "AdamW", recording)
        run, step = lambda: cl.finetune(train, [], params, cfg, vocab, "sst5", hyper), 2
    monkeypatch.setattr(ad, "softmax_cross_entropy", poisoned)
    with pytest.raises(FloatingPointError, match=f"loss is nan at step {step}$"):
        run()
    assert before and optimizer_state(made[0]) == before[0]


@pytest.mark.parametrize("seed", [0, 7])
def test_make_rng_streams(seed):
    draw = make_rng(seed, stream=2).random(8)
    np.testing.assert_array_equal(draw, make_rng(seed, stream=2).random(8))
    assert not np.array_equal(draw, make_rng(seed, stream=3).random(8))
    assert not np.array_equal(draw, make_rng(seed).random(8))
