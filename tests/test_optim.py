import numpy as np
import pytest

from treesent.autodiff import Tensor
from treesent.optim import BETAS, EPS, WEIGHT_DECAY, AdamW, make_rng


def lr_per_step(opt, steps):
    return [opt._lr_at(t) for t in range(1, steps + 1)]


class ReferenceAdamW:
    """The per-tensor update the arena replaced: a loop over the tensors,
    a dozen temporaries each. Its parameters, ``m`` and ``v`` are the
    oracle the arena must match bit for bit."""

    def __init__(self, params, lr, total_steps=None):
        self.params = dict(params)
        self.schedule = AdamW({}, lr, total_steps=total_steps)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        lr = self.schedule._lr_at(self.t)
        b1, b2 = BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
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


SHAPES = {"emb": (13, 8), "ln.g": (8,), "w": (8, 3, 2), "skip": (5,), "b": (3,),
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


def test_parameter_without_gradient_is_left_alone():
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    q = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = AdamW({"p": p, "q": q}, 0.1)
    p.grad = np.zeros(3, dtype=np.float32)
    opt.step()
    # a zero gradient still decays p; q had no gradient and is untouched
    np.testing.assert_allclose(p.data, 1.0 - 0.1 * WEIGHT_DECAY, rtol=1e-6)
    np.testing.assert_array_equal(q.data, np.ones(3, dtype=np.float32))
    assert not opt.m["q"].any() and not opt.v["q"].any()


@pytest.mark.parametrize("total_steps", [None, 12])
def test_arena_matches_per_tensor_reference(total_steps):
    mine, theirs = twin_params(5)
    opt = AdamW(mine, 3e-2, total_steps=total_steps)
    ref = ReferenceAdamW(theirs, 3e-2, total_steps=total_steps)
    rng = make_rng(6)
    for step in range(12):
        # "skip" never has a gradient; "b" misses every third step, which
        # splits the update into several runs; the gradients are fresh
        # arrays, of any memory layout, that both optimizers read
        for name, shape in SHAPES.items():
            if name == "skip" or (name == "b" and step % 3 == 0):
                mine[name].grad = theirs[name].grad = None
                continue
            g = (rng.standard_normal(shape[::-1]).astype(np.float32).T
                 * np.float32(10.0 ** (step % 4 - 2)))
            mine[name].grad, theirs[name].grad = g, g.copy()
        opt.step()
        ref.step()
        for name in SHAPES:
            assert_bitwise_equal(mine[name].data, theirs[name].data)
            assert_bitwise_equal(opt.m[name], ref.m[name])
            assert_bitwise_equal(opt.v[name], ref.v[name])
    assert not opt.m["skip"].any() and not opt.v["skip"].any()
    assert opt.m["b"].any()


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
    params["w"].data = params["w"].data.copy()  # detaches w from the arena
    params["emb"].grad = np.ones(SHAPES["emb"], dtype=np.float32)
    with pytest.raises(RuntimeError, match="parameter w"):
        opt.step()
    # writing into the view is the way to replace values
    params, _ = twin_params(8)
    opt = AdamW(params, 0.1)
    params["w"].data[...] = 0.5
    params["w"].grad = np.ones(SHAPES["w"], dtype=np.float32)
    opt.step()
    assert (params["w"].data < 0.5).all()


@pytest.mark.parametrize("seed", [0, 7])
def test_make_rng_streams(seed):
    draw = make_rng(seed, stream=2).random(8)
    np.testing.assert_array_equal(draw, make_rng(seed, stream=2).random(8))
    assert not np.array_equal(draw, make_rng(seed, stream=3).random(8))
    assert not np.array_equal(draw, make_rng(seed).random(8))
