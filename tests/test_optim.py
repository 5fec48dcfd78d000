import numpy as np
import pytest

from treesent.autodiff import Tensor
from treesent.optim import WEIGHT_DECAY, AdamW, make_rng


def lr_per_step(opt, steps):
    return [opt._lr_at(t) for t in range(1, steps + 1)]


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


@pytest.mark.parametrize("seed", [0, 7])
def test_make_rng_streams(seed):
    draw = make_rng(seed, stream=2).random(8)
    np.testing.assert_array_equal(draw, make_rng(seed, stream=2).random(8))
    assert not np.array_equal(draw, make_rng(seed, stream=3).random(8))
    assert not np.array_equal(draw, make_rng(seed).random(8))
