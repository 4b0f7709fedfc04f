"""The shared training loop: convergence, reproducibility, stop rules and
failure reporting."""

import numpy as np
import pytest

from derm_lab.errors import ContractError, TrainingError
from derm_lab.nn import (Tensor, TrainConfig, flatten_grads, flatten_params,
                         scatter_params, train)


def _quadratic_objective(w):
    def objective(it, rng):
        return ((w - 3.0) ** 2.0).sum()
    return objective


def test_converges_on_deterministic_quadratic():
    w = Tensor([10.0], requires_grad=True)
    report = train(_quadratic_objective(w), [w],
                   TrainConfig(batch_size=1, iterations=600, learning_rate=0.05))
    assert abs(w.data[0] - 3.0) < 0.1
    assert report.iterations_run == 600
    assert report.losses.shape == (600,)
    assert report.losses[-1] < report.losses[0]
    assert np.array_equal(report.final_params, w.data)


def test_stochastic_objective_reproducible_by_seed():
    def make():
        w = Tensor([0.5], requires_grad=True)

        def objective(it, rng):
            x = Tensor(rng.standard_normal(64))
            return ((w - x) ** 2.0).mean()

        return w, objective

    w1, obj1 = make()
    r1 = train(obj1, [w1], TrainConfig(batch_size=64, iterations=50, seed=11))
    w2, obj2 = make()
    r2 = train(obj2, [w2], TrainConfig(batch_size=64, iterations=50, seed=11))
    assert np.array_equal(r1.losses, r2.losses)
    assert np.array_equal(w1.data, w2.data)

    w3, obj3 = make()
    r3 = train(obj3, [w3], TrainConfig(batch_size=64, iterations=50, seed=12))
    assert not np.array_equal(r1.losses, r3.losses)


def test_training_error_carries_iteration():
    w = Tensor([1.0], requires_grad=True)

    def objective(it, rng):
        if it == 5:
            return (w * np.nan).sum()
        return (w ** 2.0).sum()

    with pytest.raises(TrainingError) as err:
        train(objective, [w], TrainConfig(batch_size=1, iterations=10))
    assert err.value.iteration == 5


def test_plateau_stop_rule_stops_early():
    w = Tensor([1.0], requires_grad=True)

    # constant loss with a live graph: plateau should cut the run short
    def flat_objective(it, rng):
        return (w * 0.0).sum() + 1.0

    report = train(flat_objective, [w],
                   TrainConfig(batch_size=1, iterations=5000, stop_rule="plateau",
                               plateau_patience=50))
    assert report.iterations_run < 5000


def test_plateau_stop_rule_rejects_tail_averaging():
    # a plateau stop can come before the averaged tail starts
    with pytest.raises(ContractError):
        TrainConfig(batch_size=1, iterations=10, stop_rule="plateau", avg_tail=0.3)
    TrainConfig(batch_size=1, iterations=10, stop_rule="plateau", avg_tail=0.0)


def test_objective_must_return_scalar_tensor():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        train(lambda it, rng: w * 2.0, [w], TrainConfig(batch_size=1, iterations=1))
    with pytest.raises(ContractError):
        train(lambda it, rng: 1.0, [w], TrainConfig(batch_size=1, iterations=1))


@pytest.mark.parametrize("shape", [(1,), (1, 1)])
def test_size1_loss_trains_like_0d_loss(shape):
    def run(loss_shape):
        w = Tensor([0.5], requires_grad=True)

        def objective(it, rng):
            x = Tensor(rng.standard_normal(16))
            return ((w - x) ** 2.0).mean().reshape(loss_shape)

        report = train(objective, [w], TrainConfig(batch_size=16, iterations=20, seed=3))
        return report, w

    r_0d, w_0d = run(())
    r_size1, w_size1 = run(shape)
    assert r_size1.iterations_run == 20
    assert np.array_equal(r_size1.losses, r_0d.losses)
    assert np.array_equal(w_size1.data, w_0d.data)


def test_no_parameters_rejected():
    with pytest.raises(ContractError):
        train(lambda it, rng: Tensor([1.0]), [], TrainConfig(batch_size=1, iterations=1))


def test_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(batch_size=0, iterations=10)
    with pytest.raises(ContractError):
        TrainConfig(batch_size=1, iterations=10, stop_rule="whenever")


def test_flatten_scatter_round_trip():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    vec = flatten_params([a, b])
    assert np.array_equal(vec, np.concatenate([np.arange(6.0), np.arange(3.0)]))
    scatter_params(vec * 2.0, [a, b])
    assert np.array_equal(a.data, np.arange(6.0).reshape(2, 3) * 2.0)
    assert np.array_equal(b.data, np.arange(3.0) * 2.0)


def test_flatten_grads_fills_missing_with_zeros():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (a.sum() * 2.0).backward()
    g = flatten_grads([a, b])
    assert np.array_equal(g, [2.0, 2.0, 0.0, 0.0, 0.0])
