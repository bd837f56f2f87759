"""Dual-diffusion derivation from the change of numeraire."""

import math

import numpy as np
import pytest

from dualfx.sde import DiffusionModel, derive_dual_model


def _model(sigma, x0=1.0, horizon=1.0):
    return DiffusionModel(name="m", sigma=sigma, x0=x0, horizon=horizon)


def test_quadratic_rate_dualizes_to_unit_volatility():
    dual = derive_dual_model(_model(lambda x, t: x * x, x0=2.0))
    assert dual.x0 == 0.5
    ys = np.linspace(0.05, 5.0, 40)
    assert np.allclose(dual.sigma(ys, 0.3), 1.0, rtol=1e-12)


def test_time_singular_rate_dualizes_with_square():
    T = 1.0
    dual = derive_dual_model(
        _model(lambda x, t: np.full_like(np.asarray(x, float),
                                         1.0 / math.sqrt(T - t))))
    ys = np.linspace(0.1, 3.0, 20)
    for t in (0.0, 0.5, 0.96):
        assert np.allclose(dual.sigma(ys, t), ys ** 2 / math.sqrt(T - t),
                           rtol=1e-12)


def test_proportional_rate_is_self_dual():
    v = 0.37
    dual = derive_dual_model(_model(lambda x, t: v * np.asarray(x, float)))
    ys = np.linspace(0.01, 8.0, 30)
    assert np.allclose(dual.sigma(ys, 0.0), v * ys, rtol=1e-12)


def test_dual_start_is_reciprocal_spot():
    for x0 in (0.25, 1.0, 3.0):
        assert derive_dual_model(_model(lambda x, t: 1.0, x0=x0)).x0 \
            == pytest.approx(1.0 / x0)
