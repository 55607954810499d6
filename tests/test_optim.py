"""Adam: hand-computed steps, float64 moments, all-or-nothing updates and
a checkpoint round trip that continues bit for bit."""

import numpy as np
import pytest

from oatdar.errors import ConfigError, NumericalError
from oatdar.optim import ADAM_BETA1, ADAM_BETA2, OptimizerState, adam_update
from oatdar.tensorfile import read_bundle, write_bundle


def test_two_steps_match_hand_computed_adam():
    p = {"a": np.array([1.0, -2.0])}
    assert (ADAM_BETA1, ADAM_BETA2) == (0.9, 0.999)
    st = OptimizerState(learning_rate=0.1)
    adam_update(p, {"a": np.array([0.5, 0.0])}, st)
    # step 1: m = 0.05, v = 2.5e-4; m/(1-0.9) = 0.5, v/(1-0.999) = 0.25
    a1 = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert p["a"][0] == pytest.approx(a1, rel=1e-15, abs=0)
    assert p["a"][0] == pytest.approx(0.9, abs=1e-8)
    assert p["a"][1] == -2.0            # zero gradient, zero moments
    adam_update(p, {"a": np.array([-0.25, 0.0])}, st)
    # step 2: m = 0.9*0.05 - 0.1*0.25 = 0.02, v = 0.999*2.5e-4 + 1e-3*0.0625
    m_hat = 0.02 / (1.0 - 0.9 ** 2)
    v_hat = (0.999 * 2.5e-4 + 1e-3 * 0.0625) / (1.0 - 0.999 ** 2)
    a2 = a1 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p["a"][0] == pytest.approx(a2, rel=1e-14, abs=0)
    assert p["a"][0] == pytest.approx(0.873366, abs=1e-6)
    assert st.step == 2
    assert st.m["a"][0] == pytest.approx(0.02, rel=1e-14)


@pytest.mark.parametrize("kw", [
    dict(learning_rate=np.nan), dict(learning_rate=0.0),
    dict(learning_rate=np.inf),
])
def test_state_rejects_bad_hyperparameters(kw):
    with pytest.raises(ConfigError):
        OptimizerState(**kw)


def test_float32_parameters_keep_float64_moments():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((3, 4)).astype(np.float32)
    g = rng.standard_normal((3, 4)).astype(np.float32)
    p = {"w": w0.copy()}
    st = OptimizerState(learning_rate=1e-3)
    adam_update(p, {"w": g}, st)
    assert p["w"].dtype == np.float32
    assert st.m["w"].dtype == st.v["w"].dtype == np.float64
    g64 = g.astype(np.float64)
    m = (1.0 - 0.9) * g64
    v = (1.0 - 0.999) * g64 * g64
    step = 1e-3 * (m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)
    assert np.array_equal(st.m["w"], m)
    assert np.array_equal(p["w"], w0 - step.astype(np.float32))


def test_non_finite_gradient_changes_nothing():
    p = {"a": np.array([1.0]), "b": np.array([1.0])}
    st = OptimizerState(learning_rate=0.1)
    adam_update(p, {"a": np.array([0.5]), "b": np.array([0.5])}, st)
    before = ({k: v.copy() for k, v in p.items()},
              {k: v.copy() for k, v in st.m.items()},
              {k: v.copy() for k, v in st.v.items()})
    with pytest.raises(NumericalError, match="b"):
        adam_update(p, {"a": np.array([0.5]), "b": np.array([np.nan])}, st)
    assert st.step == 1
    for saved, now in zip(before, (p, st.m, st.v)):
        assert saved.keys() == now.keys()
        for k in saved:
            assert np.array_equal(saved[k], now[k]), k
    fresh = OptimizerState()
    q = {"a": np.array([1.0]), "b": np.array([1.0])}
    with pytest.raises(NumericalError):
        adam_update(q, {"a": np.array([0.5]), "b": np.array([np.inf])}, fresh)
    assert fresh.step == 0 and fresh.m == {} and q["a"][0] == 1.0


def test_state_round_trip_continues_bit_for_bit(tmp_path):
    rng = np.random.default_rng(1)
    grads = [{"w": rng.standard_normal((2, 3)).astype(np.float32),
              "b": rng.standard_normal(3)} for _ in range(4)]
    p = {"w": rng.standard_normal((2, 3)).astype(np.float32),
         "b": np.zeros(3)}
    st = OptimizerState(learning_rate=1e-2)
    for g in grads[:2]:
        adam_update(p, g, st)
    write_bundle(tmp_path / "opt", {**{f"p.{k}": v for k, v in p.items()},
                                    **{f"o.{k}": v for k, v in
                                       st.state_arrays().items()}})
    arrays, _ = read_bundle(tmp_path / "opt")
    q = {k[2:]: v for k, v in arrays.items() if k.startswith("p.")}
    resumed = OptimizerState(learning_rate=1e-2)
    resumed.load_state_arrays({k[2:]: v for k, v in arrays.items()
                               if k.startswith("o.")}, st.step)
    for g in grads[2:]:
        adam_update(p, g, st)
        adam_update(q, g, resumed)
    assert resumed.step == st.step == 4
    for k in p:
        assert q[k].dtype == p[k].dtype
        assert np.array_equal(q[k], p[k])
        assert np.array_equal(resumed.m[k], st.m[k])
        assert np.array_equal(resumed.v[k], st.v[k])
