import dataclasses

import numpy as np
import pytest

from oatdar.config import desk_config
from oatdar.diffusion import (ddim_step, make_inference_timesteps,
                              make_linear_schedule, q_sample, sample_batch,
                              scale_from_model, scale_to_model)
from oatdar.errors import ConfigError, NumericalError, ShapeError
from oatdar.models import ConditionalDenoiser, DenoiserConfig, denoise_predict
from oatdar.training import schedule_from_config


@pytest.fixture(scope="module")
def paper_sched():
    return make_linear_schedule(1000, 1e-4, 0.02)


@pytest.fixture(scope="module")
def tiny_sched():
    s = make_linear_schedule(2, 0.1, 0.2)
    assert s.beta[1] == 0.1 and s.beta[2] == pytest.approx(0.2)
    return s


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_linear_schedule_endpoints(paper_sched):
    assert paper_sched.beta[1] == 1e-4
    assert paper_sched.beta[1000] == pytest.approx(0.02, abs=0)
    assert np.all(np.diff(paper_sched.beta[1:]) > 0)


def test_single_step_schedule():
    s = make_linear_schedule(1, 1e-4, 0.02)
    assert s.T == 1
    assert s.beta[1] == 1e-4


def test_alpha_bar_strictly_decreasing_and_small(paper_sched):
    ab = paper_sched.alpha_bar
    assert np.all(np.diff(ab) < 0)
    # independent product loop
    prod = 1.0
    for t in range(1, 1001):
        prod *= 1.0 - paper_sched.beta[t]
        assert abs(ab[t] - prod) <= 1e-12 * prod + 1e-300
    assert ab[1000] < 5e-5


def test_alpha_bar_telescopes(paper_sched):
    ab = paper_sched.alpha_bar
    alpha = 1.0 - paper_sched.beta
    for t in (1, 2, 500, 1000):
        assert abs(ab[t] - ab[t - 1] * alpha[t]) <= 1e-15 * ab[t]
    # log-domain recomputation
    logs = np.cumsum(np.log(alpha[1:]))
    assert np.allclose(np.exp(logs), ab[1:], rtol=1e-12)


@pytest.mark.parametrize("kw", [
    dict(T=0), dict(T=10, beta1=0.0), dict(T=10, beta1=0.3, betaT=0.2),
    dict(T=10, beta1=1e-4, betaT=1.0),
])
def test_schedule_rejects(kw):
    with pytest.raises(ValueError):
        make_linear_schedule(**{"beta1": 1e-4, "betaT": 0.02, **kw})


def test_schedule_rejects_a_beta_lost_to_rounding():
    """1 - 1e-20 rounds to 1, so alpha_bar does not decrease at step 1."""
    with pytest.raises(ConfigError, match="strictly decreasing"):
        make_linear_schedule(10, 1e-20, 0.02)


# ---------------------------------------------------------------------------
# q_sample
# ---------------------------------------------------------------------------

def test_q_sample_zero_noise(paper_sched):
    x0 = np.full((4, 4), 0.5)
    out = q_sample(x0, 17, np.zeros((4, 4)), paper_sched)
    assert np.allclose(out, np.sqrt(paper_sched.alpha_bar[17]) * x0)


def test_q_sample_zero_signal(paper_sched):
    eps = np.random.default_rng(0).standard_normal((4, 4))
    out = q_sample(np.zeros((4, 4)), 900, eps, paper_sched)
    assert np.allclose(out, np.sqrt(1 - paper_sched.alpha_bar[900]) * eps)


def test_q_sample_hand_value(tiny_sched):
    # alpha_bar(2) = 0.9 * 0.8 = 0.72
    got = q_sample(np.array(1.0), 2, np.array(1.0), tiny_sched)
    want = np.sqrt(0.9 * 0.8) + np.sqrt(1.0 - 0.9 * 0.8)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(1.37768, abs=1e-4)


def test_q_sample_validation(paper_sched):
    with pytest.raises(ShapeError):
        q_sample(np.zeros(3), 1, np.zeros(4), paper_sched)
    with pytest.raises(ValueError):
        q_sample(np.zeros(3), 0, np.zeros(3), paper_sched)
    with pytest.raises(ValueError):
        q_sample(np.zeros(3), 1001, np.zeros(3), paper_sched)
    x = np.zeros((3, 2, 2))     # one step per leading item
    with pytest.raises(ValueError):
        q_sample(x, np.array([1, 0, 5]), x, paper_sched)
    with pytest.raises(ShapeError):
        q_sample(x, np.array([1, 2]), x, paper_sched)


def test_q_sample_batched_matches_inline_expression(paper_sched):
    """One step per leading item equals indexing float32 tables of the
    coefficients, bit for bit, and each row equals a one-step call."""
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-1, 1, (6, 1, 4, 4)).astype(np.float32)
    eps = rng.standard_normal((6, 1, 4, 4), dtype=np.float32)
    t = rng.integers(1, 1001, size=6)
    sqrt_ab = np.sqrt(paper_sched.alpha_bar).astype(np.float32)
    sqrt_1mab = np.sqrt(1.0 - paper_sched.alpha_bar).astype(np.float32)
    want = (sqrt_ab[t][:, None, None, None] * x0
            + sqrt_1mab[t][:, None, None, None] * eps)
    got = q_sample(x0, t, eps, paper_sched)
    assert got.dtype == np.float32
    assert np.array_equal(got, want)
    for b in range(6):
        assert np.allclose(got[b], q_sample(x0[b].astype(np.float64), t[b],
                                            eps[b], paper_sched), atol=1e-6)


def test_q_sample_moment_law(paper_sched):
    rng = np.random.default_rng(1)
    x0 = 0.3
    n = 100_000
    for t in (1, 500, 1000):
        eps = rng.standard_normal(n)
        draws = q_sample(np.full(n, x0), t, eps, paper_sched)
        ab = paper_sched.alpha_bar[t]
        mean_se = np.sqrt((1 - ab) / n)
        var_se = (1 - ab) * np.sqrt(2.0 / (n - 1))
        assert abs(draws.mean() - np.sqrt(ab) * x0) <= 3 * mean_se
        assert abs(draws.var(ddof=1) - (1 - ab)) <= 3 * var_se


# ---------------------------------------------------------------------------
# reverse steps
# ---------------------------------------------------------------------------

def test_ddim_perfect_denoiser_inverts(paper_sched):
    rng = np.random.default_rng(6)
    for _ in range(100):
        x0 = rng.standard_normal((4, 4))
        t = int(rng.integers(1, 1001))
        eps = rng.standard_normal((4, 4))
        xt = q_sample(x0, t, eps, paper_sched)
        back = ddim_step(xt, eps, t, 0, 0.0, None, paper_sched)
        assert np.abs(back - x0).max() <= 1e-10


def test_ddim_eta_zero_ignores_z(paper_sched):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3))
    e = rng.standard_normal((3, 3))
    a = ddim_step(x, e, 800, 500, 0.0, rng.standard_normal((3, 3)), paper_sched)
    b = ddim_step(x, e, 800, 500, 0.0, rng.standard_normal((3, 3)), paper_sched)
    assert np.array_equal(a, b)


def test_ddim_eta_one_matches_ancestral(paper_sched):
    # DDPM ancestral step (Ho et al.) with the posterior noise scale
    beta = paper_sched.beta
    rng = np.random.default_rng(8)
    for _ in range(100):
        t = int(rng.integers(2, 1001))
        x = float(rng.standard_normal())
        e = float(rng.standard_normal())
        z = float(rng.standard_normal())
        ab_t = paper_sched.alpha_bar[t]
        ab_p = paper_sched.alpha_bar[t - 1]
        sig = np.sqrt((1 - ab_p) / (1 - ab_t)) * np.sqrt(1 - ab_t / ab_p)
        want = (x - beta[t] / np.sqrt(1 - ab_t) * e) / np.sqrt(1 - beta[t]) \
            + sig * z
        got = ddim_step(np.array(x), np.array(e), t, t - 1, 1.0,
                        np.array(z), paper_sched)
        assert abs(float(got) - want) <= 1e-10 * max(1.0, abs(want))


def test_ddim_variance_overflow_raises_numerical_error(paper_sched):
    # a corrupt table (alpha_bar 0.5 -> -1) asks for sigma^2 = 0.75 where
    # only 1 - alpha_bar = 0.5 of variance is available; an assert would
    # vanish under python -O
    ab = paper_sched.alpha_bar.copy()
    ab[3], ab[5] = 0.5, -1.0
    bad = dataclasses.replace(paper_sched, alpha_bar=ab)
    x = np.zeros((2, 2))
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalError, match="variance"):
        ddim_step(x, x, 5, 3, 1.0, x, bad)


def test_ddim_validation(paper_sched):
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        ddim_step(x, x, 5, 5, 0.0, None, paper_sched)
    with pytest.raises(ValueError):
        ddim_step(x, x, 5, 2, 1.5, None, paper_sched)


# ---------------------------------------------------------------------------
# timestep subsets
# ---------------------------------------------------------------------------

def test_timesteps_full():
    assert make_inference_timesteps(1000, 1000) == list(range(1000, 0, -1))


def test_timesteps_five_of_1000():
    ts = make_inference_timesteps(1000, 5)
    assert len(ts) == 5
    assert ts[0] == 1000
    assert all(a > b for a, b in zip(ts, ts[1:]))
    assert ts[-1] >= 1


def test_timesteps_stride_oracle():
    # independent reimplementation of the declared ceil-stride rule
    for T, nis in ((10, 5), (10, 3), (1000, 25), (7, 7), (13, 1), (200, 25)):
        want = [int(np.ceil(T * (nis - i) / nis)) for i in range(nis)]
        assert make_inference_timesteps(T, nis) == want
    assert make_inference_timesteps(10, 5) == [10, 8, 6, 4, 2]


def test_timesteps_validation():
    with pytest.raises(ValueError):
        make_inference_timesteps(10, 0)
    with pytest.raises(ValueError):
        make_inference_timesteps(10, 11)


# ---------------------------------------------------------------------------
# sampling loop
# ---------------------------------------------------------------------------

def _oracle_denoiser(x0):
    """Returns the exact noise that q_sample used to reach x_t from x0."""

    def denoise(x_t, cond, t, sched):
        ab = sched.alpha_bar[t]
        return (x_t - np.sqrt(ab) * x0) / np.sqrt(1.0 - ab)

    return denoise


@pytest.mark.parametrize("nis", [1, 5, 25, 200])
def test_sample_with_oracle_denoiser_recovers_x0(paper_sched, nis):
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((6, 6))
    oracle = _oracle_denoiser(x0)
    out = sample_batch(lambda x, c, t: oracle(x, c, t, paper_sched), None,
                       (6, 6), paper_sched, nis=nis, eta=0.0, seeds=[3, 4])
    assert out.shape == (2, 6, 6)
    assert np.abs(out - x0).max() <= 1e-8


def test_sample_deterministic_given_seed(paper_sched):
    x0 = np.random.default_rng(10).standard_normal((4, 4))
    oracle = _oracle_denoiser(x0)
    fn = lambda x, c, t: oracle(x, c, t, paper_sched)
    a = sample_batch(fn, None, (4, 4), paper_sched, nis=5, eta=0.0, seeds=[1])
    b = sample_batch(fn, None, (4, 4), paper_sched, nis=5, eta=0.0, seeds=[1])
    assert np.array_equal(a, b)
    c = sample_batch(fn, None, (4, 4), paper_sched, nis=5, eta=0.0, seeds=[2])
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("eta", [0.0, 0.7])
def test_sample_batch_rows_equal_one_seed_calls(paper_sched, eta):
    """Row b of a batched call is the one-seed call on seeds[b]: the batch
    only amortizes network calls."""
    seeds = [5, 17, 2**40 + 3]
    conds = np.array([0.1, -0.2, 0.3])

    def fn(x, c, t):
        return 0.5 * np.tanh(x + c[:, None, None])

    batch = sample_batch(fn, conds, (4, 4), paper_sched, nis=25, eta=eta,
                         seeds=seeds)
    for b, s in enumerate(seeds):
        (one,) = sample_batch(fn, conds[b:b + 1], (4, 4), paper_sched,
                              nis=25, eta=eta, seeds=[s])
        assert np.array_equal(batch[b], one)
    assert not np.array_equal(batch[0], batch[1])


@pytest.mark.parametrize("eta", [0.0, 0.7])
def test_sample_batch_desk_denoiser_rows_match_one_seed_calls(eta):
    """The same through the desk denoiser at its seeded initial weights
    (zero training epochs), as DAR calls it. BLAS blocking may change the
    last float32 bits with the batch size, so rows agree within float32
    round-off rather than bit for bit; the absolute floor covers entries
    near zero."""
    cfg = desk_config()
    model = ConditionalDenoiser(
        DenoiserConfig.from_dict(cfg["denoiser"])).freeze()
    sched = schedule_from_config(cfg)
    shape = (cfg["patch"]["h"], cfg["patch"]["w"])
    conds = np.random.default_rng(0).random((8, model.cfg.cond_dim))
    seeds = list(range(100, 108))

    def fn(x, c, t):
        return denoise_predict(model, x, c, t).astype(np.float64)

    batch = sample_batch(fn, conds, shape, sched, nis=5, eta=eta, seeds=seeds)
    ones = np.concatenate([
        sample_batch(fn, conds[b:b + 1], shape, sched, nis=5, eta=eta,
                     seeds=[s]) for b, s in enumerate(seeds)])
    np.testing.assert_allclose(batch, ones, rtol=1e-5, atol=1e-5)
    assert not np.allclose(batch[0], batch[1])


def test_sample_rejects_bad_denoiser_shape(paper_sched):
    with pytest.raises(ShapeError):
        sample_batch(lambda x, c, t: np.zeros((1, 2, 2)), None, (4, 4),
                     paper_sched, nis=2, eta=0.0, seeds=[0])


def test_model_space_scaling():
    x = np.array([0.0, 0.5, 1.0])
    m = scale_to_model(x)
    assert np.array_equal(m, [-1.0, 0.0, 1.0])
    assert np.array_equal(scale_from_model(m), x)
