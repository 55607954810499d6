import dataclasses

import numpy as np
import pytest

from oatdar.diffusion import (NoiseSchedule, ddim_step, ddpm_step, loss_terms,
                              make_inference_timesteps, make_linear_schedule,
                              q_sample, sample_batch, scale_from_model,
                              scale_to_model)
from oatdar.errors import NumericalError, ShapeError


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
    for t in (1, 2, 500, 1000):
        assert abs(ab[t] - ab[t - 1] * paper_sched.alpha[t]) <= 1e-15 * ab[t]
    # log-domain recomputation
    logs = np.cumsum(np.log(paper_sched.alpha[1:]))
    assert np.allclose(np.exp(logs), ab[1:], rtol=1e-12)


def test_sigma_modes():
    sb = make_linear_schedule(10, 1e-3, 0.1, sigma_mode="beta")
    assert np.allclose(sb.sigma[1:], np.sqrt(sb.beta[1:]))
    sz = make_linear_schedule(10, 1e-3, 0.1, sigma_mode="zero")
    assert not np.any(sz.sigma)


@pytest.mark.parametrize("kw", [
    dict(T=0), dict(T=10, beta1=0.0), dict(T=10, beta1=0.3, betaT=0.2),
    dict(T=10, beta1=1e-4, betaT=1.0), dict(T=10, sigma_mode="huh"),
])
def test_schedule_rejects(kw):
    with pytest.raises(ValueError):
        make_linear_schedule(**{"beta1": 1e-4, "betaT": 0.02, **kw})


def test_schedule_dict_roundtrip(paper_sched):
    back = NoiseSchedule.from_dict(paper_sched.to_dict())
    assert back.T == paper_sched.T
    assert np.array_equal(back.beta, paper_sched.beta)
    assert np.array_equal(back.alpha_bar, paper_sched.alpha_bar)


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
# loss
# ---------------------------------------------------------------------------

def test_loss_zero_for_exact_prediction(paper_sched):
    eps = np.random.default_rng(2).standard_normal((8, 16))
    t = np.full(8, 3)
    assert loss_terms(eps, eps.copy(), t, paper_sched) == 0.0


def test_loss_all_ones_convention(paper_sched):
    # all-ones noise, zero prediction, mean-per-element reduction -> 1
    eps = np.ones((4, 25))
    assert loss_terms(eps, np.zeros_like(eps), np.full(4, 9),
                      paper_sched) == pytest.approx(1.0)


def test_loss_matches_scalar_loop(paper_sched):
    rng = np.random.default_rng(3)
    eps = rng.standard_normal((6, 5, 5))
    pred = rng.standard_normal((6, 5, 5))
    t = rng.integers(1, 1001, size=6)
    got = loss_terms(eps, pred, t, paper_sched)
    acc = 0.0
    for idx in np.ndindex(*eps.shape):
        acc += (eps[idx] - pred[idx]) ** 2
    assert got == pytest.approx(acc / eps.size, rel=1e-12)


def test_loss_validation(paper_sched):
    eps = np.ones((2, 4))
    with pytest.raises(ShapeError):
        loss_terms(eps, np.ones((2, 5)), np.ones(2, dtype=int), paper_sched)
    with pytest.raises(ShapeError):
        loss_terms(eps, eps, np.ones(3, dtype=int), paper_sched)
    bad = eps.copy()
    bad[0, 0] = np.nan
    with pytest.raises(NumericalError):
        loss_terms(eps, bad, np.ones(2, dtype=int), paper_sched)


# ---------------------------------------------------------------------------
# reverse steps
# ---------------------------------------------------------------------------

def test_ddpm_final_step_deterministic(paper_sched):
    x = np.random.default_rng(4).standard_normal((3, 3))
    a = ddpm_step(x, 0.1 * x, 1, np.zeros_like(x), paper_sched)
    b = ddpm_step(x, 0.1 * x, 1, np.zeros_like(x), paper_sched)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        ddpm_step(x, x, 1, np.ones_like(x), paper_sched)


def test_ddpm_zero_prediction_rescales(paper_sched):
    x = np.random.default_rng(5).standard_normal((3, 3))
    out = ddpm_step(x, np.zeros_like(x), 50, np.zeros_like(x), paper_sched)
    assert np.allclose(out, x / np.sqrt(paper_sched.alpha[50]))


def test_ddpm_hand_value(tiny_sched):
    # (1/sqrt(0.8)) * (1 - (0.2/sqrt(0.28)) * 0.5) = 0.9067454...
    got = ddpm_step(np.array(1.0), np.array(0.5), 2, np.array(0.0), tiny_sched)
    want = (1.0 - (0.2 / np.sqrt(1.0 - 0.72)) * 0.5) / np.sqrt(0.8)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.90675, abs=1e-5)


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
    rng = np.random.default_rng(8)
    for _ in range(100):
        t = int(rng.integers(2, 1001))
        x = float(rng.standard_normal())
        e = float(rng.standard_normal())
        z = float(rng.standard_normal())
        ab_t = paper_sched.alpha_bar[t]
        ab_p = paper_sched.alpha_bar[t - 1]
        sig = np.sqrt((1 - ab_p) / (1 - ab_t)) * np.sqrt(1 - ab_t / ab_p)
        matched = dataclasses.replace(
            paper_sched, sigma=np.full_like(paper_sched.sigma, sig))
        got = ddim_step(np.array(x), np.array(e), t, t - 1, 1.0,
                        np.array(z), paper_sched)
        want = ddpm_step(np.array(x), np.array(e), t, np.array(z), matched)
        assert abs(float(got) - float(want)) <= 1e-10 * max(1.0, abs(float(want)))


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


def test_sample_rejects_bad_denoiser_shape(paper_sched):
    with pytest.raises(ShapeError):
        sample_batch(lambda x, c, t: np.zeros((1, 2, 2)), None, (4, 4),
                     paper_sched, nis=2, seeds=[0])


def test_model_space_scaling():
    x = np.array([0.0, 0.5, 1.0])
    m = scale_to_model(x)
    assert np.array_equal(m, [-1.0, 0.0, 1.0])
    assert np.array_equal(scale_from_model(m), x)
    assert np.array_equal(scale_from_model(np.array([-3.0, 3.0]), clamp=True),
                          [0.0, 1.0])
