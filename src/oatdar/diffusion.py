"""Diffusion mathematics, independent of any particular denoiser network.

Training corrupts with the DDPM forward process (Ho et al., arXiv
2006.11239) and sampling reverses it with DDIM steps (Song et al., arXiv
2010.02502): :func:`q_sample` is the one corruption formula and
:func:`ddim_step` the one reverse step. Timesteps are 1-indexed: ``beta[t]``
and ``alpha_bar[t]`` are valid for ``t`` in ``1..T``; index 0 holds
``beta[0] == 0`` and ``alpha_bar[0] == 1``, which makes the final step to
t=0 uniform with the rest. The corruption at step t is

    x_t = sqrt(alpha_bar[t]) * x0 + sqrt(1 - alpha_bar[t]) * eps

and training minimizes the mean squared error between the sampled
corrupting noise and the network's prediction of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable, shareable coefficient tables of a T-step schedule."""

    T: int
    beta: np.ndarray        # beta[1..T], beta[0] = 0
    alpha_bar: np.ndarray   # cumulative product of 1 - beta, alpha_bar[0] = 1


def make_linear_schedule(T: int, beta1: float, betaT: float) -> NoiseSchedule:
    """Linearly spaced beta from ``beta1`` to ``betaT`` over T steps."""
    if T < 1 or not (0.0 < beta1 <= betaT < 1.0):
        raise ConfigError("schedule needs T >= 1 and 0 < beta1 <= betaT < 1, "
                          f"got T={T}, beta1={beta1}, betaT={betaT}")
    beta = np.zeros(T + 1)
    if T == 1:
        beta[1] = beta1
    else:
        t = np.arange(1, T + 1)
        beta[1:] = beta1 + (t - 1) * (betaT - beta1) / (T - 1)
    alpha_bar = np.cumprod(1.0 - beta)
    if np.any(beta[1:] <= 0) or np.any(beta[1:] >= 1):
        raise ConfigError("schedule beta values must lie strictly in (0, 1)")
    if np.any(np.diff(alpha_bar) >= 0):
        raise ConfigError("schedule alpha_bar must be strictly decreasing")
    return NoiseSchedule(T=T, beta=beta, alpha_bar=alpha_bar)


def schedule_from_config(cfg: dict) -> NoiseSchedule:
    """The schedule of ``cfg["schedule"]``'s T, beta1 and betaT alone."""
    s = cfg["schedule"]
    return make_linear_schedule(s["T"], s["beta1"], s["betaT"])


def _check_t(sched: NoiseSchedule, t):
    if np.any(t < 1) or np.any(t > sched.T):
        raise ValueError(f"t={t} outside [1, {sched.T}]")


def q_sample(x0, t, eps, sched: NoiseSchedule):
    """Forward corruption: sqrt(ab_t) x0 + sqrt(1 - ab_t) eps.

    ``t`` is one step for the whole of ``x0`` or an array of one step per
    leading item. The coefficients take ``x0``'s floating dtype (float32 at
    least), so float32 data is corrupted in float32.
    """
    t = np.asarray(t)
    _check_t(sched, t)
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    if x0.shape != eps.shape:
        raise ShapeError(f"x0 {x0.shape} vs eps {eps.shape}")
    if t.shape != x0.shape[:t.ndim]:
        raise ShapeError(f"t {t.shape} vs x0 {x0.shape}")
    dtype = np.result_type(x0.dtype, np.float32)
    ab = sched.alpha_bar[t].reshape(t.shape + (1,) * (x0.ndim - t.ndim))
    return (np.sqrt(ab).astype(dtype) * x0
            + np.sqrt(1.0 - ab).astype(dtype) * eps)


def check_eta(eta: float):
    """The DDIM noise fraction lies in [0, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"eta must be in [0, 1], got {eta}")


def ddim_step(x_t, eps_pred, t: int, t_prev: int, eta: float, z,
              sched: NoiseSchedule):
    """Non-Markovian reverse step t -> t_prev (t_prev may skip many steps).

    eta = 0 is fully deterministic; eta = 1 on consecutive indices matches
    the DDPM ancestral update with the posterior noise scale.
    """
    _check_t(sched, t)
    if not 0 <= t_prev < t:
        raise ValueError(f"need 0 <= t_prev < t, got {t_prev} >= {t}")
    check_eta(eta)
    x_t = np.asarray(x_t)
    eps_pred = np.asarray(eps_pred)
    ab_t = sched.alpha_bar[t]
    ab_p = sched.alpha_bar[t_prev]
    x0_hat = (x_t - np.sqrt(1.0 - ab_t) * eps_pred) / np.sqrt(ab_t)
    sigma = eta * np.sqrt((1.0 - ab_p) / (1.0 - ab_t)) \
        * np.sqrt(1.0 - ab_t / ab_p)
    resid_var = 1.0 - ab_p - sigma * sigma
    if not resid_var >= -1e-12:
        raise NumericalError(f"ddim_step {t}->{t_prev}: sigma^2 exceeds the "
                             f"available variance by {-resid_var:.3e}")
    dir_xt = np.sqrt(max(resid_var, 0.0)) * eps_pred
    out = np.sqrt(ab_p) * x0_hat + dir_xt
    if sigma > 0.0:
        out = out + sigma * np.asarray(z)
    return out


def make_inference_timesteps(T: int, nis: int) -> list:
    """Descending timestep subset for reduced-step inference.

    Uniform stride rule: ``t_i = ceil(T * (nis - i) / nis)`` for
    i = 0..nis-1, which always starts at T, is strictly descending, and ends
    at a positive index whose transition targets t = 0. ``nis == T`` yields
    every step.
    """
    if not 1 <= nis <= T:
        raise ConfigError(f"nis must be in [1, {T}], got {nis}")
    return [-(-T * (nis - i) // nis) for i in range(nis)]


def sample_batch(denoiser, conds, shape, sched: NoiseSchedule, nis: int,
                 eta: float, seeds):
    """Sample patches in lockstep by iterating reduced reverse steps from
    pure noise through one batched denoiser.

    ``denoiser(x_batch, conds, t)`` predicts the corrupting noise, mapping
    (B, H, W) to (B, H, W). Patch b draws its initial noise from a stream
    keyed by (seeds[b], 0) and its step-t injection noise from
    (seeds[b], t), so sampling seeds [s0, s1] in one call equals two
    one-seed calls row for row: the batch dimension only amortizes network
    calls.
    """
    seeds = [int(s) for s in seeds]
    timesteps = make_inference_timesteps(sched.T, nis)
    x = np.stack([
        np.random.default_rng(np.random.SeedSequence((s, 0)))
        .standard_normal(shape) for s in seeds])
    for i, t in enumerate(timesteps):
        t_prev = timesteps[i + 1] if i + 1 < len(timesteps) else 0
        eps_pred = denoiser(x, conds, t)
        if eps_pred.shape != x.shape:
            raise ShapeError(f"denoiser returned {eps_pred.shape}, "
                             f"expected {x.shape}")
        if eta > 0.0:
            z = np.stack([
                np.random.default_rng(np.random.SeedSequence((s, t)))
                .standard_normal(shape) for s in seeds])
        else:
            z = 0.0
        x = ddim_step(x, eps_pred, t, t_prev, eta, z, sched)
    return x


def scale_to_model(patch01):
    """[0, 1] patch -> [-1, 1] model space."""
    return np.asarray(patch01) * 2.0 - 1.0


def scale_from_model(patch_pm1):
    """[-1, 1] model space -> [0, 1], unbounded."""
    return (np.asarray(patch_pm1) + 1.0) / 2.0
