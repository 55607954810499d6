"""Diffusion mathematics, independent of any particular denoiser network.

Timesteps are 1-indexed: ``beta[t]``, ``alpha[t]``, ``alpha_bar[t]`` and
``sigma[t]`` are valid for ``t`` in ``1..T`` (index 0 is a placeholder except
``alpha_bar[0] == 1``, which makes the final step to t=0 uniform with the
rest). The corruption at step t is

    x_t = sqrt(alpha_bar[t]) * x0 + sqrt(1 - alpha_bar[t]) * eps

and training minimizes the mean-per-element weighted squared error between
the sampled corrupting noise and the network's prediction of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError


@dataclass(frozen=True)
class NoiseSchedule:
    """Corruption/reversal coefficient tables, immutable and shareable."""

    T: int
    beta: np.ndarray        # beta[1..T]
    alpha: np.ndarray       # 1 - beta
    alpha_bar: np.ndarray   # cumulative product of alpha, alpha_bar[0] = 1
    sigma: np.ndarray       # reverse-step noise scale, sigma[1..T]

    def validate(self):
        b = self.beta[1:]
        if np.any(b <= 0) or np.any(b >= 1):
            raise ValueError("beta values must lie strictly in (0, 1)")
        if np.any(np.diff(self.alpha_bar) >= 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if np.any(self.sigma[1:] < 0):
            raise ValueError("sigma must be nonnegative")

    def to_dict(self) -> dict:
        return {"T": self.T, "beta": self.beta.tolist(),
                "sigma": self.sigma.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSchedule":
        return _assemble(int(d["T"]), np.asarray(d["beta"]),
                         np.asarray(d["sigma"]))


def _assemble(T, beta, sigma) -> NoiseSchedule:
    alpha = 1.0 - beta
    alpha[0] = 1.0
    alpha_bar = np.cumprod(alpha)
    sched = NoiseSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=alpha_bar,
                          sigma=sigma)
    sched.validate()
    return sched


def make_linear_schedule(T: int, beta1: float = 1e-4, betaT: float = 0.02,
                         sigma_mode: str = "beta") -> NoiseSchedule:
    """Linearly spaced beta from ``beta1`` to ``betaT`` over T steps.

    ``sigma_mode="beta"`` sets sigma_t = sqrt(beta_t) for ancestral sampling;
    ``"zero"`` pins sigma to 0 (deterministic reversal).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not (0.0 < beta1 <= betaT < 1.0):
        raise ValueError("need 0 < beta1 <= betaT < 1")
    if sigma_mode not in ("beta", "zero"):
        raise ValueError("sigma_mode must be 'beta' or 'zero'")
    beta = np.zeros(T + 1)
    if T == 1:
        beta[1] = beta1
    else:
        t = np.arange(1, T + 1)
        beta[1:] = beta1 + (t - 1) * (betaT - beta1) / (T - 1)
    sigma = np.sqrt(beta) if sigma_mode == "beta" else np.zeros(T + 1)
    return _assemble(T, beta, sigma)


def _check_t(sched: NoiseSchedule, t: int):
    if not 1 <= t <= sched.T:
        raise ValueError(f"t={t} outside [1, {sched.T}]")


def q_sample(x0, t: int, eps, sched: NoiseSchedule):
    """Forward corruption: sqrt(ab_t) x0 + sqrt(1 - ab_t) eps."""
    _check_t(sched, t)
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    if x0.shape != eps.shape:
        raise ShapeError(f"x0 {x0.shape} vs eps {eps.shape}")
    ab = sched.alpha_bar[t]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def loss_terms(eps_batch, eps_pred_batch, t_batch, sched: NoiseSchedule,
               gamma_mode: str = "uniform") -> float:
    """Mean-per-element weighted squared error between noise and prediction.

    ``gamma_mode="uniform"`` fixes every step weight to 1, the standard
    simplification for noise-prediction training.
    """
    if gamma_mode != "uniform":
        raise ValueError("only gamma_mode='uniform' is implemented")
    eps_batch = np.asarray(eps_batch)
    eps_pred_batch = np.asarray(eps_pred_batch)
    if eps_batch.shape != eps_pred_batch.shape:
        raise ShapeError(f"eps {eps_batch.shape} vs pred {eps_pred_batch.shape}")
    t_batch = np.asarray(t_batch)
    if t_batch.shape != (eps_batch.shape[0],):
        raise ShapeError("t_batch must have one entry per batch item")
    if np.any(t_batch < 1) or np.any(t_batch > sched.T):
        raise ValueError("timesteps outside schedule")
    if not np.all(np.isfinite(eps_pred_batch)):
        raise NumericalError("non-finite prediction in loss")
    diff = eps_batch - eps_pred_batch
    return float(np.mean(diff * diff))


def ddpm_step(x_t, eps_pred, t: int, z, sched: NoiseSchedule):
    """One ancestral reverse step t -> t-1.

    ``z`` must be zeros at t == 1 (the final step is deterministic).
    """
    _check_t(sched, t)
    x_t = np.asarray(x_t)
    eps_pred = np.asarray(eps_pred)
    z = np.asarray(z)
    if t == 1 and np.any(z != 0):
        raise ValueError("the t=1 step takes z = 0")
    a = sched.alpha[t]
    ab = sched.alpha_bar[t]
    mean = (x_t - (sched.beta[t] / np.sqrt(1.0 - ab)) * eps_pred) / np.sqrt(a)
    return mean + sched.sigma[t] * z


def ddim_step(x_t, eps_pred, t: int, t_prev: int, eta: float, z,
              sched: NoiseSchedule):
    """Non-Markovian reverse step t -> t_prev (t_prev may skip many steps).

    eta = 0 is fully deterministic; eta = 1 on consecutive indices matches
    the ancestral update with the posterior noise scale.
    """
    _check_t(sched, t)
    if not 0 <= t_prev < t:
        raise ValueError(f"need 0 <= t_prev < t, got {t_prev} >= {t}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
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
        raise ValueError(f"need 1 <= nis <= T, got nis={nis}, T={T}")
    return [-(-T * (nis - i) // nis) for i in range(nis)]


def sample_batch(denoiser, conds, shape, sched: NoiseSchedule, nis: int,
                 eta: float = 0.0, seeds=()):
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


def scale_from_model(patch_pm1, clamp: bool = False):
    """[-1, 1] model space -> [0, 1]; clamp only at the very end of a
    pipeline, never between steps."""
    out = (np.asarray(patch_pm1) + 1.0) / 2.0
    return np.clip(out, 0.0, 1.0) if clamp else out
