"""Adaptive-moment gradient updates with bias correction. A config sets only
the learning rate; the decays and epsilon are the standard Adam values
(Kingma & Ba, arXiv 1412.6980), the constants below."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError

ADAM_BETA1 = 0.9    # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8     # added to the root of the second moment


@dataclass
class OptimizerState:
    learning_rate: float = 1e-4
    step: int = 0
    m: dict = field(default_factory=dict)   # first-moment accumulators
    v: dict = field(default_factory=dict)   # second-moment accumulators

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("Adam needs a finite learning_rate > 0, got "
                              f"{self.learning_rate}")

    def ensure(self, params: dict):
        for k, p in params.items():
            if k not in self.m:
                self.m[k] = np.zeros_like(p, dtype=np.float64)
                self.v[k] = np.zeros_like(p, dtype=np.float64)

    def state_arrays(self) -> dict:
        out = {}
        for k in self.m:
            out["m." + k] = self.m[k]
            out["v." + k] = self.v[k]
        return out

    def load_state_arrays(self, arrays: dict, step: int):
        self.m = {k[2:]: v for k, v in arrays.items() if k.startswith("m.")}
        self.v = {k[2:]: v for k, v in arrays.items() if k.startswith("v.")}
        self.step = step


def adam_update(params: dict, grads: dict, state: OptimizerState):
    """One optimizer step over name-keyed arrays; updates in place and
    returns (params, state). Moments are kept in float64 regardless of the
    parameter dtype. A non-finite gradient raises :class:`NumericalError`
    before any parameter, moment or the step count changes."""
    for k in params:
        if not np.all(np.isfinite(grads[k])):
            raise NumericalError(f"non-finite gradient for {k}")
    state.ensure(params)
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for k, p in params.items():
        g = np.asarray(grads[k], dtype=np.float64)
        m = state.m[k]
        v = state.v[k]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        step = state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p -= step.astype(p.dtype)
    return params, state
