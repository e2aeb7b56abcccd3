"""Adam optimizer with bias-corrected moment estimates.

Update rule per step t (elementwise over each parameter tensor):

    m <- beta1*m + (1-beta1)*g        v <- beta2*v + (1-beta2)*g^2
    m_hat = m / (1 - beta1^t)         v_hat = v / (1 - beta2^t)
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)

beta1, beta2 and eps are the constants below; only the learning rate is a
training hyperparameter here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NonFiniteGradientError

ParamSet = dict[str, np.ndarray]

ADAM_BETA1 = 0.9  # decay of the first-moment estimate
ADAM_BETA2 = 0.999  # decay of the second-moment estimate
ADAM_EPSILON = 1e-8  # added to sqrt(v_hat) in the denominator


@dataclass
class AdamState:
    lr: float = 0.001
    t: int = 0
    m: ParamSet = field(default_factory=dict)
    v: ParamSet = field(default_factory=dict)

    def _ensure_moments(self, params: ParamSet) -> None:
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState) -> None:
    """Apply one update in place to every parameter in `params`.

    Refuses the whole update (state untouched) if any gradient is
    non-finite or shape-incongruent.
    """
    if set(params) != set(grads):
        missing = set(params).symmetric_difference(grads)
        raise ContractError(f"params/grads name mismatch: {sorted(missing)}")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name}"
            )
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient for {name}")

    state._ensure_moments(params)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p[...] = p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
