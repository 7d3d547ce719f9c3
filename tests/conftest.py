import numpy as np
import pytest

from retnbody import fields as fl

EPS = np.finfo(np.float64).eps


@pytest.fixture
def total_force(monkeypatch):
    """fields.total_faraday returning (f, batch, bound): bound (n, 4)
    is the rounding bound of f against the single-term oracle
    (q/c) (sum of the field tensors) @ u + g.

    Both sides add the same products in another order, so each component
    of their difference is within (2 m + 20) eps of the sum of the
    magnitudes of those products (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3): m kernel roots of the particle, each
    W (Rt.u) - Rt (W.u) or W Rt - Rt W contracted with u (at most six
    roundings), the sum over roots, external tensor and u (at most m + 5
    more), the factor q/c and g (three more). The magnitudes are
    |q|/c (|F_ext| |u| + sum over roots of |W| (|Rt|.|u|) + |Rt| (|W|.|u|))
    + |g|, g the asymptotic self-force the caller passes (0 in exact mode).
    """
    factors = []

    def recorded(roots, k, u_sign):
        factors.append(kernel(roots, k, u_sign))
        return factors[-1]

    kernel = fl._kernel
    monkeypatch.setattr(fl, "_kernel", recorded)

    def call(histories, now, external, *args, g=0.0, **kwargs):
        factors.clear()
        f, batch = fl.total_faraday(histories, now, external, *args, **kwargs)
        u = np.abs(now.u)
        mag = (np.abs(external.faraday(now.r)) @ u[:, :, None])[:, :, 0]
        m = np.zeros(len(histories))
        if factors:
            plan = batch[0]
            w, rt = (np.abs(x) for x in factors[0])
            u_obs = u[plan.slot]
            np.add.at(mag, plan.slot, w * np.sum(rt * u_obs, axis=1)[:, None]
                      + rt * np.sum(w * u_obs, axis=1)[:, None])
            np.add.at(m, plan.slot, 1.0)
        q_c = np.array([abs(h.spec.q) / h.c for h in histories])
        bound = ((2.0 * m + 20.0) * EPS)[:, None] * (q_c[:, None] * mag + np.abs(g))
        return f, batch, bound

    return call
