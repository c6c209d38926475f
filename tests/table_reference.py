"""Reference expressions of the optimal profile and of the RK4 step weights.

`memory.OptimalProfile` and `memory.phase_from_coupling` evaluate the same
expressions in place, in the same operation order, and `memory._rk4_weights`
evaluates them as written here; the tests require them to agree with these
bit for bit.
"""

import numpy as np

from phoncirc.errors import ProfileOutOfRange

MAX_COUPLING_RATIO = 4.0
ARCCOS_SLACK = 1e-12


def phase_from_coupling(kappa_ratio):
    arg = np.asarray(kappa_ratio, dtype=float) / 2.0 - 1.0
    if np.any(arg > 1.0 + ARCCOS_SLACK) or np.any(arg < -1.0 - ARCCOS_SLACK):
        raise ProfileOutOfRange("coupling ratio outside [0, 4]")
    out = np.arccos(np.clip(arg, -1.0, 1.0))
    return float(out) if out.ndim == 0 else out


def coupling(profile, tau):
    tau_arr = np.asarray(tau, dtype=float)
    out = np.full(tau_arr.shape, MAX_COUPLING_RATIO)
    late = tau_arr > profile.tau_c
    w = np.exp(-profile.ratio * tau_arr[late])
    out[late] = profile.ratio * w / (profile.a1 - w)
    return float(out) if np.isscalar(tau) else out


def theta(profile, tau):
    return phase_from_coupling(coupling(profile, tau))


def rk4_weights(c, h):
    hc0, hc1, hc2 = h * c[:-1:2], h * c[1::2], h * c[2::2]
    half = 1.0 + 0.5 * hc0
    p = 1.0 + (hc0 + 2.0 * hc1 * half + (2.0 + hc2) * hc1 * (1.0 + 0.5 * hc1 * half)
               + hc2) / 6.0
    beta0 = h / 6.0 * (1.0 + hc1 + 0.25 * (2.0 + hc2) * hc1 * hc1)
    beta1 = h / 6.0 * (2.0 + (2.0 + hc2) * (1.0 + 0.5 * hc1))
    return p, beta0, beta1
