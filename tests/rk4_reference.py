"""Reference transfer integrators: classical RK4, one Python step at a time.

These are the per-step loops that ``phoncirc.memory`` used before its
integrator became a block linear recurrence.  They are kept verbatim as the
oracle for ``test_rk4_reference.py``: the block recurrence must reproduce
their fidelities, loss fractions and amplitudes to rounding.
"""

from __future__ import annotations

import numpy as np

from phoncirc.errors import HistoryUnderrun, IntegrationError
from phoncirc.memory import (_DEFAULT_STEP, TransferConfig, TransferResult,
                             _delay_step, _ode_step_count)


def simulate_transfer(config: TransferConfig, profile, step: float | None = None) -> TransferResult:
    """Integrate the delay-free transfer and return |A(horizon)|^2 and losses.

    `profile` is anything with a vectorizable ``theta(tau)`` (an
    :class:`OptimalProfile` or :class:`SampledProfile`).
    """
    rho = config.ratio
    ki = config.kappa_i / config.kappa_e
    h = _DEFAULT_STEP if step is None else float(step)
    n = _ode_step_count(config.horizon, h)
    # coefficients on the half-step grid; RK4 stages only ever sample there
    tg = np.arange(2 * n + 1) * (h / 2.0)
    chalf = np.cos(np.asarray(profile.theta(tg), dtype=float) / 2.0)
    decay = 0.5 * (4.0 * chalf**2 + ki)
    pump = np.sqrt(rho) * np.exp(-0.5 * rho * tg)
    drive = 2.0 * chalf * pump
    amp = np.empty(n + 1, dtype=complex)
    amp[0] = 0.0
    a = 0.0 + 0.0j
    refl = 0.0
    intr = 0.0

    def rhs(j, aj):
        da = -decay[j] * aj - drive[j]
        out = pump[j] + 2.0 * chalf[j] * aj
        return da, (out.real * out.real + out.imag * out.imag), abs(aj) ** 2

    for i in range(n):
        m = 2 * i
        k1, r1, q1 = rhs(m, a)
        k2, r2, q2 = rhs(m + 1, a + 0.5 * h * k1)
        k3, r3, q3 = rhs(m + 1, a + 0.5 * h * k2)
        k4, r4, q4 = rhs(m + 2, a + h * k3)
        a = a + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        refl += h / 6.0 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        intr += ki * h / 6.0 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        amp[i + 1] = a
    if not np.isfinite(a.real) or not np.isfinite(a.imag):
        raise IntegrationError("non-finite amplitude; reduce the step size")
    return TransferResult(fidelity=abs(a) ** 2, tau=np.arange(n + 1) * h,
                          amplitude=amp, reflected_fraction=refl,
                          intrinsic_fraction=intr)


def _integrate_delay(profile, rho: float, ki: float, lag: float,
                     dm_tau: np.ndarray, dc_tau: np.ndarray, horizon: float,
                     step: float | None, record: bool):
    """Vectorized retarded integration over a (dm, dc) lag grid.

    Returns (fidelity_grid, tau, amplitude, reflected, intrinsic); the last
    three are None unless `record` (single-cell mode).
    """
    h, n_sub = _delay_step(lag, step)
    n = _ode_step_count(horizon, h)
    nm, nc = len(dm_tau), len(dc_tau)

    theta = profile.theta
    tg = np.arange(2 * n + 1) * (h / 2.0)
    # scalar (per-time) coefficient tables on the half-step grid
    e_dir = np.exp(-0.5j * np.asarray(theta(tg), dtype=float))
    pump = np.sqrt(rho) * np.exp(-0.5 * rho * tg)
    drive = e_dir * pump
    td = tg - lag
    # the retarded input enters through the exact shifted exponential
    pump_del = np.sqrt(rho) * np.exp(-0.5 * rho * td)
    echo_in = np.exp(-0.5j * np.asarray(theta(td), dtype=float)) * pump_del
    # per-lag coefficient tables (outer-product structure of the grid)
    sin_dc = np.sin(np.asarray(theta(tg[:, None] - dc_tau[None, :]), dtype=float))
    coef = 1j * sin_dc - (1.0 + 0.5 * ki)                       # (2n+1, nc)
    e_mir = np.exp(1j * np.asarray(
        theta(tg[:, None] - 0.5 * lag - dm_tau[None, :]), dtype=float))  # (2n+1, nm)

    a = np.zeros((nm, nc), dtype=complex)
    buf_len = n_sub + 4
    ring = np.zeros((buf_len, nm, nc), dtype=complex)
    zero = np.zeros((nm, nc), dtype=complex)
    w_mid = (-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0)

    amp = np.empty(n + 1, dtype=complex) if record else None
    if record:
        amp[0] = 0.0
    refl = 0.0
    intr = 0.0
    current = 0

    def hist(k: int) -> np.ndarray:
        if k < 0:
            return zero
        if k < current - buf_len + 1:
            raise HistoryUnderrun(f"lookup {k} steps behind a {buf_len}-slot buffer")
        return ring[k % buf_len]

    def rhs(jj, aj, ad):
        if ad is None:
            ad = aj  # zero-lag limit: the delayed state is the stage state
        echo = e_mir[jj][:, None] * (echo_in[jj] + ad)
        da = coef[jj][None, :] * aj - echo - drive[jj]
        if record:
            out = e_dir[jj] * (echo[0, 0] + aj[0, 0])
            return da, abs(out) ** 2, abs(aj[0, 0]) ** 2
        return da, 0.0, 0.0

    for i in range(n):
        current = i
        m = 2 * i
        if n_sub == 0:
            a_del = (None, None, None)
        else:
            j = i - n_sub
            mid = (w_mid[0] * hist(j - 1) + w_mid[1] * hist(j)
                   + w_mid[2] * hist(j + 1) + w_mid[3] * hist(j + 2))
            a_del = (hist(j), mid, hist(j + 1))

        k1, r1, q1 = rhs(m, a, a_del[0])
        k2, r2, q2 = rhs(m + 1, a + 0.5 * h * k1, a_del[1])
        k3, r3, q3 = rhs(m + 1, a + 0.5 * h * k2, a_del[1])
        k4, r4, q4 = rhs(m + 2, a + h * k3, a_del[2])
        a = a + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ring[(i + 1) % buf_len] = a
        if record:
            refl += h / 6.0 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
            intr += ki * h / 6.0 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            amp[i + 1] = a[0, 0]
    if not np.all(np.isfinite(a)):
        raise IntegrationError("non-finite amplitude; reduce the step size")
    fid = np.abs(a) ** 2
    tau = np.arange(n + 1) * h if record else None
    return fid, tau, amp, refl, intr


def simulate_with_delay(config: TransferConfig, profile, step: float | None = None) -> TransferResult:
    ke = config.kappa_e
    fid, tau, amp, refl, intr = _integrate_delay(
        profile, config.ratio, config.kappa_i / ke, ke * config.delta_f,
        np.array([ke * config.delta_m]), np.array([ke * config.delta_c]),
        config.horizon, step, record=True)
    return TransferResult(fidelity=float(fid[0, 0]), tau=tau, amplitude=amp,
                          reflected_fraction=refl, intrinsic_fraction=intr)


def fidelity_grid(config: TransferConfig, profile, dm_grid, dc_grid,
                  step: float | None = None) -> np.ndarray:
    ke = config.kappa_e
    fid, _, _, _, _ = _integrate_delay(
        profile, config.ratio, config.kappa_i / ke, ke * config.delta_f,
        ke * np.asarray(dm_grid, dtype=float), ke * np.asarray(dc_grid, dtype=float),
        config.horizon, step, record=False)
    return fid
