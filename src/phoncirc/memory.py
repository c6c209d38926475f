"""State transfer into a tunable-coupling phononic cavity.

Everything here works in the dimensionless time tau = kappa_e * t.  The
cavity master equation for an exponentially decaying input pulse of power
rate r (amplitude sqrt(r) e^{-r t / 2}) reads

    dA/dtau = -(4 cos^2(theta/2) + kappa_i/kappa_e) A / 2
              - 2 cos(theta/2) sqrt(r/kappa_e) e^{-(r/2kappa_e) tau},

where theta(tau) is the round-trip phase imposed on the cavity's rightward
output, and 4 cos^2(theta/2) the output coupling in units of kappa_e.  The
closed-form optimal capture profile, :class:`OptimalProfile`, holds the
maximum coupling 4 (theta = 0) until a critical time tau_c, then rolls it
off so the outgoing leakage destructively interferes with the reflected
input; its asymptotic capture fidelity is the constant ``a1``.  The profile
writes the roll-off once, as a coupling, and its phase is the arccos of that
coupling (:func:`phase_from_coupling`).

:func:`simulate_with_delay` integrates the retarded version of the same
equation, where the mirror round trip takes a time delta_f, the mirror
phase clock may lag the input shifter by delta_m, and the cavity-detuning
clock by delta_c.  :func:`optimize_delays` grid-searches the two lags.

Integration is fixed-step classical Runge-Kutta.  Because the equation is
linear in A, one RK4 step is exactly the affine map a[i+1] = P[i] a[i] + Q[i]:
P depends only on time and the detuning lag, Q on the input and the delayed
history.  The coefficient tables hold the decay c and the known forcing (the
input and its echo, without the history) one chunk of steps at a time, sized
from a byte budget so that they do not grow with the horizon; a chunk's
tables are dropped before the next chunk's are built.  A chunk's half-step
tables, and the profile values they come from, are built in place, and a
grid drops each of them once it is folded into a kept one, so building a
chunk takes little beyond what it keeps.  The budget is 4 MiB, where the 61 x 61
scan runs as fast as at 16 MiB and a smaller one made it slower.  Without a
delay that is the whole equation, and its (P, Q) follows from it directly.
With one, the step divides the round trip into n_sub steps, so the
retarded input at any half-step is the direct input 2 n_sub half-steps
earlier: one input table serves both, on a single cell and on a lag grid.  A
block never reaches past n_sub - 1 steps, so the history it needs is already
stored in a ring buffer, and its half-step values come from 4-point cubic
interpolation.

From the RK4 weights beta, the known forcing u and the mirror phase e at each
step's three stages, Q is the known part q = -(beta0 u0 + beta1 u1 + h/6 u2)
plus the history taps weighted by w_A = -(beta0 e0 + 9/16 beta1 e1),
w_B = -(9/16 beta1 e1 + h/6 e2) and w_C = beta1 e1 / 16.  One tap sum,
q + w_A H[j] + w_B H[j+1] + w_C (H[j-1] + H[j+2]), builds the Q of every
block.  A single cell's tables hold its four factors as 1-D series per chunk.
On a lag grid P and beta depend on (t, delta_c) only, e and u on (t, delta_m)
only, so the four factors are sums of outer products over the three stages.
A grid's chunk holds only what its blocks read: u and e (steps, dm, 3), the
three beta rows (steps, 3, dc) and P.  Each block multiplies the rows of Q's
weights into its own beta rows and runs two matmuls, u by the first row and
e by the other three, into one factor buffer of the run, where the tap sum
then builds Q; taps that wrap the ring are copied into one window buffer of
the run: a block step allocates no array.  In the zero-lag limit the
mirror term folds into P, which is then full-grid.

Every run goes through one block loop: the tables give each block its
(P, Q), and only the block's solve depends on the shape.  A single cell
solves each block as one prefix scan: with L the running product of P over
the block, its states are L (a0 + cumsum(Q / L)), written straight into the
ring.  Its block is 2048 steps without a delay (one default table chunk) and
min(n_sub - 1, 2048) steps with one, whatever the chunk size.  A chunk whose
largest |log P| times that block passes 600 is scanned in blocks of
600 / max |log P| steps instead, so that |L| stays within e^(+-600) and
Q / L and the states stay finite.  A lag grid instead loops over the steps of
a block, one full-grid multiply-add each, and its block is min(n_sub - 1,
256, max(1, 8192 // cells)) steps long, cells the size of the grid, so that
a block's full-grid arrays stay in cache.

A single cell's ring holds the whole run, its trajectory, from which its
energy bookkeeping is summed once per chunk.  A run whose ring and chunk
tables would pass 1 GiB is refused before anything is allocated.  The
delay-free path stays real-valued.  :func:`single_excitation_oracle`
provides an independent check of the transfer fidelity via a beam-splitter
collision model in the single-excitation sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from ._jsoncheck import REQUIRED, json_numbers, read_object
from .errors import (DomainError, InfeasibleCap, IntegrationError,
                     HistoryUnderrun, ProfileOutOfRange)

__all__ = [
    "MAX_COUPLING_RATIO",
    "ProfileConstants",
    "profile_constants",
    "critical_time",
    "phase_from_coupling",
    "OptimalProfile",
    "SampledProfile",
    "optimal_profile",
    "discretize_profile",
    "TransferConfig",
    "TransferResult",
    "DelayScan",
    "simulate_transfer",
    "simulate_with_delay",
    "optimize_delays",
    "single_excitation_oracle",
]

TWO_PI = 2.0 * math.pi
#: peak output coupling of the loop in units of kappa_e (both ports in phase)
MAX_COUPLING_RATIO = 4.0
_DEFAULT_STEP = 0.002      # tau units
_MIN_STEP = 1e-7
_ARCCOS_SLACK = 1e-12
#: JSON key of a transfer config -> (field, unit factor, default)
_CONFIG_KEYS = {"kappa_e_hz": ("kappa_e", TWO_PI, REQUIRED), "r_hz": ("r", TWO_PI, REQUIRED),
                "kappa_i_hz": ("kappa_i", TWO_PI, 1.0), "delta_f_ns": ("delta_f", 1e-9, 0.0),
                "delta_m_ns": ("delta_m", 1e-9, 0.0), "delta_c_ns": ("delta_c", 1e-9, 0.0),
                "horizon": ("horizon", 1.0, 25.0), "slope_cap": ("slope_cap", 1.0, None)}


class ProfileConstants(NamedTuple):
    a1: float
    tau_c: float


def _check_ratio(ratio: float) -> float:
    ratio = float(ratio)
    if not 0.0 < ratio < 4.0:
        raise DomainError(f"r/kappa_e must lie in (0, 4), got {ratio}")
    return ratio


def profile_constants(ratio: float) -> ProfileConstants:
    """Constants (a1, tau_c) of the optimal capture profile, kappa_i = 0.

    `ratio` is r/kappa_e; a1 is the ideal transfer fidelity and tau_c the
    critical switch time in units of 1/kappa_e.
    """
    rho = _check_ratio(ratio)
    q = 8.0 / (4.0 + rho)
    a1 = (16.0 * rho / (4.0 + rho) ** 2 * q ** (-8.0 / (4.0 - rho))
          + q ** (-2.0 * rho / (4.0 - rho)))
    tau_c = 2.0 / (4.0 - rho) * math.log(q)
    return ProfileConstants(a1=a1, tau_c=tau_c)


def critical_time(ratio: float, kappa_e: float) -> float:
    """Critical switch time in seconds for a cavity with rate kappa_e (rad/s)."""
    if not 0.0 < kappa_e < math.inf:
        raise DomainError("kappa_e must be positive and finite")
    t_c = profile_constants(ratio).tau_c / kappa_e
    if not math.isfinite(t_c):
        raise DomainError(f"critical time overflows the float range at kappa_e = {kappa_e:.3g}")
    return t_c


def phase_from_coupling(kappa_ratio) -> np.ndarray | float:
    """Round-trip phase realizing a coupling kappa/kappa_e in [0, 4].

    theta = arccos(kappa_ratio/2 - 1); arguments beyond [-1, 1] by more than
    1e-12 raise, smaller excursions are clamped (they arise from rounding
    right at tau_c).  `kappa_ratio` is copied, never written.
    """
    out = _phase(np.array(kappa_ratio, dtype=float))
    return float(out) if out.ndim == 0 else out


def _phase(k: np.ndarray) -> np.ndarray:
    """:func:`phase_from_coupling` of the float array k, evaluated in k."""
    k /= 2.0
    k -= 1.0
    if k.size and (k.max() > 1.0 + _ARCCOS_SLACK or k.min() < -1.0 - _ARCCOS_SLACK):
        raise ProfileOutOfRange("coupling ratio outside [0, 4]")
    return np.arccos(np.clip(k, -1.0, 1.0, out=k), out=k)


@dataclass(frozen=True)
class OptimalProfile:
    """Closed-form optimal capture profile for a given r/kappa_e."""

    ratio: float
    a1: float
    tau_c: float

    def coupling(self, tau):
        """Output coupling kappa/kappa_e at dimensionless time tau.

        4 during the loading stage tau <= tau_c, then the interference-matched
        roll-off rho w / (a1 - w) with w = e^{-rho tau}; continuous across
        tau_c by construction.
        """
        out = self._coupling(tau)
        return float(out) if np.isscalar(tau) else out

    def theta(self, tau):
        """Round-trip phase of :meth:`coupling`: 0 up to tau_c, then rising to pi."""
        out = _phase(self._coupling(tau))
        return float(out) if out.ndim == 0 else out

    def _coupling(self, tau) -> np.ndarray:
        """:meth:`coupling` as a fresh array; the roll-off is evaluated in place
        on the late times alone, beside its denominator a1 - w."""
        tau = np.asarray(tau, dtype=float)
        out = np.full(tau.shape, MAX_COUPLING_RATIO)
        late = tau > self.tau_c
        w = tau[late]
        w *= -self.ratio
        w = np.exp(w, out=w)
        den = np.subtract(self.a1, w)
        w *= self.ratio
        w /= den
        out[late] = w
        return out


def optimal_profile(ratio: float) -> OptimalProfile:
    a1, tau_c = profile_constants(ratio)
    return OptimalProfile(ratio=float(ratio), a1=a1, tau_c=tau_c)


@dataclass(frozen=True)
class SampledProfile:
    """Piecewise-linear phase schedule given as (tau, theta) samples.

    theta must be 0 up to tau_c, non-decreasing, and within [0, pi].
    Evaluation clamps to the first/last sample outside the sampled window.
    """

    tau: np.ndarray
    thetas: np.ndarray
    tau_c: float

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        th = np.asarray(self.thetas, dtype=float)
        if tau.ndim != 1 or tau.shape != th.shape or tau.size < 2:
            raise DomainError("need matching 1-d tau/theta arrays with >= 2 samples")
        if not (np.isfinite(tau).all() and np.isfinite(th).all() and math.isfinite(self.tau_c)):
            raise DomainError("profile samples and tau_c must be finite")
        if np.any(np.diff(tau) <= 0.0):
            raise DomainError("sample times must be strictly increasing")
        if np.any(np.diff(th) < -1e-12):
            raise DomainError("phase schedule must be non-decreasing")
        if np.any(th < -1e-12) or np.any(th > math.pi + 1e-9):
            raise DomainError("phase samples must lie in [0, pi]")
        if np.any(th[tau < self.tau_c - 1e-12] > 1e-12):
            raise DomainError("phase must be zero before the critical time")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "thetas", th)

    def theta(self, tau):
        out = np.interp(np.asarray(tau, dtype=float), self.tau, self.thetas)
        return float(out) if np.isscalar(tau) else out

    def max_slope(self) -> float:
        return float(np.max(np.diff(self.thetas) / np.diff(self.tau)))


def discretize_profile(profile, slope_cap: float = 23.0,
                       horizon: float = 25.0) -> SampledProfile:
    """Sample a profile on a slope-limited staircase of spacing 0.1 tau_c.

    The first post-critical sample sits at 1.1 tau_c; each subsequent sample
    tracks the source profile but never climbs faster than `slope_cap` in
    d theta / d tau.  Raises :class:`InfeasibleCap` when the cap cannot bring
    theta within 0.01 of pi by the horizon.
    """
    if not (math.isfinite(slope_cap) and slope_cap > 0.0):
        raise DomainError("slope cap must be finite and positive")
    tau_c = profile.tau_c
    if not tau_c < horizon < math.inf:
        raise DomainError("horizon must be finite and exceed the critical time")
    if slope_cap * (horizon - tau_c) < math.pi - 0.01:
        raise InfeasibleCap(
            f"cap {slope_cap} cannot reach pi - 0.01 within horizon {horizon}")
    dt = 0.1 * tau_c
    taus = [0.0, tau_c]
    t = tau_c
    while t < horizon:
        t += dt
        taus.append(t)
    targets = np.asarray(profile.theta(np.array(taus[2:])), dtype=float).tolist()
    thetas = [0.0, 0.0]
    th = 0.0
    for target in targets:
        th = min(target, th + slope_cap * dt)
        thetas.append(th)
    return SampledProfile(np.array(taus), np.array(thetas), tau_c=tau_c)


@dataclass(frozen=True)
class TransferConfig:
    """Cavity, input and delay parameters of a transfer simulation.

    Rates are angular (rad/s); delays are in seconds; `horizon` is the final
    time in units of 1/kappa_e.  `slope_cap` is carried for callers that
    discretize the control profile before simulating (None = continuous).
    Every field must be finite.
    """

    kappa_e: float
    r: float
    kappa_i: float = TWO_PI * 1.0
    delta_f: float = 0.0
    delta_m: float = 0.0
    delta_c: float = 0.0
    horizon: float = 25.0
    slope_cap: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value}")
        if self.kappa_e <= 0.0:
            raise DomainError("kappa_e must be positive")
        if self.kappa_i < 0.0:
            raise DomainError("kappa_i must be non-negative")
        tau_c = profile_constants(self.ratio).tau_c
        if self.delta_f < 0.0:
            raise DomainError("round-trip delay must be non-negative")
        if self.horizon <= tau_c:
            raise DomainError(
                f"horizon {self.horizon} must exceed the critical time {tau_c:.4f}")

    @property
    def ratio(self) -> float:
        return self.r / self.kappa_e

    @classmethod
    def from_json(cls, source) -> "TransferConfig":
        """Build from a JSON file path or dict with Hz/ns fields.

        Keys: kappa_e_hz, r_hz (required), kappa_i_hz, delta_f_ns,
        delta_m_ns, delta_c_ns, horizon, slope_cap; no others.  Frequencies are
        ordinary (multiplied by 2*pi here), delays are nanoseconds.  Every
        value must be a JSON number; slope_cap may also be null.
        """
        data = read_object(source, {key: default for key, (_, _, default) in _CONFIG_KEYS.items()},
                           "transfer config")
        json_numbers({k: v for k, v in data.items() if k != "slope_cap" or v is not None},
                     "config value")
        return cls(**{name: None if data[key] is None else unit * float(data[key])
                      for key, (name, unit, _) in _CONFIG_KEYS.items()})


@dataclass(frozen=True)
class TransferResult:
    """Fidelity, cavity trajectory, and where the lost energy went.

    `tau` is the run's uniform time grid, n_steps * step long; `delay_steps`
    is the mirror round trip in steps (0 without a delay).
    """

    fidelity: float
    tau: np.ndarray
    amplitude: np.ndarray
    reflected_fraction: float
    intrinsic_fraction: float
    delay_steps: int = 0

    @property
    def step(self) -> float:
        return float(self.tau[1])

    @property
    def n_steps(self) -> int:
        return len(self.tau) - 1

    @property
    def tau_end(self) -> float:
        """Where the run ended, n_steps * step: a delayed run whose step does
        not divide the horizon ends up to one step past it."""
        return float(self.tau[-1])


@dataclass(frozen=True)
class DelayScan:
    """Grid-search result over mirror/detuning clock lags (seconds).

    Every cell ran the same `n_steps` steps of size `step`; `delay_steps` is
    the mirror round trip in steps (0 without a delay).
    """

    delta_m: float
    delta_c: float
    fidelity: float
    dm_grid: np.ndarray
    dc_grid: np.ndarray
    fidelity_grid: np.ndarray  # shape (len(dm_grid), len(dc_grid))
    step: float
    n_steps: int
    delay_steps: int

    @property
    def tau_end(self) -> float:
        """Where the runs ended, n_steps * step, as in :class:`TransferResult`."""
        return self.n_steps * self.step

    def ridge(self):
        """Best delta_c per delta_m, without the rows whose optimum pins to
        the grid boundary (the ridge leaves the scan window there)."""
        idx = np.argmax(self.fidelity_grid, axis=1)
        dm = np.asarray(self.dm_grid)
        dc = np.asarray(self.dc_grid)[idx]
        if len(self.dc_grid) > 2:
            keep = (idx > 0) & (idx < len(self.dc_grid) - 1)
            return dm[keep], dc[keep]
        return dm, dc


def _ode_step_count(horizon: float, h: float) -> int:
    if h < _MIN_STEP:
        raise IntegrationError(f"integration step underflow: h = {h:.3g}")
    steps = horizon / h - 1e-9
    if not math.isfinite(steps):
        raise DomainError(f"horizon {horizon:.3g} over the step {h:.3g} overflows the step count")
    return int(math.ceil(steps))


def _delay_step(lag: float, step: float | None) -> tuple[float, int]:
    """Step size commensurate with the delay, and the delay in steps (0 and
    the step itself without a delay)."""
    h0 = _DEFAULT_STEP if step is None else float(step)
    if not 0.0 < h0 < math.inf:
        raise DomainError(f"integration step must be positive and finite, got {h0}")
    if lag <= 0.0:
        return h0, 0
    h0 = min(h0, lag / 20.0)
    if h0 < _MIN_STEP:
        raise IntegrationError(f"integration step underflow: h = {h0:.3g}")
    n_sub = int(math.ceil(lag / h0 - 1e-12))
    return lag / n_sub, n_sub


# --- coefficient tables -----------------------------------------------------
#
# Both builders describe the linear equation dA/dtau = c A - f on the
# half-step grid tau = k h / 2 that the RK4 stages visit, one chunk of steps
# at a time: `load(k0, k1)` replaces the last chunk's tables with those of
# half-steps k0..k1; the half-step sin(theta), c, mirror phase and f that a
# grid folds into its kept tables are dropped as soon as they are.
# `step_map(b, taps)` gives the (P, Q) of the block on the chunk's step
# slice b, whose history taps are `taps` (None without a delay).  Without a
# delay (`n_sub == 0`) the tables hold `coef` (c) and `known` (f without the
# delayed history), the whole equation; a single cell's map its whole chunk
# to 1-D P and Q in `load`, a grid's each block's half-steps.  Delayed tables
# hold P (`p`) and, for Q, a single cell's the 1-D series `q`, `w_a`, `w_b`
# and `w_c` over the chunk's steps, which the tap sum turns into Q, a grid's
# only the stage tables `u` (known f) and `e` (mirror phase) and the RK4
# weights `beta`, whose products form Q in buffers that every block reuses.
# The energy bookkeeping of a one-cell run reads `coef`,
# `forcing(taps)`, f over the chunk, and `output(s, f, y)`, the outgoing
# field of a stage with forcing f and state y; only a single cell's tables
# keep what those read.

class _FreeTables:
    """Delay-free tables; real-valued, so the trajectory stays real."""

    n_sub = 0
    shape = ()

    def __init__(self, profile, rho: float, ki: float, h: float):
        self.theta, self.rho, self.ki, self.h = profile.theta, rho, ki, h

    def load(self, k0: int, k1: int):
        tg = np.arange(k0, k1 + 1) * (self.h / 2.0)
        self.chalf = np.cos(np.asarray(self.theta(tg), dtype=float) / 2.0)
        self.coef = -0.5 * (4.0 * self.chalf**2 + self.ki)
        self.pump = np.sqrt(self.rho) * np.exp(-0.5 * self.rho * tg)
        self.known = 2.0 * self.chalf * self.pump
        self.p, self.q = _step_map(self.coef, self.known, self.h)

    def step_map(self, b, taps):
        return self.p[b], self.q[b]

    def output(self, s, f, y):
        return self.pump[s] + 2.0 * self.chalf[s] * y


# Rows of Q over the RK4 stage terms x = 0, 1, 2 (a step's start, middle and
# end): the known part, then the weights of the history taps H[j], H[j+1]
# and H[j-1] + H[j+2], since the middle stage reads the cubic midpoint
# 9/16 (H[j] + H[j+1]) - 1/16 (H[j-1] + H[j+2]).
_Q_ROWS = np.array([[-1.0, -1.0, -1.0],
                    [-1.0, -9.0 / 16.0, 0.0],
                    [0.0, -9.0 / 16.0, -1.0],
                    [0.0, 1.0 / 16.0, 0.0]])


def _tap_sum(q, w_a, w_b, w_c, taps):
    """Q = q + w_A H[j] + w_B H[j+1] + w_C (H[j-1] + H[j+2]) of a block's steps,
    from its taps H[j-1] .. H[j+nb+1] (j = i - n_sub); built in q, and the
    weights are overwritten, w_A's plane with H[j-1] + H[j+2] once it is added
    in, so that no array is created."""
    nb = len(q)
    w_a *= taps[1:nb + 1]
    q += w_a
    w_c *= np.add(taps[:nb], taps[3:], out=w_a)
    w_b *= taps[2:nb + 2]
    q += w_b
    q += w_c
    return q


def _stages(v: np.ndarray) -> np.ndarray:
    """(steps, ..., 3): each step's start, middle and end half-step values."""
    return np.stack((v[:-1:2], v[1::2], v[2::2]), axis=-1)


class _RetardedTables:
    """Complex tables of the retarded equation over a (dm, dc) lag grid.

    Per-time tables carry two trailing unit axes, the dc tables a unit dm
    axis and the dm tables a trailing unit dc axis, so that every block
    broadcasts to (steps, len(dm), len(dc)).  Only P and the factors of Q
    differ by shape: 1-D series for a single cell, which `_integrate` scans,
    and for a grid the stage tables and RK4 weights whose outer products
    `step_map` forms one block at a time.
    """

    def __init__(self, profile, rho: float, ki: float, lag: float, n_sub: int,
                 dm_tau: np.ndarray, dc_tau: np.ndarray, h: float):
        self.theta, self.rho, self.ki, self.h = profile.theta, rho, ki, h
        self.lag, self.n_sub = lag, n_sub
        self.dm_tau, self.dc_tau = dm_tau, dc_tau
        self.shape = (len(dm_tau), len(dc_tau))
        self.cell = self.shape == (1, 1)
        self.rows = self.factors = None

    def _input(self, t):
        """The input phase e^(-i theta/2) at times t, and the drive: that phase
        times the exact input pump."""
        phase = np.exp(-0.5j * np.asarray(self.theta(t), dtype=float))
        return phase, phase * (np.sqrt(self.rho) * np.exp(-0.5 * self.rho * t))

    def load(self, k0: int, k1: int):
        theta, lag, h = self.theta, self.lag, self.h
        # one chunk at a time: the last chunk's tables go before these are built
        self.coef = self.known = self.e_mir = self.drive = self.e_dir = None
        self.p = self.q = self.w_a = self.w_b = self.w_c = self.u = self.e = self.beta = None
        # the retarded input is the direct input 2 n_sub half-steps earlier, so
        # one table holds both: the retarded half-steps, then the direct ones
        # k0..k1 (one range unless the lag is longer than the chunk)
        n = k1 - k0 + 1
        lead = 2 * self.n_sub
        ks = np.arange(k0 - min(lead, n), k1 + 1)
        if lead > n:
            ks[:n] -= lead - n
        te = ks * (h / 2.0)
        tg = te[-n:]
        e_dir, drive = self._input(te)
        echo_in = drive[:n]
        e_dir, drive = e_dir[-n:, None, None], drive[-n:, None, None]
        # each half-step table is built in place and, on a grid, dropped once
        # it is folded into a kept one: c into P and beta before the mirror
        # phase is built, f and the mirror phase into u and e
        coef = np.sin(np.asarray(theta(tg[:, None] - self.dc_tau), dtype=float))
        coef = np.multiply(1j, coef)[:, None, :]
        coef -= 1.0 + 0.5 * self.ki
        if self.n_sub:
            self.p, beta0, beta1 = _rk4_weights(coef, h)
            if not self.cell:
                # a grid: the RK4 weights over dc, which step_map multiplies
                # out one block at a time
                coef = None
                self.beta = np.concatenate((beta0, beta1, np.full_like(beta0, h / 6.0)), axis=1)
                beta0 = beta1 = None
        e_mir = np.multiply(1j, np.asarray(theta(tg[:, None] - 0.5 * lag - self.dm_tau),
                                           dtype=float))
        e_mir = np.exp(e_mir, out=e_mir)[:, :, None]
        known = np.multiply(e_mir, echo_in[:, None, None])
        known += drive
        if self.cell:
            # only a single cell's energy bookkeeping reads these
            self.e_mir, self.drive, self.e_dir = e_mir, drive, e_dir
        if not self.n_sub:
            # zero-lag limit: the delayed state is the stage state, so e_mir
            # folds into a full-grid c; one cell maps its whole chunk at once
            self.coef, self.known = coef - e_mir, known
            if self.cell:
                self.p, self.q = (x.reshape(-1) for x in _step_map(self.coef, known, h))
            return
        if self.cell:
            # one cell: P, the known part of Q and the weights of its history
            # taps as 1-D series over the chunk's steps (the rows of _Q_ROWS)
            self.coef, self.known = coef, known
            self.p = self.p.reshape(-1)
            b0, b1, u, e = (x.reshape(-1) for x in (beta0, beta1, known, e_mir))
            e1 = b1 * e[1::2]
            self.q = -(b0 * u[:-1:2] + b1 * u[1::2] + h / 6.0 * u[2::2])
            self.w_a = -(b0 * e[:-1:2] + 9.0 / 16.0 * e1)
            self.w_b = -(9.0 / 16.0 * e1 + h / 6.0 * e[2::2])
            self.w_c = e1 / 16.0
            return
        # a grid: the stage values of u and e over dm
        self.u = _stages(known[:, :, 0])
        known = None
        self.e = _stages(e_mir[:, :, 0])

    def step_map(self, b, taps):
        if self.cell:
            q = self.q[b]
            if self.n_sub:
                # each block's slice of the chunk series is read once, so the
                # tap sum builds Q in it
                q = _tap_sum(q, self.w_a[b], self.w_b[b], self.w_c[b], taps)
            return self.p[b], q
        if not self.n_sub:
            s = slice(2 * b.start, 2 * b.stop + 1)
            return _step_map(self.coef[s], self.known[s], self.h)
        nb = b.stop - b.start
        if self.rows is None or self.rows.shape[1] < nb:
            # one pair of buffers for the run: the first block is its longest
            self.rows = np.empty((4, nb, 3, self.shape[1]), dtype=complex)
            self.factors = np.empty((4, nb) + self.shape, dtype=complex)
        rows, factors = self.rows[:, :nb], self.factors[:, :nb]
        # the four factors of Q: u times _Q_ROWS[0] beta, e times the other rows
        np.multiply(_Q_ROWS[:, None, :, None], self.beta[b], out=rows)
        np.matmul(self.u[b], rows[0], out=factors[0])
        np.matmul(self.e[b], rows[1:], out=factors[1:])
        return self.p[b], _tap_sum(*factors, taps)

    def forcing(self, taps):
        # the even half-steps read stored nodes, the odd ones cubic midpoints
        nb = len(taps) - 3
        delayed = np.empty((2 * nb + 1,) + taps.shape[1:], dtype=complex)
        delayed[0::2] = taps[1:nb + 2]
        mid = delayed[1::2]
        np.add(taps[:nb], taps[3:], out=mid)
        mid *= -1.0 / 16.0
        mid += 9.0 / 16.0 * (taps[1:nb + 1] + taps[2:nb + 2])
        delayed *= self.e_mir
        delayed += self.known
        return delayed

    def output(self, s, f, y):
        echo = f - self.drive[s]
        if not self.n_sub:
            echo = echo + self.e_mir[s] * y
        return self.e_dir[s] * (echo + y)


# --- the step loop ----------------------------------------------------------

#: cell-steps per block: 2 steps on the 61 x 61 paper grid, so that a block's
#: full-grid temporaries stay in cache
_BLOCK_CELL_STEPS = 8192
#: bytes and steps per table chunk.  4 MiB is the smallest budget at which
#: the 61 x 61 scan at delta_f = 60 ns ran as fast as at 16 MiB, in 46-step
#: chunks against 184 (interleaved runs); 2 MiB ran about 7 % slower and held
#: the same peak.  A one-cell chunk stays at its `_CHUNK_STEPS` cap.
_CHUNK_BYTES = 1 << 22
_CHUNK_STEPS = 2048
#: complex numbers per lag and step budgeted for a chunk's tables
_LAG_TABLES = 16
#: bytes a run may take for its ring and one chunk of tables
_WORK_BYTES = 1 << 30
#: steps per one-cell scan block without a delay: a prefix scan's length
#: costs no Python time, so it spans a default chunk; fixed, so that the
#: scan's block ends do not move with the chunk
_SCAN_STEPS = 2048
#: a one-cell scan block ends before its running product |L| leaves
#: e^(+-600), so that Q / L and the states stay finite
_SCAN_LOG_L = 600.0


def _block_length(cells: int, n_sub: int) -> int:
    """Steps per block: the history a block reads must already be stored.

    A single cell's block is a prefix scan of `_SCAN_STEPS` steps.
    """
    block = _SCAN_STEPS if cells == 1 else min(256, max(1, _BLOCK_CELL_STEPS // cells))
    return min(block, n_sub - 1) if n_sub else block


def _step_bytes(shape: tuple) -> int:
    """Table bytes per step: one full-grid plane (the zero-lag c) and about
    `_LAG_TABLES` numbers per lag."""
    return 16 * (math.prod(shape) + _LAG_TABLES * sum(shape))


def _check_work(what: str, work: float = 0, cells: int = 0, slots: int = 5) -> None:
    """Refuse, before it is allocated, `work` bytes and a ring of `slots`
    states of 16 B per cell that together pass `_WORK_BYTES`.  A ring has
    n_sub + block + 4 slots, so no run takes fewer than 5, and a lag grid can
    be refused by its cell count before it is built."""
    work += 16 * slots * cells
    if work > _WORK_BYTES:
        raise DomainError(f"{what} need about {work / 2**30:.3g} GiB, "
                          f"over the {_WORK_BYTES / 2**30:.3g} GiB work budget")


def _chunk_length(shape: tuple, block: int) -> int:
    """Steps per table chunk, a whole number of blocks.

    A chunk stays within `_CHUNK_BYTES` and `_CHUNK_STEPS`, so the tables do
    not grow with the horizon.
    """
    return max(1, min(_CHUNK_STEPS, _CHUNK_BYTES // _step_bytes(shape)) // block) * block


def _rk4_weights(c: np.ndarray, h: float):
    """P, beta0 and beta1 of each RK4 step from c on its 2 steps + 1 half-steps,
    with hc = h c at a step's three stages."""
    hc0, hc1, hc2 = h * c[:-1:2], h * c[1::2], h * c[2::2]
    half = 1.0 + 0.5 * hc0
    p = 1.0 + (hc0 + 2.0 * hc1 * half + (2.0 + hc2) * hc1 * (1.0 + 0.5 * hc1 * half)
               + hc2) / 6.0
    beta0 = h / 6.0 * (1.0 + hc1 + 0.25 * (2.0 + hc2) * hc1 * hc1)
    beta1 = h / 6.0 * (2.0 + (2.0 + hc2) * (1.0 + 0.5 * hc1))
    return p, beta0, beta1


def _step_map(c: np.ndarray, f: np.ndarray, h: float):
    """(P, Q) of a[i+1] = P a[i] + Q for each RK4 step, from c and f sampled
    on the steps' half-steps: Q = -(beta0 f0 + beta1 f1 + h/6 f2)."""
    p, beta0, beta1 = _rk4_weights(c, h)
    q = -beta0 * f[:-1:2]
    q -= beta1 * f[1::2]
    q -= h / 6.0 * f[2::2]
    return p, q


def _quadratures(tables, f, y1) -> tuple[float, float]:
    """Reflected and intrinsic energy of the loaded chunk from its forcing f
    and the states y1 at the start of its steps."""
    c, h = tables.coef, tables.h
    odd = slice(1, None, 2)
    y2 = y1 + 0.5 * h * (c[:-1:2] * y1 - f[:-1:2])
    y3 = y1 + 0.5 * h * (c[1::2] * y2 - f[1::2])
    y4 = y1 + h * (c[1::2] * y3 - f[1::2])
    outs = (tables.output(slice(0, -2, 2), f[:-1:2], y1),
            tables.output(odd, f[1::2], y2), tables.output(odd, f[1::2], y3),
            tables.output(slice(2, None, 2), f[2::2], y4))
    weights = (1.0, 2.0, 2.0, 1.0)
    refl = sum(w * np.vdot(o, o).real for w, o in zip(weights, outs))
    intr = sum(w * np.vdot(y, y).real for w, y in zip(weights, (y1, y2, y3, y4)))
    return h / 6.0 * float(refl), tables.ki * h / 6.0 * float(intr)


def _taps(ring, i: int, nb: int, n_sub: int, now: int, window):
    """The history taps of steps i .. i+nb-1, ring states j-1 .. j+nb+1 with
    j = i - n_sub, each stored by step `now`: a view of the ring, or, where
    they wrap its end, a copy in the run's buffer `window`."""
    slots = len(ring)
    oldest, newest = i - n_sub - 1, i - n_sub + nb + 1
    if oldest <= now - slots or newest > now:
        raise HistoryUnderrun(
            f"steps {oldest}..{newest} are outside a {slots}-slot buffer at step {now}")
    lo = oldest % slots
    if lo + nb + 3 <= slots:
        return ring[lo:lo + nb + 3]
    return np.take(ring, range(oldest, newest + 1), axis=0, out=window[:nb + 3], mode="wrap")


def _scan_length(p: np.ndarray, block: int) -> int:
    """Steps per scan block over a chunk's P: `block`, or fewer where a block's
    running product |L| could leave e^(+-_SCAN_LOG_L).  A NaN in P keeps
    `block`, and its run ends in an IntegrationError."""
    top = np.abs(np.log(np.abs(p))).max()
    return max(1, int(_SCAN_LOG_L / top)) if top * block > _SCAN_LOG_L else block


def _scan(p: np.ndarray, q: np.ndarray, a0) -> np.ndarray:
    """The states after each step of a[k+1] = p[k] a[k] + q[k] from a0, as one
    prefix scan: L (a0 + cumsum(q / L)) with L the running product of p."""
    lp = p.cumprod()
    return lp * (a0 + (q / lp).cumsum())


@np.errstate(over="ignore", invalid="ignore")
def _integrate(tables, n: int):
    """Run n RK4 steps of the tables' equation from A = 0, a block at a time.

    Returns (fidelity |A|^2, ring, reflected, intrinsic); a one-cell ring holds
    the whole run, and its energy is summed per chunk (0 on a grid).  A
    fidelity or energy that is not finite (an unstable step overflowed) is
    refused as an IntegrationError, without numpy's overflow warnings.
    """
    shape, n_sub = tables.shape, tables.n_sub
    cells = math.prod(shape)
    block = _block_length(cells, n_sub)
    chunk = _chunk_length(shape, block)
    scalar = cells == 1
    slots = n_sub + block + 4 + (n if scalar else 0)
    _check_work(f"{cells} cells x {n:.3g} steps", min(chunk, n) * _step_bytes(shape),
                cells, slots)
    # zeroed, so history before tau = 0 (the slots past the stored steps) reads 0
    ring = np.zeros((slots,) + shape, dtype=complex)
    # the taps of a block, or of a one-cell chunk, where they wrap the ring
    window = np.empty(((chunk if scalar else block) + 3,) + shape, dtype=complex)
    # one cell: one state per slot, so its blocks read and write 1-D views
    states, block_window = (ring.reshape(-1), window.reshape(-1)) if scalar else (ring, window)
    a = ring[0]
    refl = intr = 0.0
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        tables.load(2 * i0, 2 * i1)
        step = _scan_length(tables.p, block) if scalar else block
        for i in range(i0, i1, step):
            nb = min(step, i1 - i)
            # Q reads the history, stored up to step i
            taps = _taps(states, i, nb, n_sub, i, block_window) if n_sub else None
            p, q = tables.step_map(slice(i - i0, i - i0 + nb), taps)
            if scalar:
                # one prefix scan, straight into the ring
                states[i + 1:i + nb + 1] = _scan(p, q, states[i])
                continue
            # a grid steps through the block; each state goes straight into its ring slot
            for k, (pk, qk) in enumerate(zip(p, q), i + 1):
                a = np.multiply(pk, a, out=ring[k % slots])
                a += qk
        if scalar:
            f = (tables.forcing(_taps(ring, i0, i1 - i0, n_sub, i1, window)) if n_sub
                 else tables.known)
            # a real forcing (the delay-free tables) keeps the trajectory real
            y1 = ring[i0:i1].real if np.isrealobj(f) else ring[i0:i1]
            chunk_refl, chunk_intr = _quadratures(tables, f, y1)
            refl += chunk_refl
            intr += chunk_intr
    fidelity = np.abs(ring[n % slots]) ** 2
    if not (np.all(np.isfinite(fidelity)) and math.isfinite(refl) and math.isfinite(intr)):
        raise IntegrationError("non-finite fidelity or energy; reduce the step size")
    return fidelity, ring, refl, intr


def _transfer(tables, n: int) -> TransferResult:
    """Integrate one cell's tables into its fidelity, trajectory and losses."""
    fidelity, ring, refl, intr = _integrate(tables, n)
    return TransferResult(fidelity=fidelity.item(), tau=np.arange(n + 1) * tables.h,
                          amplitude=ring[:n + 1].ravel(), reflected_fraction=refl,
                          intrinsic_fraction=intr, delay_steps=tables.n_sub)


def simulate_transfer(config: TransferConfig, profile, step: float | None = None) -> TransferResult:
    """Integrate the delay-free transfer and return |A(horizon)|^2 and losses.

    `profile` is anything with a vectorizable ``theta(tau)`` (an
    :class:`OptimalProfile` or :class:`SampledProfile`).
    """
    h, _ = _delay_step(0.0, step)
    return _transfer(_FreeTables(profile, config.ratio, config.kappa_i / config.kappa_e, h),
                     _ode_step_count(config.horizon, h))


def _retarded(config: TransferConfig, profile, dm, dc, step: float | None):
    """Retarded tables over lag grids dm, dc (seconds) and their step count."""
    ke = config.kappa_e
    lag = ke * config.delta_f
    h, n_sub = _delay_step(lag, step)
    return (_RetardedTables(profile, config.ratio, config.kappa_i / ke, lag, n_sub,
                            ke * dm, ke * dc, h), _ode_step_count(config.horizon, h))


def simulate_with_delay(config: TransferConfig, profile, step: float | None = None) -> TransferResult:
    """Integrate the transfer with a finite mirror round trip and clock lags.

    The phase profile is evaluated at four retarded arguments (cavity
    detuning, mirror reflection, delayed input, direct input) exactly as in
    the retarded master equation; cavity history before tau = 0 is zero.
    With all delays zero this reproduces :func:`simulate_transfer`.
    """
    return _transfer(*_retarded(config, profile, np.array([config.delta_m]),
                                np.array([config.delta_c]), step))


def optimize_delays(config: TransferConfig, profile, dm_grid, dc_grid,
                    step: float | None = None) -> DelayScan:
    """Exhaustive grid search of mirror/detuning lags (seconds) for peak fidelity.

    Ties are broken toward smaller |delta_m|, then smaller |delta_c| (then
    by sign), so the result is deterministic regardless of evaluation order.
    """
    dm = np.asarray(dm_grid, dtype=float)
    dc = np.asarray(dc_grid, dtype=float)
    if dm.size == 0 or dc.size == 0:
        raise DomainError("delay grids must be non-empty")
    tables, n = _retarded(config, profile, dm, dc, step)
    fid = _integrate(tables, n)[0]
    best = np.max(fid)
    ties = np.argwhere(fid == best)
    key = sorted((abs(dm[i]), abs(dc[j]), dm[i], dc[j], i, j) for i, j in ties)
    _, _, dm_best, dc_best, _, _ = key[0]
    return DelayScan(delta_m=float(dm_best), delta_c=float(dc_best),
                     fidelity=float(best), dm_grid=dm, dc_grid=dc,
                     fidelity_grid=fid, step=tables.h, n_steps=n, delay_steps=tables.n_sub)


def single_excitation_oracle(config: TransferConfig, profile,
                             bin_width: float = 1e-4) -> float:
    """Transfer fidelity from a time-bin collision model, single excitation.

    The input field is sliced into bins; each bin interacts with the cavity
    through an exact 2x2 beam-splitter unitary with transmission
    e^{-kappa dt / 2}, so probability is conserved exactly.  Valid for the
    lossless, delay-free configuration only; agrees with
    :func:`simulate_transfer` because the single-excitation sector of the
    linear network evolves identically to the mean amplitude.
    """
    if config.kappa_i != 0.0:
        raise DomainError("oracle requires kappa_i = 0")
    if config.delta_f != 0.0:
        raise DomainError("oracle requires a zero mirror round trip")
    if not 0.0 < bin_width <= config.horizon:
        raise DomainError(f"bin width must be positive and at most the horizon "
                          f"{config.horizon}, got {bin_width}")
    bins = config.horizon / bin_width
    # at most about eight floats per bin are held at once
    _check_work(f"{bins:.3g} bins of width {bin_width:.3g}", 64 * bins)
    n = round(bins)
    if abs(bins - n) > 1e-9 * bins:
        # a rounded bin count would end the run off the horizon
        raise DomainError(f"bin width must divide the horizon {config.horizon}, "
                          f"got {bin_width}")
    rho = config.ratio
    mid = (np.arange(n) + 0.5) * bin_width
    coupling = 4.0 * np.cos(np.asarray(profile.theta(mid), dtype=float) / 2.0) ** 2
    alpha = np.exp(-0.5 * coupling * bin_width)
    beta = np.sqrt(1.0 - alpha**2)
    xi = np.sqrt(rho * bin_width) * np.exp(-0.5 * rho * mid)
    # amplitude left in the cavity: each bin deposits -beta*xi, then decays
    # through every later bin's transmission
    suffix = np.ones(n)
    suffix[:-1] = np.cumprod(alpha[::-1])[::-1][1:]
    c_final = -np.sum(beta * xi * suffix)
    return float(c_final**2)
