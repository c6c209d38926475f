"""Mach-Zehnder algebra and triangular mesh synthesis for N-mode circuits.

The elementary 2x2 block is

    U(theta, phi) = i [[e^{i phi/2} sin(theta/2),  e^{i phi/2} cos(theta/2)],
                       [e^{-i phi/2} cos(theta/2), -e^{-i phi/2} sin(theta/2)]]

with `theta` the internal differential phase (theta = pi is the bar state,
theta = 0 the full cross) and `phi` the external differential phase.  The
same matrix falls out of composing two 50:50 couplers with differential
phase pairs between and after them (:func:`mzi_from_primitives`), with no
leftover global phase.  The formula is written once, for a stack of
elements; :func:`mzi_unitary` is its one-element case.

:func:`reck_decompose` factors an N x N unitary into a :class:`MeshPlan`: a
phase screen on the inputs followed by a triangular mesh of N(N-1)/2 such
blocks on adjacent ports, held as arrays of top port, theta and phi;
:func:`mesh_apply` runs a vector through a plan.  Plans serialize to JSON
with 0-based top-port indices.  This module alone names an element's JSON
keys (``i``, ``theta``, ``phi``): :meth:`MeshPlan.columns` hands out the
three arrays under them, which ``pmmi decompose`` writes without a dict per
element, and :meth:`MeshPlan.from_json` folds each element object into a
tuple as it is parsed.

Both do their arithmetic on whole arrays, not one element at a time.  The
elimination is a wavefront: the pivots that act on disjoint row pairs are
computed and applied together, 2N-3 steps for N(N-1)/2 pivots.  Mesh
application groups the elements into layers of disjoint port pairs and
applies a layer at once, whatever the element order.  Against the
per-element loops they replaced (kept in ``tests/mesh_reference.py``),
plans agree in element order exactly and in theta and the screen to 1e-12;
phi agrees to 1e-12 once weighted by sin(theta), since near the bar and
cross points phi is set by the phase of a vanishing entry.  A matrix
containing NaN fails the unitarity check, and a plan with a non-finite
screen or phase is rejected.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from ._jsoncheck import NUMBER, REQUIRED, json_list, json_numbers, json_object
from .errors import DimensionMismatch, DomainError, NotUnitary, OutOfRange

__all__ = [
    "mzi_unitary",
    "beam_splitter",
    "mzi_from_primitives",
    "switch_output_powers",
    "MZISetting",
    "MeshPlan",
    "reck_decompose",
    "mesh_apply",
    "haar_unitary",
    "read_csv",
    "CalibrationCurve",
    "phase_from_voltage",
    "mirror_state",
]

_UNITARY_TOL = 1e-10
_PLAN = {"screen": REQUIRED, "elements": REQUIRED, "reconstruction_error": None}
_ELEMENT = {"i": REQUIRED, "theta": REQUIRED, "phi": REQUIRED}
_ELEMENT_VALUES = operator.itemgetter(*_ELEMENT)


def mzi_unitary(theta: float, phi: float) -> np.ndarray:
    """SU(2)-style transfer matrix of one Mach-Zehnder element."""
    return _mzi_stack(np.array([theta], dtype=float), np.array([phi], dtype=float))[0]


def _mzi_stack(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The element matrix of each (theta[k], phi[k]), stacked as shape (K, 2, 2)."""
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    ep = np.exp(0.5j * phi)
    u = np.empty((theta.size, 2, 2), dtype=complex)
    u[:, 0, 0], u[:, 0, 1] = ep * s, ep * c
    u[:, 1, 0], u[:, 1, 1] = c / ep, -s / ep
    u *= 1j
    return u


def beam_splitter() -> np.ndarray:
    """50:50 directional coupler: b_{1,2} = (a_{1,2} + i a_{2,1}) / sqrt(2)."""
    return np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)


def mzi_from_primitives(theta: float, phi: float) -> np.ndarray:
    """Build the element from couplers and differential phase pairs.

    Signal order: splitter, internal pair diag(e^{i theta/2}, e^{-i theta/2}),
    combiner, external pair.  Equals :func:`mzi_unitary` exactly.
    """
    b = beam_splitter()
    internal = np.diag([cmath.exp(0.5j * theta), cmath.exp(-0.5j * theta)])
    external = np.diag([cmath.exp(0.5j * phi), cmath.exp(-0.5j * phi)])
    return external @ b @ internal @ b


def switch_output_powers(theta: float) -> tuple[float, float]:
    """Output powers (1 +/- sin theta)/2 of the switch fed on one port.

    `theta` is the differential bias measured from the balanced 50:50
    operating point (a pi/2 offset from the internal phase of
    :func:`mzi_unitary`, where the same input splits as (1 -/+ cos)/2).
    """
    u = mzi_unitary(theta + math.pi / 2.0, 0.0)
    return abs(u[0, 0]) ** 2, abs(u[1, 0]) ** 2


@dataclass(frozen=True)
class MZISetting:
    """One mesh element: ports (top, top+1) with phases (theta, phi)."""

    top: int
    theta: float
    phi: float


@dataclass(frozen=True, eq=False)
class MeshPlan:
    """Input phase screen plus an ordered list of elements (application order).

    Element k sits on ports (top[k], top[k]+1) with phases (theta[k], phi[k]).
    The four fields are stored as read-only arrays; ports must be integers in
    0..N-2 and every phase must be finite.
    """

    screen: np.ndarray  # input phases (rad), one per mode
    top: np.ndarray     # top port of each element
    theta: np.ndarray   # internal phase of each element
    phi: np.ndarray     # external phase of each element

    def __post_init__(self):
        screen = np.array(self.screen, dtype=float)
        if screen.ndim != 1:
            raise DimensionMismatch(f"screen must be 1-d, got shape {screen.shape}")
        n = screen.size
        top = np.asarray(self.top)
        theta = np.array(self.theta, dtype=float)
        phi = np.array(self.phi, dtype=float)
        if top.ndim != 1 or theta.shape != top.shape or phi.shape != top.shape:
            raise DimensionMismatch("top, theta and phi must be 1-d of one length")
        if top.size and (top.dtype.kind not in "iu"
                         or not 0 <= top.min() <= top.max() <= n - 2):
            raise DimensionMismatch(f"element ports must be integers in 0..{n - 2}")
        for name, values in (("screen", screen), ("theta", theta), ("phi", phi)):
            if not np.all(np.isfinite(values)):
                raise DomainError(f"mesh plan {name} must be finite")
        for name, values in (("screen", screen), ("top", top.astype(np.intp)),
                             ("theta", theta), ("phi", phi)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @functools.cached_property
    def elements(self) -> tuple[MZISetting, ...]:
        """The elements as :class:`MZISetting` records, built on first use."""
        return tuple(map(MZISetting, self.top.tolist(), self.theta.tolist(),
                         self.phi.tolist()))

    @property
    def n_modes(self) -> int:
        return self.screen.size

    def matrix(self) -> np.ndarray:
        """Dense unitary realized by the plan."""
        return mesh_apply(self, np.eye(self.n_modes, dtype=complex))

    def columns(self) -> dict:
        """The element arrays under their JSON keys: ``i`` (top port), ``theta``
        and ``phi``."""
        return dict(zip(_ELEMENT, (self.top, self.theta, self.phi)))

    def to_dict(self) -> dict:
        """The plan as the JSON document of :meth:`to_json`."""
        rows = zip(*(column.tolist() for column in self.columns().values()))
        return {"screen": self.screen.tolist(),
                "elements": [dict(zip(_ELEMENT, row)) for row in rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "MeshPlan":
        """Read :meth:`to_json` or ``pmmi decompose`` text.  Every value must be a JSON number, and
        ``"i"`` an integer (a float port, or one too large for a float, is a
        :class:`DimensionMismatch`).

        Each element object is folded into its ``(i, theta, phi)`` tuple as it
        is parsed, so no dict per element outlives the parse; any other object,
        an element with other keys among them, stays a dict.
        """
        data = json.loads(text, object_hook=_fold_element)
        if type(data) is tuple:  # a top level holding exactly the element keys
            data = dict(zip(_ELEMENT, data))
        data = json_object(data, _PLAN, "mesh plan")
        items = data["elements"]
        kinds = {*map(type, items)} if type(items) is list else None
        if kinds is None or not kinds <= {tuple, dict}:
            raise DomainError("mesh plan elements must be JSON objects in a list")
        if dict in kinds:  # an element with other keys than exactly those of _ELEMENT
            json_object(next(e for e in items if type(e) is dict), _ELEMENT, "mesh plan element")
        top, theta, phi = map(list, zip(*items)) if items else ([], [], [])
        if not {*map(type, top)} <= NUMBER:  # never made floats: no float-range check
            raise DomainError("mesh plan 'i' values must be JSON numbers in a list")
        for key, values in (("screen", data["screen"]), ("theta", theta), ("phi", phi)):
            json_list(values, NUMBER, f"mesh plan {key} values")
        err = data["reconstruction_error"]
        if err is not None:
            if type(err) not in NUMBER:  # read again unfolded: the error shows it as written
                err = json.loads(text)["reconstruction_error"]
            json_numbers({"reconstruction_error": err}, "mesh plan")
            if not math.isfinite(err):
                raise DomainError("mesh plan reconstruction_error must be finite")
        return cls(data["screen"], top, theta, phi)


def _fold_element(obj: dict):
    """A parsed JSON object: an element's ``(i, theta, phi)``, other objects as is."""
    try:
        folded = _ELEMENT_VALUES(obj)
    except KeyError:  # a key of _ELEMENT is missing
        return obj
    return folded if len(obj) == len(_ELEMENT) else obj


def reck_decompose(u) -> MeshPlan:
    """Factor a unitary as (triangular mesh) o (input phase screen).

    Column by column, bottom up, each subdiagonal entry is nulled by the
    inverse of an element acting on adjacent rows; what remains is the
    diagonal phase screen.  theta is canonical in [0, pi], phi in (-pi, pi].
    A pivot whose target is already zero gets the transparent bar setting
    (theta = pi, phi = 0); one whose partner is zero gets the cross setting
    (theta = 0, phi = 0).

    The pivots run as a wavefront: pivot (column c, row r) goes at step
    t = 2c + (N-1-r).  The pivots of one step act on disjoint, adjacent row
    pairs, so a step computes all its phases at once and updates its rows,
    from the step's first column on, in one expression: 2N-3 steps in all.
    The elements come out in the order of the column-by-column elimination.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.ndim != 2 or u.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got shape {u.shape}")
    if not np.max(np.abs(u.conj().T @ u - np.eye(n))) < _UNITARY_TOL:
        raise NotUnitary("input matrix fails the unitarity check at 1e-10")
    work = u.copy()
    k = n * (n - 1) // 2
    top, theta, phi = np.empty(k, dtype=np.intp), np.empty(k), np.empty(k)
    for t in range(2 * n - 3):
        c = np.arange(max(0, t - n + 2), min(n - 2, t // 2) + 1)
        r = c * 2 + (n - 1 - t)            # pivot rows r-1, r: r ascends in steps of 2
        a, b = work[r - 1, c], work[r, c]
        abs_a, abs_b = np.abs(a), np.abs(b)
        th = 2.0 * np.arctan2(abs_a, abs_b)
        ph = np.angle(np.exp(1j * (np.angle(a) - np.angle(b))))
        bar = abs_b < 1e-14
        cross = ~bar & (abs_a < 1e-14)
        th[bar], th[cross] = math.pi, 0.0
        ph[bar | cross] = 0.0
        # columns before c hold c(n-1) - c(c-1)/2 pivots; each column runs bottom up
        seq = c * (n - 1) - c * (c - 1) // 2 + (n - 1 - r)
        top[seq], theta[seq], phi[seq] = r - 1, th, ph
        g = _mzi_stack(th, ph).conj().transpose(0, 2, 1)
        rows = slice(r[0] - 1, r[-1] + 1)
        block = work[rows, c[0]:]
        work[rows, c[0]:] = (g @ block.reshape(c.size, 2, -1)).reshape(block.shape)
    screen = np.angle(np.diagonal(work))
    # the eliminations satisfy G_K ... G_1 U = D, so U = T_1 ... T_K D and the
    # mesh applies T_K first; reverse into application order
    return MeshPlan(screen, top[::-1], theta[::-1], phi[::-1])


def _layers(top: np.ndarray, n: int) -> np.ndarray:
    """Layer of each element: one past the deepest earlier element sharing a port."""
    depth = [0] * n
    layer = []
    for i in top.tolist():
        d = max(depth[i], depth[i + 1]) + 1
        depth[i] = depth[i + 1] = d
        layer.append(d)
    return np.array(layer, dtype=np.intp)


def mesh_apply(plan: MeshPlan, x) -> np.ndarray:
    """Send a vector (or matrix of columns) through screen and elements.

    The elements of one layer (:func:`_layers`) act on disjoint port pairs,
    so each layer is applied as one batch of 2x2 products.  Any element order
    is allowed.
    """
    x = np.asarray(x, dtype=complex)
    n = plan.n_modes
    if x.shape[0] != n:
        raise DimensionMismatch(f"input has {x.shape[0]} modes, plan expects {n}")
    y = np.exp(1j * plan.screen)[:, None] * x.reshape(n, -1)
    if plan.top.size:
        layer = _layers(plan.top, n)
        order = np.argsort(layer, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(layer)[1:]))).tolist()
        ports = np.stack([plan.top, plan.top + 1], axis=1)[order]
        blocks = _mzi_stack(plan.theta[order], plan.phi[order])
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pairs = ports[lo:hi]
            y[pairs] = blocks[lo:hi] @ y[pairs]
    return y.reshape(x.shape)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def read_csv(source) -> np.ndarray:
    """The rows of a numeric CSV (a path or an open file) as a 2-D array.  An
    empty file reads as no rows without numpy's warning; the caller's shape
    check refuses it."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, delimiter=",", ndmin=2)


@dataclass(frozen=True)
class CalibrationCurve:
    """Measured (voltage, band shift) or (voltage, phase) table.

    `kind` is "delta_f" (values in Hz) or "phase" (values in rad).
    Voltages must be strictly increasing; queries interpolate linearly and
    never extrapolate.
    """

    voltages: np.ndarray
    values: np.ndarray
    kind: str = "delta_f"

    def __post_init__(self):
        v = np.asarray(self.voltages, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape != y.shape or v.size < 2:
            raise DomainError("calibration needs matching 1-d arrays with >= 2 points")
        if not (np.isfinite(v).all() and np.isfinite(y).all()):
            raise DomainError("calibration voltages and values must be finite")
        if np.any(np.diff(v) <= 0.0):
            raise DomainError("calibration voltages must be strictly increasing")
        if self.kind not in ("delta_f", "phase"):
            raise DomainError(f"kind must be 'delta_f' or 'phase', got {self.kind!r}")
        object.__setattr__(self, "voltages", v)
        object.__setattr__(self, "values", y)

    @classmethod
    def from_csv(cls, path) -> "CalibrationCurve":
        """Read "voltage_v,delta_f_hz" or "voltage_v,phase_rad" CSV."""
        with open(path) as fh:
            header = fh.readline().strip().lower()
            rows = read_csv(fh)
        if header == "voltage_v,delta_f_hz":
            kind = "delta_f"
        elif header == "voltage_v,phase_rad":
            kind = "phase"
        else:
            raise DomainError(f"unrecognized calibration header {header!r}")
        if rows.shape[1] != 2:
            raise DomainError(f"calibration CSV must be rows of 2 numbers, got shape {rows.shape}")
        return cls(rows[:, 0], rows[:, 1], kind)

    def sample(self, v: float) -> float:
        v = float(v)
        if not self.voltages[0] <= v <= self.voltages[-1]:
            raise OutOfRange(
                f"{v} V outside calibration range [{self.voltages[0]}, {self.voltages[-1]}]")
        return float(np.interp(v, self.voltages, self.values))


def phase_from_voltage(cal: CalibrationCurve, v: float, length_periods: int,
                       v_g: float, pitch: float) -> float:
    """Phase shift (rad) of a `length_periods`-long shifter at bias `v`.

    Band-shift tables are converted with the forward-positive sign rule of
    :func:`phoncirc.elasticity.phase_accumulation`; phase tables are
    interpolated directly.  The shifter length must be non-negative and the
    lattice pitch positive, as in :func:`phoncirc.elasticity.path_dilatation`.
    """
    if not 0.0 < pitch < math.inf:
        raise DomainError(f"lattice pitch must be positive and finite, got {pitch}")
    if not length_periods >= 0:
        raise DomainError(f"shifter length must be a non-negative period count, "
                          f"got {length_periods}")
    value = cal.sample(v)
    if cal.kind == "phase":
        return value
    from .elasticity import phase_accumulation
    return phase_accumulation(value, v_g, length_periods * pitch)


def mirror_state(delta_f: float, band_edge_offset: float) -> str:
    """Classify a biased waveguide as "propagating" or "reflecting".

    `band_edge_offset` (> 0, Hz) is how far the band edge at k = pi/a sits
    above the operating frequency.  Shifting the band down by at least the
    offset (delta_f <= -offset) pushes the operating point into the gap.
    """
    if not 0.0 < band_edge_offset < math.inf:
        raise DomainError(f"band edge offset must be positive and finite, got {band_edge_offset}")
    if not math.isfinite(delta_f):
        raise DomainError(f"band shift must be finite, got {delta_f}")
    return "reflecting" if delta_f <= -band_edge_offset else "propagating"
