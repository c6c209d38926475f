"""Composition algebra for linear passive SLH network nodes.

A node is a triplet (S, L, H) acting on n_ports input/output channels and
n_modes internal bosonic modes:

* ``S`` -- n_ports x n_ports unitary scattering matrix (scalar entries),
* ``L`` -- n_ports x n_modes coupling coefficients; row i gives the
  Lindblad operator L_i = sum_j L[i, j] a_j, in sqrt(rad/s),
* ``H`` -- n_modes x n_modes Hermitian coefficients of the quadratic
  Hamiltonian H_op = sum_jk H[j, k] a_j^dag a_k (hbar = 1, rad/s).

Restricting to this linear passive family keeps concatenation, the series
product and feedback elimination exact matrix algebra; no operator
symbolics are needed.  Port indices in the public API are 1-based, matching
the usual "output 1", "input 2" bookkeeping of network diagrams.
Concatenation and the series product share one block-diagonal rule, and
:func:`run_network` calls each composition through one op table.

:func:`tunable_coupling_loop` builds the cavity/phase-shifter/mirror loop
of the reconfigurable phonon memory by composing these primitives;
:func:`tunable_coupling_closed_form` states the same composite directly, so
the two routes can be checked against each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._jsoncheck import OBJECT, REQUIRED, json_list, json_numbers, json_object, read_object
from .errors import DomainError, PortMismatch, SingularLoop

__all__ = [
    "SLHTriplet",
    "MasterEqCoeffs",
    "cavity_node",
    "phase_node",
    "trivial_node",
    "concatenate",
    "series",
    "feedback",
    "master_eq_coeffs",
    "effective_rate",
    "tunable_coupling_loop",
    "tunable_coupling_closed_form",
    "run_network",
]

_UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class SLHTriplet:
    """Immutable (S, L, H) description of a linear passive network node."""

    S: np.ndarray
    L: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.S, dtype=complex))
        n = S.shape[0]
        if S.shape != (n, n):
            raise DomainError(f"scattering matrix must be square, got {S.shape}")
        L = np.asarray(self.L, dtype=complex).reshape(n, -1)
        m = L.shape[1]
        H = np.asarray(self.H, dtype=complex).reshape(m, m)
        if not (np.isfinite(S).all() and np.isfinite(L).all() and np.isfinite(H).all()):
            raise DomainError("S, L and H must be finite")
        if not np.max(np.abs(S @ S.conj().T - np.eye(n))) <= _UNITARY_TOL:
            raise DomainError("scattering matrix is not unitary")
        if m and not np.max(np.abs(H - H.conj().T)) <= _UNITARY_TOL:
            raise DomainError("Hamiltonian matrix is not Hermitian")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "H", H)

    @property
    def n_ports(self) -> int:
        return self.S.shape[0]

    @property
    def n_modes(self) -> int:
        return self.L.shape[1]


@dataclass(frozen=True)
class MasterEqCoeffs:
    """Coefficient matrices of dA/dt = drift . A + input_coupling . A_in."""

    drift: np.ndarray           # n_modes x n_modes, rad/s
    input_coupling: np.ndarray  # n_modes x n_ports, sqrt(rad/s)


def cavity_node(kappa_e: float, kappa_i: float, detuning: float = 0.0) -> SLHTriplet:
    """Two-sided cavity with per-port rate kappa_e, loss port kappa_i (rad/s).

    Ports: 1 = left in / right out, 2 = right in / left out, 3 = intrinsic
    loss.  `detuning` is the single-mode Hamiltonian coefficient (rad/s); in
    the rotating frame the bare cavity has detuning 0.
    """
    if not (kappa_e >= 0.0 and kappa_i >= 0.0):
        raise DomainError("coupling rates must be non-negative numbers")
    L = np.array([[math.sqrt(kappa_e)], [math.sqrt(kappa_e)], [math.sqrt(kappa_i)]])
    return SLHTriplet(np.eye(3), L, np.array([[detuning]]))


def phase_node(theta: float) -> SLHTriplet:
    """Single-port, zero-mode phase shifter (e^{i theta}, 0, 0)."""
    return SLHTriplet(np.array([[cmath.exp(1j * theta)]]),
                      np.zeros((1, 0)), np.zeros((0, 0)))


def trivial_node(n: int) -> SLHTriplet:
    """n-port pass-through with no internal modes: (I_n, 0, 0)."""
    if n < 1:
        raise DomainError("port count must be at least 1")
    return SLHTriplet(np.eye(n), np.zeros((n, 0)), np.zeros((0, 0)))


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The complex block-diagonal [[a, 0], [0, b]]."""
    (r, c), (rb, cb) = a.shape, b.shape
    out = np.zeros((r + rb, c + cb), dtype=complex)
    out[:r, :c] = a
    out[r:, c:] = b
    return out


def concatenate(g1: SLHTriplet, g2: SLHTriplet) -> SLHTriplet:
    """Parallel composition: block-diagonal S, stacked L, block-sum H."""
    return SLHTriplet(_block_diag(g1.S, g2.S), _block_diag(g1.L, g2.L),
                      _block_diag(g1.H, g2.H))


def series(g2: SLHTriplet, g1: SLHTriplet) -> SLHTriplet:
    """Series product g2 <| g1: every output of g1 feeds the same input of g2.

    Modes of the composite are ordered [g1 modes, g2 modes].
    """
    if g1.n_ports != g2.n_ports:
        raise PortMismatch(f"series needs equal port counts, got {g1.n_ports} and {g2.n_ports}")
    m1, m2 = g1.n_modes, g2.n_modes
    S = g2.S @ g1.S
    L = np.hstack([g2.S @ g1.L, g2.L])
    H = _block_diag(g1.H, g2.H)
    # interaction picked up by routing g1's output through g2: Im(L2^dag S2 L1)
    x = np.zeros((m1 + m2, m1 + m2), dtype=complex)
    x[m1:, :m1] = g2.L.conj().T @ g2.S @ g1.L
    H += (x - x.conj().T) / 2j
    return SLHTriplet(S, L, H)


def feedback(g: SLHTriplet, out_port: int, in_port: int) -> SLHTriplet:
    """Close the loop from `out_port` into `in_port` (1-based, distinct).

    The eliminated channel must not form a unit-gain algebraic loop:
    1 - S[out_port, in_port] has to be invertible.
    """
    n = g.n_ports
    if not (1 <= out_port <= n and 1 <= in_port <= n):
        raise DomainError(f"port indices must lie in 1..{n}")
    if out_port == in_port:
        raise DomainError("feedback requires distinct output and input ports")
    x = out_port - 1
    y = in_port - 1
    gain = g.S[x, y]
    if abs(1.0 - gain) < 1e-12:
        raise SingularLoop(f"unit-gain loop: S[{out_port},{in_port}] = {gain:.6g}")
    keep_out = [i for i in range(n) if i != x]
    keep_in = [j for j in range(n) if j != y]
    inv = 1.0 / (1.0 - gain)
    S = g.S[np.ix_(keep_out, keep_in)] + inv * np.outer(g.S[keep_out, y], g.S[x, keep_in])
    L = g.L[keep_out, :] + inv * np.outer(g.S[keep_out, y], g.L[x, :])
    xmat = inv * np.outer(g.L.conj().T @ g.S[:, y], g.L[x, :])
    H = g.H + (xmat - xmat.conj().T) / 2j
    return SLHTriplet(S, L, H)


def master_eq_coeffs(g: SLHTriplet) -> MasterEqCoeffs:
    """Heisenberg-picture coefficients for the mode amplitudes of a triplet.

    dA/dt = (-iH - L^dag L / 2) A - L^dag S A_in, with the input-output
    relation A_out = S A_in + L A.
    """
    drift = -1j * g.H - 0.5 * g.L.conj().T @ g.L
    input_coupling = -g.L.conj().T @ g.S
    return MasterEqCoeffs(drift=drift, input_coupling=input_coupling)


def effective_rate(theta: float, kappa_e: float) -> float:
    """Raw output power rate 2 kappa_e (1 + cos theta) of the closed loop (rad/s)."""
    if not 0.0 <= kappa_e < math.inf:
        raise DomainError(f"kappa_e must be non-negative and finite, got {kappa_e}")
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    return 2.0 * kappa_e * (1.0 + math.cos(theta))


def tunable_coupling_loop(theta: float, kappa_e: float, kappa_i: float,
                          corrected: bool = True) -> SLHTriplet:
    """Compose the cavity + round-trip phase shifter + mirror loop.

    The cavity's rightward output passes a phase shifter twice (total phase
    `theta`) before re-entering from the right; eliminating that connection
    leaves a 2-port system (IO channel, loss channel).  With
    ``corrected=True`` the input/output phase shifters (-theta/2 each) and
    the counter-detuned cavity are included, which cancels both the stray
    input phase and the loop-induced detuning.
    """
    two, half = trivial_node(2), phase_node(-theta / 2.0)
    g = cavity_node(kappa_e, kappa_i, -kappa_e * math.sin(theta) if corrected else 0.0)
    if corrected:  # a -theta/2 shifter in front of the cavity's input 1
        g = series(g, concatenate(half, two))
    g = series(concatenate(phase_node(theta), two), g)  # the loop phase on output 1
    if corrected:  # and a -theta/2 shifter on the IO output 2
        g = series(concatenate(trivial_node(1), concatenate(half, trivial_node(1))), g)
    return feedback(g, out_port=1, in_port=2)


def tunable_coupling_closed_form(theta: float, kappa_e: float, kappa_i: float,
                                 corrected: bool = True) -> SLHTriplet:
    """Closed-form composite triplet of the loop, for checking the algebra."""
    ke, ki = math.sqrt(kappa_e), math.sqrt(kappa_i)
    if corrected:
        S = np.eye(2)
        L = np.array([[2.0 * ke * math.cos(theta / 2.0)], [ki]])
        H = np.zeros((1, 1))
    else:
        S = np.diag([cmath.exp(1j * theta), 1.0])
        L = np.array([[ke * (cmath.exp(1j * theta) + 1.0)], [ki]])
        H = np.array([[kappa_e * math.sin(theta)]])
    return SLHTriplet(S, L, H)


# --- JSON network description ------------------------------------------------
#
# {"nodes": [{"name": "g1", "kind": "cavity",
#             "params": {"kappa_e_hz": 3e5, "kappa_i_hz": 1.0, "detuning_hz": 0}},
#            {"name": "ph", "kind": "phase", "params": {"theta_rad": 1.2}},
#            {"name": "t2", "kind": "trivial", "params": {"n": 2}}],
#  "script": [{"op": "concat", "args": ["ph", "t2"], "name": "a"},
#             {"op": "series", "args": ["a", "g1"], "name": "b"},
#             {"op": "feedback", "args": ["b", 1, 2], "name": "out"}]}
#
# Rates are entered as ordinary frequencies in Hz and multiplied by 2*pi
# here; feedback ports are 1-based.  A step's name, if any, is new and
# non-empty.  The result is the last step's node, or with an empty script
# the last declared node.  Each object holds only the keys
# of its table below, params values are JSON numbers, and _OPS types each op's args.

_NETWORK = {"nodes": [], "script": []}
_NODE = {"name": REQUIRED, "kind": REQUIRED, "params": {}}
_PARAMS = {"cavity": {"kappa_e_hz": 0.0, "kappa_i_hz": 0.0, "detuning_hz": 0.0},
           "phase": {"theta_rad": 0.0}, "trivial": {"n": 1}}
_STEP = {"op": REQUIRED, "args": REQUIRED, "name": None}
# op -> (name of the composition function, types of its args)
_OPS = {"concat": ("concatenate", [str, str]), "series": ("series", [str, str]),
        "feedback": ("feedback", [str, int, int])}


def _build_node(kind, params, what: str) -> SLHTriplet:
    fields = _PARAMS.get(kind) if type(kind) is str else None
    if fields is None:
        raise DomainError(f"unknown node kind {kind!r}")
    p = json_numbers(json_object(params, fields, what), "node param")
    if kind == "cavity":  # the table lists the rates in cavity_node's argument order
        return cavity_node(*(2.0 * math.pi * float(v) for v in p.values()))
    if kind == "phase":
        return phase_node(float(p["theta_rad"]))
    if type(p["n"]) is not int:
        raise DomainError(f"trivial node port count must be a JSON integer, got {p['n']!r}")
    return trivial_node(p["n"])


def run_network(source) -> SLHTriplet:
    """Build the nodes and run the script of a network description (path or parsed)."""
    registry: dict[str, SLHTriplet] = {}
    doc = read_object(source, _NETWORK, "network description")
    nodes = json_list(doc["nodes"], OBJECT, "network nodes")
    if not nodes:
        raise DomainError("network description declares no nodes")
    for spec in nodes:
        name, kind, params = json_object(spec, _NODE, "network node").values()
        if type(name) is not str or not name or name in registry:
            raise DomainError(f"node needs a unique name, got {name!r}")
        registry[name] = last = _build_node(kind, params, f"params of node {name!r}")
    for step in json_list(doc["script"], OBJECT, "network script steps"):
        op, args, name = json_object(step, _STEP, "network script step").values()
        if type(op) is not str or op not in _OPS:
            raise DomainError(f"unknown script op {op!r}")
        compose, want = _OPS[op]
        if type(args) is not list or [*map(type, args)] != want:
            raise DomainError(f"{op} takes args of types "
                              f"{[t.__name__ for t in want]}, got {args!r}")
        if name is not None and (type(name) is not str or not name or name in registry):
            raise DomainError(f"script step name must be a new, non-empty string, got {name!r}")
        unknown = [a for a in args if type(a) is str and a not in registry]
        if unknown:
            raise DomainError(f"{op} names the unknown node {unknown[0]!r}")
        # looked up by name at call time, so a wrapper set on the module attribute runs
        last = globals()[compose](*(registry[a] if type(a) is str else a for a in args))
        if name is not None:
            registry[name] = last
    return last
