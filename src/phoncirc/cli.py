"""Batch command-line front end.

Four tools, one verb each run: ``phoncirc {tensor|slh|memory|pmmi} <verb>``.
Each verb is declared once, in the table :data:`_TOOLS`, with its options and
what ``--output`` writes; its function only computes and returns its result
(and, for a table, the CSV header and columns), and :func:`main` emits it.
Every run prints a JSON envelope ``{"manifest": ..., "result": ...}`` on
stdout; ``--output`` additionally writes the primary result (JSON or CSV)
to a file.  The manifest echoes the resolved parameters and the wall time;
everything else is deterministic for identical inputs.

JSON is written as ``json.dump(obj, indent=2, sort_keys=True)`` would write
it, byte for byte, by a streamed writer (:func:`_write_json`).  The writer
lays out by hand only the indentation of non-empty objects and arrays, which
the C encoder cannot produce (the indenting encoder is the pure-Python one);
every scalar, key and empty container and each list of numbers is encoded
by the C encoder.  A mesh plan's elements reach the writer as the plan's
columns (a :class:`_Records`), never as a dict per element: they are encoded
`_CHUNK` records per C-encoder call and laid out by one row template, and a
long laid-out text goes to the ``--output`` file in newline-aligned pieces
(:func:`_write_dedented`), not as a second full copy.  A CSV table is
formatted ``%.12g`` from one template per run of rows (:func:`_write_csv`).
The ``json`` module reads every input file.

Frequency-like inputs (kappa_e, r, detunings, band shifts) are ordinary
frequencies in Hz and are multiplied by 2*pi internally; delays are in ns.
Exit codes: 0 success, 2 for an :class:`~phoncirc.errors.InputError` or a
``ValueError``, ``KeyError`` or ``OSError`` from reading the input, 1 for a
:class:`~phoncirc.errors.ComputationError` or any other exception; either
failure prints one line on stderr and nothing on stdout, and the warnings
raised on the way to it are dropped.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, circuits, elasticity, memory, slh
from ._jsoncheck import NUMBER, json_list
from .errors import DomainError, InputError


def _complex_json(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _triplet_json(g: slh.SLHTriplet) -> dict:
    coeffs = slh.master_eq_coeffs(g)
    return {
        "n_ports": g.n_ports,
        "n_modes": g.n_modes,
        "S": _complex_json(g.S),
        "L": _complex_json(g.L),
        "H": _complex_json(g.H),
        "master_equation": {
            "drift": _complex_json(coeffs.drift),
            "input_coupling": _complex_json(coeffs.input_coupling),
        },
    }


def _parse_strain(text: str) -> np.ndarray:
    if text == "zeros":
        return np.zeros(6)
    value = json_list(json.loads(text), NUMBER, "strain values")
    if len(value) != 6:
        raise DomainError("strain must be a JSON list of 6 numbers or 'zeros'")
    return np.asarray(value, dtype=float)


def _load_moduli(path: str | None) -> elasticity.CubicModuli:
    return elasticity.SILICON if path is None else elasticity.CubicModuli.from_json(path)


def _grid_ns(text: str) -> tuple[float, float, int]:
    """ "start:stop:step" in ns as (start, step, point count); the stop point is
    included when it lies on the step lattice."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if (not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start
            or not math.isfinite((stop - start) / step)):
        raise DomainError("grid needs finite values and point count, step > 0, stop >= start")
    return start, step, math.floor((stop - start) / step + 1e-9) + 1


_ENCODE = json.JSONEncoder(sort_keys=True).encode   # compact, C-accelerated
_LEAF_TYPES = frozenset((int, float, bool, type(None)))
_CHUNK = 256  # records per C-encoder call of a `_Records` list
_PIECE = 1 << 16  # characters per write of a laid-out text to a file
_CSV_ROWS = 512  # rows per write of a CSV table


class _Records:
    """A list of flat numeric records held as its columns: `columns` maps each
    key to a 1-d numpy array, one entry per record."""

    def __init__(self, columns: dict):
        self.columns = columns


def _write_json(write, obj, level: int = 0) -> None:
    """Stream `obj` to `write` as ``json.dump(obj, indent=2, sort_keys=True)`` does.

    The bytes are the same.  Only the indentation of a non-empty dict, list
    or tuple is written here, and a `_Laid` text as it is; every other text (a
    scalar, ``{}``, ``[]``, a non-str key) comes from the C encoder, which
    also refuses an unsupported object.  A list of numbers goes through the C
    encoder in one call, laid out by string replacement, and a `_Records` is
    written as its list of records {key: column[k]}.
    """
    if type(obj) is _Records:
        _write_records(write, obj.columns, level)
    elif isinstance(obj, (list, tuple)) and obj:
        inner = "\n" + "  " * (level + 1)
        close = "\n" + "  " * level + "]"
        if set(map(type, obj)) <= _LEAF_TYPES:
            write("[" + inner + _ENCODE(obj)[1:-1].replace(", ", "," + inner) + close)
            return
        sep = "[" + inner
        for item in obj:
            write(sep)
            _write_json(write, item, level + 1)
            sep = "," + inner
        write(close)
    elif isinstance(obj, dict) and obj:
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not isinstance(key, (int, float, type(None))):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = _ENCODE(key)
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(write, value, level + 1)
            sep = "," + inner
        write("\n" + "  " * level + "}")
    else:
        write(obj if type(obj) is _Laid else _ENCODE(obj))


class _Laid(str):
    """JSON text already laid out at its depth, which `_write_json` writes as is."""


def _layout(value, level: int) -> _Laid:
    parts = []
    _write_json(parts.append, value, level)
    return _Laid("".join(parts))


def _write_records(write, columns: dict, level: int) -> None:
    """Write the records of `columns` as the list of dicts {key: column[k]},
    `_CHUNK` records per C-encoder call, each chunk's text laid out by one row
    template: no string occurs in that text, so its ", " separators are
    exactly the item separators."""
    keys = sorted(columns)
    values = [columns[key].tolist() for key in keys]
    n, width = len(values[0]), len(keys)
    if not n:
        write("[]")
        return
    inner = "\n" + "  " * (level + 2)
    row = ("{" + inner
           + ("," + inner).join(encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                                for k in keys)
           + "\n" + "  " * (level + 1) + "}")
    sep = "[\n" + "  " * (level + 1)
    between = ",\n" + "  " * (level + 1)
    chunk = [None] * (width * _CHUNK)
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        del chunk[width * m:]
        for j, column in enumerate(values):
            chunk[j::width] = column[start:start + m]
        write(sep + between.join([row] * m) % tuple(_ENCODE(chunk)[1:-1].split(", ")))
        sep = between
    write("\n" + "  " * level + "]")


def _write_dedented(write, text: str) -> None:
    """Write `text` one indent level up, in pieces of about `_PIECE` characters
    that each start at a newline, so that no second full copy of a long text
    is made (no laid-out string holds a raw newline, so every newline starts
    an indent)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PIECE)
        end = len(text) if end < 0 else end
        write(text[start:end].replace("\n  ", "\n"))
        start = end


def _write_csv(write, header: str, columns) -> None:
    """Write the table of equal-length 1-d `columns` under `header`, `%.12g`
    per value, one row template per run of `_CSV_ROWS` rows."""
    write(header + "\n")
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), _CSV_ROWS):
        rows = np.column_stack([c[start:start + _CSV_ROWS] for c in columns])
        write(row * len(rows) % tuple(rows.ravel().tolist()))


def _emit(args, result: dict, csv, t0: float) -> None:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "tool", "verb")}
    if args.output:
        if csv is None:
            # each value is laid out once, at its depth in the envelope; the
            # file holds the same text one indent level up
            result = {key: _layout(value, 2) for key, value in result.items()}
        with open(args.output, "w") as fh:
            if csv is not None:
                _write_csv(fh.write, *csv)
            else:
                _write_json(lambda text: _write_dedented(fh.write, text), result, 1)
                fh.write("\n")
        result = dict(result, output_path=args.output)
    envelope = {
        "manifest": {
            "command": f"{args.tool} {args.verb}",
            "parameters": params,
            "version": __version__,
            "wall_time_s": round(time.monotonic() - t0, 6),
        },
        "result": result,
    }
    _write_json(sys.stdout.write, envelope)
    sys.stdout.write("\n")


# --- verbs: each returns (result, csv), csv = (header, 1-d columns) or None ------

def _cmd_tensor_energy(args):
    s = _parse_strain(args.strain)
    moduli = _load_moduli(args.moduli)
    w = elasticity.strain_energy(s, moduli, order=args.order)
    return {"strain": s.tolist(), "order": args.order, "energy_density_j_per_m3": w}, None


def _cmd_tensor_phonoelastic(args):
    s = _parse_strain(args.strain)
    m = elasticity.phonoelastic_matrix(s, _load_moduli(args.moduli))
    return {"strain": s.tolist(), "matrix_pa": m.tolist()}, None


def _cmd_tensor_bond(args):
    s = _parse_strain(args.strain)
    m = elasticity.phonoelastic_matrix(s, _load_moduli(args.moduli))
    rotated = elasticity.bond_rotate(m, args.xi)
    return {"strain": s.tolist(), "xi_rad": args.xi, "matrix_pa": rotated.tolist()}, None


def _cmd_slh_compose(args):
    return _triplet_json(slh.run_network(args.network)), None


def _cmd_memory_fidelity(args):
    consts = memory.profile_constants(args.ratio)
    result = {"ratio": args.ratio, "a1": consts.a1, "tau_c": consts.tau_c}
    if args.kappa_e_hz is not None:
        result["t_c_s"] = memory.critical_time(args.ratio, 2 * math.pi * args.kappa_e_hz)
    return result, None


def _profile_for(config: memory.TransferConfig):
    profile = memory.optimal_profile(config.ratio)
    if config.slope_cap is not None:
        profile = memory.discretize_profile(profile, slope_cap=config.slope_cap,
                                            horizon=config.horizon)
    return profile


def _steps(run) -> dict:
    """What a memory run actually stepped: the step, the step count, the
    delay in steps and the end time (a TransferResult or a RunPlan)."""
    return {key: getattr(run, key) for key in ("step", "n_steps", "delay_steps", "tau_end")}


def _cmd_memory_simulate(args):
    config = memory.TransferConfig.from_json(args.config)
    delayed = config.delta_f != 0.0 or config.delta_m != 0.0 or config.delta_c != 0.0
    # the run is sized, or refused, before its profile is sampled
    memory.plan_run(config, (1, 1) if delayed else ())
    profile = _profile_for(config)
    run = memory.simulate_with_delay if delayed else memory.simulate_transfer
    res = run(config, profile)
    summary = {
        "fidelity": res.fidelity,
        "reflected_fraction": res.reflected_fraction,
        "intrinsic_fraction": res.intrinsic_fraction,
        "delayed": delayed,
        "horizon": config.horizon,
        **_steps(res),
    }
    if not args.output:
        return summary, None
    theta = np.asarray(profile.theta(res.tau), dtype=float)
    return summary, ("tau_prime,re_A,im_A,theta",
                     (res.tau, res.amplitude.real, res.amplitude.imag, theta))


def _cmd_memory_optimize(args):
    config = memory.TransferConfig.from_json(args.config)
    (dm0, dm_step, n_dm), (dc0, dc_step, n_dc) = _grid_ns(args.dm_grid), _grid_ns(args.dc_grid)
    # the point counts size the scan, or refuse it, before its profile or grids are built
    try:
        memory.plan_run(config, (n_dm, n_dc))
    except DomainError as exc:
        raise DomainError(f"lag grid --dm-grid {args.dm_grid} x --dc-grid {args.dc_grid}: {exc}")
    profile = _profile_for(config)
    dm_ns, dc_ns = dm0 + dm_step * np.arange(n_dm), dc0 + dc_step * np.arange(n_dc)
    scan = memory.optimize_delays(config, profile, dm_ns * 1e-9, dc_ns * 1e-9)
    # the chosen lags as the grid's own ns values, not a round trip through seconds
    i = int(np.argmax(scan.dm_grid == scan.delta_m))
    j = int(np.argmax(scan.dc_grid == scan.delta_c))
    summary = {
        "delta_m_ns": float(dm_ns[i]),
        "delta_c_ns": float(dc_ns[j]),
        "fidelity": scan.fidelity,
        **_steps(scan.plan),
    }
    if not args.output:
        return summary, None
    return summary, ("delta_m_ns,delta_c_ns,fidelity",
                     (np.repeat(dm_ns, dc_ns.size), np.tile(dc_ns, dm_ns.size),
                      scan.fidelity_grid.ravel()))


def _read_unitary_csv(path: str) -> np.ndarray:
    rows = circuits.read_csv(path)
    n = rows.shape[0]
    if rows.shape[1] != 2 * n:
        raise DomainError(f"unitary CSV must be N rows of 2N reals, got {rows.shape}")
    return rows[:, 0::2] + 1j * rows[:, 1::2]


def _cmd_pmmi_decompose(args):
    u = _read_unitary_csv(args.unitary)
    plan = circuits.reck_decompose(u)
    err = float(np.max(np.abs(plan.matrix() - u)))
    return {"screen": plan.screen.tolist(), "elements": _Records(plan.columns()),
            "reconstruction_error": err}, None


def _cmd_pmmi_apply(args):
    if (args.input is None) == (args.basis is None):
        raise DomainError("give exactly one of --input or --basis")
    with open(args.plan) as fh:
        plan = circuits.MeshPlan.from_json(fh.read())
    if args.input is not None:
        row = circuits.read_csv(args.input)
        if row.shape[0] != 1 or row.shape[1] != 2 * plan.n_modes or not np.isfinite(row).all():
            raise DomainError("input CSV must be one row of 2N finite reals (re, im)")
        x = row[0, 0::2] + 1j * row[0, 1::2]
    elif not 0 <= args.basis < plan.n_modes:
        raise DomainError(f"basis index must lie in 0..{plan.n_modes - 1}")
    else:
        x = np.zeros(plan.n_modes, dtype=complex)
        x[args.basis] = 1.0
    y = circuits.mesh_apply(plan, x)
    return {"output_re": y.real.tolist(), "output_im": y.imag.tolist()}, None


# --- the verb table -------------------------------------------------------------

_STRAIN = ("--strain", {"required": True,
                        "help": "JSON list of 6 Voigt strains (engineering shears) or 'zeros'"})
_MODULI = ("--moduli", {"help": "JSON file overriding the Si moduli (Pa)"})
_CONFIG = ("--config", {"required": True, "help": "JSON transfer config"})
_JSON = "the result JSON"

# tool: (help, {verb: (function, what --output writes, [(flag, add_argument keywords)])})
_TOOLS = {
    "tensor": ("strain energy and stiffness tensors", {
        "energy": (_cmd_tensor_energy, _JSON, [
            _STRAIN, _MODULI,
            ("--order", {"choices": ["second", "third"], "default": "third"})]),
        "phonoelastic": (_cmd_tensor_phonoelastic, _JSON, [_STRAIN, _MODULI]),
        "bond": (_cmd_tensor_bond, _JSON, [
            _STRAIN, _MODULI,
            ("--xi", {"type": float, "required": True,
                      "help": "rotation angle about [001], radians"})]),
    }),
    "slh": ("compose SLH networks", {
        "compose": (_cmd_slh_compose, _JSON, [
            ("--network", {"required": True,
                           "help": "JSON network description (nodes + script)"})]),
    }),
    "memory": ("state-transfer simulations", {
        "fidelity": (_cmd_memory_fidelity, _JSON, [
            ("--ratio", {"type": float, "required": True, "help": "r / kappa_e"}),
            ("--kappa-e-hz", {"type": float,
                              "help": "report the critical time in seconds for this rate"})]),
        "simulate": (_cmd_memory_simulate, "the trajectory CSV", [_CONFIG]),
        "optimize": (_cmd_memory_optimize, "the scan CSV", [
            _CONFIG,
            ("--dm-grid", {"default": "0:60:1",
                           "help": "mirror lag grid, ns, as start:stop:step"}),
            ("--dc-grid", {"default": "-60:0:1",
                           "help": "detuning lag grid, ns, as start:stop:step"})]),
    }),
    "pmmi": ("interferometer mesh synthesis", {
        "decompose": (_cmd_pmmi_decompose, "the mesh plan JSON", [
            ("--unitary", {"required": True,
                           "help": "CSV; N rows of 2N reals alternating re, im"})]),
        "apply": (_cmd_pmmi_apply, _JSON, [
            ("--plan", {"required": True, "help": "mesh plan JSON file"}),
            ("--input", {"help": "CSV; one row of 2N reals alternating re, im"}),
            ("--basis", {"type": int, "help": "0-based basis vector index"})]),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phoncirc",
        description="Strain-tuned phononic circuit toolkit (frequencies in Hz, "
                    "converted to angular internally; delays in ns).")
    parser.add_argument("--version", action="version", version=__version__)
    tools = parser.add_subparsers(dest="tool", required=True)
    for tool, (help_text, verbs) in _TOOLS.items():
        subs = tools.add_parser(tool, help=help_text).add_subparsers(dest="verb", required=True)
        for verb, (func, writes, options) in verbs.items():
            sub = subs.add_parser(verb)
            for flag, keywords in options:
                sub.add_argument(flag, **keywords)
            sub.add_argument("--output", help=f"write {writes} here")
            sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        # a refused run prints its one error line alone: the verb's warnings
        # are shown only once it has succeeded
        with warnings.catch_warnings(record=True) as caught:
            result, csv = args.func(args)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        _emit(args, result, csv, t0)
    except (InputError, ValueError, KeyError, OSError) as exc:
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a ComputationError, or a fault of the program itself
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
