"""Seeded job lists for the four benchmark workloads, and their output checks.

A workload is a fixed list of ``phoncirc`` CLI invocations (argv lists) over
input files written into a work directory.  The argv name files relative to
that directory, where the jobs run, so outputs (which echo the argv) do not
depend on where the checkout lives; the job fields the checks read hold
absolute paths.  The seed picks the inputs; the
amount of work per list does not depend on it, so wall times from different
seeds are comparable.  ``smoke=True`` gives a reduced list with the same mix,
for the benchmark's own smoke test.

Each job carries what its check needs.  A check returns ``(reason, drift)``:
``reason`` is ``None`` when the job's stdout (and any ``--output`` file) is
right, else one line saying what is wrong; ``drift`` is the job's distance
from its reference where the workload reports one, else ``None``.
``bias`` is added to every reference value; it is 0 except in the smoke test,
which uses it to show that each check can fail.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from phoncirc import circuits, elasticity, memory, slh

WORKLOADS = ("delay-scan", "trajectories", "mesh-program", "small-jobs")
DEFAULT_SEED = 0

KAPPA_E_HZ = 300e3
_HERE = os.path.dirname(os.path.abspath(__file__))

# acceptance bounds of the repository's own tests
_ORACLE_TOL = 1e-6          # criterion 9
_ENERGY_TOL = 1e-3          # test_delay_energy_bookkeeping
_RECON_TOL = 1e-10          # reconstruction error of a mesh plan
_COLUMN_TOL = 1e-9          # apply --basis k against column k of the unitary
_REL_TOL = 1e-9             # library values re-computed directly


def load_reference() -> dict:
    with open(os.path.join(_HERE, "reference.json")) as fh:
        return json.load(fh)


def _write_json(workdir: str, name: str, doc) -> str:
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(doc, fh)
    return name


def _result(stdout: str) -> dict:
    return json.loads(stdout)["result"]


def _complex(doc: dict) -> np.ndarray:
    return np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])


# --- delay-scan ----------------------------------------------------------------
#
# One `memory optimize` on the criterion-3 problem.  The seed moves the two grid
# origins by a fraction of the 1 ns step: the mirror lag only downwards, because
# the fidelity ridge is flat to ~1e-6 and an upward shift lets the argmax slide
# to delta_c ~ -36.8 ns, outside the criterion-3 window.

SCAN_CONFIG = {"kappa_e_hz": KAPPA_E_HZ, "r_hz": KAPPA_E_HZ / 3, "kappa_i_hz": 1.0,
               "delta_f_ns": 60.0, "horizon": 50.0}


def _scan_grids(seed: int, smoke: bool) -> tuple[str, str]:
    if seed == DEFAULT_SEED:
        sm = sc = 0.0
    else:
        rng = np.random.default_rng([seed, 0])
        sm = round(float(rng.uniform(-0.45, -0.05)), 3)
        sc = round(float(rng.uniform(-0.45, 0.45)), 3)
    if smoke:
        return f"{15 + sm:g}:{27 + sm:g}:3", f"{-40 + sc:g}:{-28 + sc:g}:3"
    return f"{sm:g}:{60 + sm:g}:1", f"{-60 + sc:g}:{sc:g}:1"


def _delay_scan(seed, workdir, smoke):
    cfg = _write_json(workdir, "scan.json", SCAN_CONFIG)
    dm, dc = _scan_grids(seed, smoke)
    return [{"kind": "scan", "argv": ["memory", "optimize", "--config", cfg,
                                      f"--dm-grid={dm}", f"--dc-grid={dc}"],
             "grid": [dm, dc], "size": "smoke" if smoke else "full",
             "default_seed": seed == DEFAULT_SEED}]


def scan_shape(job: dict) -> tuple[int, int]:
    """Cells of a scan job's (dm, dc) grid, from its start:stop:step strings."""
    def count(text):
        start, stop, step = (float(p) for p in text.split(":"))
        return int(round((stop - start) / step)) + 1
    return count(job["grid"][0]), count(job["grid"][1])


def _check_scan(job, stdout, ref, bias):
    res = _result(stdout)
    win = ref["delay-scan"]["window"]
    for key in ("delta_m_ns", "delta_c_ns", "fidelity"):
        centre, half = win[key]
        if not abs(res[key] - (centre + bias)) <= half:
            return f"{key} = {res[key]} outside {centre} +- {half}", None
    want = ref["delay-scan"]["fidelity"][job["size"]] + bias
    drift = res["fidelity"] - want
    if job["default_seed"] and not abs(drift) <= ref["delay-scan"]["fidelity_tol"]:
        return f"fidelity {res['fidelity']!r} differs from reference {want!r}", drift
    return None, drift


# --- trajectories ----------------------------------------------------------------
#
# Two delay-free lossless jobs (optimal or slope-capped profile) per delayed
# job; a quarter of the jobs also write the trajectory CSV.  Every job has
# horizon 25, so each integrates ~12.5k RK4 steps whatever the seed draws.
# The CSV goes to one delay-free job and the rest to delayed jobs, so the
# median job is always a delay-free one without CSV.

def _trajectories(seed, workdir, smoke):
    rng = np.random.default_rng([seed, 1])
    n_free, n_delay, n_csv_delay = (2, 1, 0) if smoke else (8, 4, 2)
    kinds = [("free", True)] + [("free", False)] * (n_free - 1) \
        + [("delay", True)] * n_csv_delay + [("delay", False)] * (n_delay - n_csv_delay)
    rng.shuffle(kinds)
    jobs = []
    for i, (kind, with_csv) in enumerate(kinds):
        if kind == "free":
            cfg = {"kappa_e_hz": KAPPA_E_HZ,
                   "r_hz": KAPPA_E_HZ * float(rng.uniform(0.15, 0.6)),
                   "kappa_i_hz": 0.0, "horizon": 25.0}
            if rng.random() < 0.5:
                cfg["slope_cap"] = float(rng.uniform(8.0, 30.0))
        else:
            delta_f = float(rng.uniform(20.0, 60.0))
            cfg = {"kappa_e_hz": KAPPA_E_HZ, "r_hz": KAPPA_E_HZ / 3,
                   "kappa_i_hz": 1.0, "horizon": 25.0, "delta_f_ns": delta_f,
                   "delta_m_ns": float(rng.uniform(0.0, delta_f)),
                   "delta_c_ns": float(rng.uniform(-delta_f, 0.0))}
        argv = ["memory", "simulate", "--config", _write_json(workdir, f"traj{i}.json", cfg)]
        job = {"kind": kind, "argv": argv, "config": cfg}
        if with_csv:
            job["csv"] = os.path.join(workdir, f"traj{i}.csv")
            argv += ["--output", f"traj{i}.csv"]
        jobs.append(job)
    return jobs


def _profile(config: memory.TransferConfig):
    profile = memory.optimal_profile(config.ratio)
    if config.slope_cap is not None:
        profile = memory.discretize_profile(profile, slope_cap=config.slope_cap,
                                            horizon=config.horizon)
    return profile


def _check_trajectory(job, stdout, ref, bias):
    res = _result(stdout)
    fid = res["fidelity"]
    config = memory.TransferConfig.from_json(job["config"])
    if job["kind"] == "free":
        want = memory.single_excitation_oracle(config, _profile(config)) + bias
        drift = abs(fid - want)
        if not drift < _ORACLE_TOL:
            return f"fidelity {fid!r} vs oracle {want!r}", drift
    else:
        drift = None
        rho, lag = config.ratio, config.kappa_e * config.delta_f
        lhs = fid * (1.0 + lag) + res["reflected_fraction"] + res["intrinsic_fraction"]
        rhs = (1.0 - math.exp(-rho * config.horizon)) + (math.exp(rho * lag) - 1.0) + bias
        if not abs(lhs - rhs) <= _ENERGY_TOL:
            return f"energy balance {lhs!r} vs {rhs!r}", drift
    if "csv" in job:
        last = np.loadtxt(job["csv"], delimiter=",", skiprows=1)[-1]
        if not abs(last[1] ** 2 + last[2] ** 2 - fid) <= _REL_TOL * fid:
            return "last CSV row disagrees with the reported fidelity", drift
    return None, drift


# --- mesh-program --------------------------------------------------------------
#
# Haar unitaries at a fixed list of sizes; each is decomposed to a plan file,
# then a few basis vectors are sent through the plan.  The sizes are fixed so
# every seed does the same work.  With four applies per size, the twelve
# N = 32 applies sit in the middle of the latency order, so the median job is
# one of them whatever the noise.
MESH_SIZES = (8, 8, 16, 16, 32, 32, 32, 64, 128, 256)
MESH_SIZES_SMOKE = (8, 16)


def _mesh_program(seed, workdir, smoke):
    rng = np.random.default_rng([seed, 2])
    sizes, n_apply = (MESH_SIZES_SMOKE, 2) if smoke else (MESH_SIZES, 4)
    jobs = []
    for i, n in enumerate(sizes):
        u = circuits.haar_unitary(n, rng)
        rows = np.empty((n, 2 * n))
        rows[:, 0::2], rows[:, 1::2] = u.real, u.imag
        csv, plan = f"u{i}.csv", f"plan{i}.json"
        np.savetxt(os.path.join(workdir, csv), rows, delimiter=",", fmt="%.17g")
        paths = {"unitary": os.path.join(workdir, csv), "plan": os.path.join(workdir, plan)}
        jobs.append({"kind": "decompose", "n": n, **paths,
                     "argv": ["pmmi", "decompose", "--unitary", csv, "--output", plan]})
        for k in rng.choice(n, size=n_apply, replace=False).tolist():
            jobs.append({"kind": "apply", "basis": k, **paths,
                         "argv": ["pmmi", "apply", "--plan", plan, "--basis", str(k)]})
    return jobs


def _read_unitary(path: str) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    return rows[:, 0::2] + 1j * rows[:, 1::2]


def _check_mesh(job, stdout, ref, bias):
    res = _result(stdout)
    if job["kind"] == "decompose":
        err = res["reconstruction_error"] + bias
        n = job["n"]
        if not err < _RECON_TOL:
            return f"reconstruction error {err!r}", err
        if len(res["elements"]) != n * (n - 1) // 2:
            return f"{len(res['elements'])} elements for N = {n}", err
        with open(job["plan"]) as fh:
            if json.load(fh)["elements"] != res["elements"]:
                return "plan file differs from the printed plan", err
        return None, err
    want = _read_unitary(job["unitary"])[:, job["basis"]] + bias
    got = np.asarray(res["output_re"]) + 1j * np.asarray(res["output_im"])
    if got.shape != want.shape or not np.max(np.abs(got - want)) < _COLUMN_TOL:
        return f"basis {job['basis']} output is not column {job['basis']} of the plan", None
    return None, None


# --- small-jobs ------------------------------------------------------------------
#
# Hundreds of jobs that each do microseconds of numerics: tensor energy/bond
# on seeded strains (some with a moduli file), slh compose of the corrected
# tunable-coupling loop at seeded theta, and memory fidelity at seeded ratios.

def loop_network(theta: float, kappa_e_hz: float, kappa_i_hz: float) -> dict:
    """Network file for the corrected loop, as `slh.tunable_coupling_loop` builds it."""
    def node(name, kind, **params):
        return {"name": name, "kind": kind, "params": params}

    def op(name, kind, *args):
        return {"op": kind, "args": list(args), "name": name}

    return {
        "nodes": [
            node("g0", "phase", theta_rad=-theta / 2.0),
            node("g1", "cavity", kappa_e_hz=kappa_e_hz, kappa_i_hz=kappa_i_hz,
                 detuning_hz=-kappa_e_hz * math.sin(theta)),
            node("g2", "phase", theta_rad=theta),
            node("g3", "phase", theta_rad=-theta / 2.0),
            node("one", "trivial", n=1),
            node("two", "trivial", n=2),
        ],
        "script": [
            op("a", "concat", "g0", "two"),
            op("b", "series", "g1", "a"),
            op("c", "concat", "g2", "two"),
            op("d", "series", "c", "b"),
            op("e", "concat", "g3", "one"),
            op("f", "concat", "one", "e"),
            op("g", "series", "f", "d"),
            op("loop", "feedback", "g", 1, 2),
        ],
    }


def _small_jobs(seed, workdir, smoke):
    rng = np.random.default_rng([seed, 3])
    n_energy, n_bond, n_slh, n_fid = (6, 4, 5, 5) if smoke else (100, 50, 100, 150)
    moduli = []
    for i in range(3 if smoke else 10):
        doc = {name: getattr(elasticity.SILICON, name) * float(rng.uniform(0.95, 1.05))
               for name in ("c11", "c44", "c111", "c123", "c456")}
        moduli.append(_write_json(workdir, f"moduli{i}.json", doc))

    def strain():
        return [round(float(v), 6) for v in rng.uniform(-2e-3, 2e-3, 6)]

    jobs = []
    for _ in range(n_energy):
        s, order = strain(), str(rng.choice(["second", "third"]))
        argv = ["tensor", "energy", "--strain", json.dumps(s), "--order", order]
        job = {"kind": "energy", "argv": argv, "strain": s, "order": order, "moduli": None}
        if rng.random() < 0.3:
            name = moduli[int(rng.integers(len(moduli)))]
            job["moduli"] = os.path.join(workdir, name)
            argv += ["--moduli", name]
        jobs.append(job)
    for _ in range(n_bond):
        s, xi = strain(), float(rng.uniform(0.0, math.pi))
        jobs.append({"kind": "bond", "xi": xi, "strain": s, "moduli": None,
                     "argv": ["tensor", "bond", "--strain", json.dumps(s), "--xi", repr(xi)]})
    for i in range(n_slh):
        theta = float(rng.uniform(0.0, math.pi))
        net = _write_json(workdir, f"net{i}.json", loop_network(theta, KAPPA_E_HZ, 1.0))
        jobs.append({"kind": "slh", "theta": theta,
                     "argv": ["slh", "compose", "--network", net]})
    for _ in range(n_fid):
        ratio = float(rng.uniform(0.05, 3.5))
        with_rate = bool(rng.random() < 0.5)
        argv = ["memory", "fidelity", "--ratio", repr(ratio)]
        if with_rate:
            argv += ["--kappa-e-hz", repr(KAPPA_E_HZ)]
        jobs.append({"kind": "fidelity", "ratio": ratio, "with_rate": with_rate,
                     "argv": argv})
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _moduli(job) -> elasticity.CubicModuli:
    path = job.get("moduli")
    return elasticity.SILICON if path is None else elasticity.CubicModuli.from_json(path)


def _close(got, want, scale) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(np.max(np.abs(got - want)) <= _REL_TOL * scale)


def slh_error(job, stdout) -> float:
    """Largest |composed - closed form| over S, L, H, relative to the matrix scale."""
    res = _result(stdout)
    want = slh.tunable_coupling_closed_form(job["theta"], 2 * math.pi * KAPPA_E_HZ,
                                            2 * math.pi * 1.0)
    worst = 0.0
    for key, scale in (("S", 1.0), ("L", np.max(np.abs(want.L))),
                       ("H", 2 * math.pi * KAPPA_E_HZ)):
        got = _complex(res[key])
        if got.shape != getattr(want, key).shape:
            return math.inf
        worst = max(worst, float(np.max(np.abs(got - getattr(want, key)))) / scale)
    return worst


def _check_small(job, stdout, ref, bias):
    res = _result(stdout)
    kind = job["kind"]
    if kind == "energy":
        want = elasticity.strain_energy(job["strain"], _moduli(job),
                                        order=job["order"]) * (1 + bias)
        if not _close(res["energy_density_j_per_m3"], want, abs(want) + 1e-30):
            return f"energy {res['energy_density_j_per_m3']!r} vs {want!r}", None
    elif kind == "bond":
        m = elasticity.phonoelastic_matrix(job["strain"], _moduli(job))
        want = elasticity.bond_rotate(m, job["xi"]) * (1 + bias)
        if not _close(res["matrix_pa"], want, np.max(np.abs(want))):
            return "rotated stiffness differs from bond_rotate", None
    elif kind == "slh":
        err = slh_error(job, stdout) + bias
        if not err <= _REL_TOL:
            return f"loop differs from the closed form by {err:.3g}", err
        return None, err
    else:
        c = memory.profile_constants(job["ratio"])
        want = [c.a1 * (1 + bias), c.tau_c]
        if not _close([res["a1"], res["tau_c"]], want, 1.0):
            return f"constants {res['a1']!r}, {res['tau_c']!r} vs {want!r}", None
        t_c = memory.critical_time(job["ratio"], 2 * math.pi * KAPPA_E_HZ)
        if job["with_rate"] != ("t_c_s" in res) or (
                "t_c_s" in res and not _close(res["t_c_s"], t_c, t_c)):
            return "critical time missing or wrong", None
    return None, None


_BUILD = {"delay-scan": _delay_scan, "trajectories": _trajectories,
          "mesh-program": _mesh_program, "small-jobs": _small_jobs}
_CHECK = {"delay-scan": _check_scan, "trajectories": _check_trajectory,
          "mesh-program": _check_mesh, "small-jobs": _check_small}


def build(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[dict]:
    """Write the workload's seeded inputs into `workdir` and return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILD[workload](seed, workdir, smoke)


def check(workload: str, job: dict, stdout: str, ref: dict,
          bias: float = 0.0) -> tuple[str | None, float | None]:
    """(reason the job's output is wrong or None, drift).  Malformed output is wrong."""
    try:
        return _CHECK[workload](job, stdout, ref, bias)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", None
