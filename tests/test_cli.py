"""Batch CLI: verbs, exit codes, file formats, determinism."""

import contextlib
import copy
import functools
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phoncirc import circuits, cli, errors, memory, slh
from phoncirc.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_of(out):
    return json.loads(out)["result"]


# --- tensor ---------------------------------------------------------------------

def test_tensor_energy(capsys):
    code, out, _ = run_cli(capsys, ["tensor", "energy",
                                    "--strain", "[0.01,0,0,0,0,0]",
                                    "--order", "third"])
    assert code == 0
    w = result_of(out)["energy_density_j_per_m3"]
    assert w == pytest.approx(8.282e6 - 1.325e5, rel=1e-9)


def test_tensor_phonoelastic_zeros(capsys):
    code, out, _ = run_cli(capsys, ["tensor", "phonoelastic", "--strain", "zeros"])
    assert code == 0
    m = np.asarray(result_of(out)["matrix_pa"])
    assert m[0, 0] == pytest.approx(165.64e9)
    assert m[0, 3] == 0.0


def test_tensor_bond_quarter_turn(capsys):
    code, out, _ = run_cli(capsys, ["tensor", "bond", "--strain", "zeros",
                                    "--xi", str(math.pi / 4)])
    assert code == 0
    m = np.asarray(result_of(out)["matrix_pa"])
    assert m[0, 0] == pytest.approx(194.30e9, rel=1e-9)


def test_tensor_malformed_strain_exits_2(capsys):
    code, _, err = run_cli(capsys, ["tensor", "energy", "--strain", "[0.01,0"])
    assert code == 2 and "invalid input" in err
    code, _, _ = run_cli(capsys, ["tensor", "energy", "--strain", "[1,2,3]"])
    assert code == 2


# --- slh ------------------------------------------------------------------------

def network_doc(theta=1.3):
    return {
        "nodes": [
            {"name": "cav", "kind": "cavity",
             "params": {"kappa_e_hz": 300e3, "kappa_i_hz": 1.0}},
            {"name": "ph", "kind": "phase", "params": {"theta_rad": theta}},
            {"name": "t2", "kind": "trivial", "params": {"n": 2}},
        ],
        "script": [
            {"op": "concat", "args": ["ph", "t2"], "name": "stage"},
            {"op": "series", "args": ["stage", "cav"], "name": "chain"},
            {"op": "feedback", "args": ["chain", 1, 2]},
        ],
    }


def test_slh_compose_loop(tmp_path, capsys):
    theta = 1.3
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_doc(theta)))
    code, out, _ = run_cli(capsys, ["slh", "compose", "--network", str(path)])
    assert code == 0
    res = result_of(out)
    want = slh.tunable_coupling_closed_form(theta, 2 * math.pi * 300e3,
                                            2 * math.pi, corrected=False)
    got_s = np.asarray(res["S"]["re"]) + 1j * np.asarray(res["S"]["im"])
    got_l = np.asarray(res["L"]["re"]) + 1j * np.asarray(res["L"]["im"])
    assert np.max(np.abs(got_s - want.S)) < 1e-12
    assert np.max(np.abs(got_l - want.L)) < 1e-9
    assert "drift" in res["master_equation"]


def test_slh_single_node_echo(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "nodes": [{"name": "p", "kind": "phase", "params": {"theta_rad": 0.5}}]}))
    code, out, _ = run_cli(capsys, ["slh", "compose", "--network", str(path)])
    assert code == 0
    res = result_of(out)
    assert res["n_ports"] == 1 and res["n_modes"] == 0


def test_slh_invalid_inputs_exit_2(tmp_path, capsys):
    path = tmp_path / "net.json"
    doc = {"nodes": [{"name": "t2", "kind": "trivial", "params": {"n": 2}}],
           "script": [{"op": "feedback", "args": ["t2", 1, 1]}]}
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["slh", "compose", "--network", str(path)])
    assert code == 2 and "invalid input" in err  # same-port feedback
    path.write_text(json.dumps(network_doc()) + "}")
    code, _, _ = run_cli(capsys, ["slh", "compose", "--network", str(path)])
    assert code == 2  # malformed JSON


def test_slh_singular_loop_exits_1(tmp_path, capsys, monkeypatch):
    # none of the stock node kinds has off-diagonal scattering, so stub one
    # in to drive the unit-gain feedback path through the CLI
    import phoncirc.slh as slhmod
    swap = slh.SLHTriplet(np.array([[0.0, 1.0], [1.0, 0.0]]),
                          np.zeros((2, 0)), np.zeros((0, 0)))
    monkeypatch.setattr(slhmod, "trivial_node", lambda n: swap)
    doc = {"nodes": [{"name": "t2", "kind": "trivial", "params": {"n": 2}}],
           "script": [{"op": "feedback", "args": ["t2", 1, 2]}]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["slh", "compose", "--network", str(path)])
    assert code == 1 and "SingularLoop" in err


# --- memory ---------------------------------------------------------------------

def test_memory_fidelity(capsys):
    code, out, _ = run_cli(capsys, ["memory", "fidelity", "--ratio", "0.333333",
                                    "--kappa-e-hz", "300e3"])
    assert code == 0
    res = result_of(out)
    assert res["a1"] == pytest.approx(0.969, abs=1e-3)
    assert res["t_c_s"] == pytest.approx(0.1774e-6, rel=1e-3)


def config_json(tmp_path, **overrides):
    doc = {"kappa_e_hz": 300e3, "r_hz": 100e3, "kappa_i_hz": 0.0}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_memory_simulate_ideal(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, ["memory", "simulate",
                                    "--config", config_json(tmp_path),
                                    "--output", str(traj)])
    assert code == 0
    assert result_of(out)["fidelity"] == pytest.approx(0.969, abs=2e-3)
    header, first = traj.read_text().splitlines()[:2]
    assert header == "tau_prime,re_A,im_A,theta"
    assert [float(v) for v in first.split(",")] == [0.0, 0.0, 0.0, 0.0]
    rows = np.loadtxt(traj, delimiter=",", skiprows=1)
    assert np.all(rows[:, 2] == 0.0)  # the delay-free trajectory is real


def test_memory_simulate_delay_point(tmp_path, capsys):
    cfg = config_json(tmp_path, delta_f_ns=60, delta_m_ns=21, delta_c_ns=-34)
    code, out, _ = run_cli(capsys, ["memory", "simulate", "--config", cfg])
    assert code == 0
    res = result_of(out)
    assert res["delayed"] is True
    assert res["fidelity"] == pytest.approx(0.890, abs=5e-3)
    # the step divides the 60 ns round trip, so the run passes its horizon
    assert res["delay_steps"] == 57 and res["step"] < 0.002
    assert res["n_steps"] == math.ceil(res["horizon"] / res["step"] - 1e-9)
    assert res["tau_end"] == res["n_steps"] * res["step"]
    assert res["horizon"] < res["tau_end"] < res["horizon"] + res["step"]


def test_memory_simulate_reports_its_steps(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["memory", "simulate", "--config", config_json(tmp_path)])
    assert code == 0
    res = result_of(out)
    assert (res["step"], res["n_steps"], res["delay_steps"]) == (0.002, 12500, 0)
    assert res["tau_end"] == 12500 * 0.002 == pytest.approx(res["horizon"], abs=1e-12)


@pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 1100])
def test_csv_runs_match_row_by_row_formatting(rows):
    rng = np.random.default_rng(rows)
    columns = (np.arange(rows) * 0.002, rng.standard_normal(rows) * 10.0 ** rng.integers(
        -20, 20, rows), rng.standard_normal(rows))
    lines = []
    cli._write_csv(lines.append, "a,b,c", columns)
    want = "".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in zip(*columns))
    assert "".join(lines) == "a,b,c\n" + want


def test_memory_simulate_csv_format(tmp_path, capsys):
    cfg = config_json(tmp_path, delta_f_ns=20, delta_m_ns=7, delta_c_ns=-5, horizon=25)
    traj = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, ["memory", "simulate", "--config", cfg, "--output", str(traj)])
    assert code == 0
    config = memory.TransferConfig.from_json(cfg)
    profile = cli._profile_for(config)
    res = memory.simulate_with_delay(config, profile)
    rows = zip(res.tau, res.amplitude.real, res.amplitude.imag, profile.theta(res.tau))
    want = "".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
    assert traj.read_text() == "tau_prime,re_A,im_A,theta\n" + want


def test_memory_optimize_small_grid(tmp_path, capsys):
    cfg = config_json(tmp_path, delta_f_ns=60, horizon=50)
    scan = tmp_path / "scan.csv"
    code, out, _ = run_cli(capsys, ["memory", "optimize", "--config", cfg,
                                    "--dm-grid", "18:24:3", "--dc-grid=-37:-31:3",
                                    "--output", str(scan)])
    assert code == 0
    res = result_of(out)
    assert res["fidelity"] == pytest.approx(0.890, abs=5e-3)
    assert res["delta_m_ns"] == pytest.approx(21.0, abs=3.1)
    lines = scan.read_text().splitlines()
    assert lines[0] == "delta_m_ns,delta_c_ns,fidelity"
    assert len(lines) == 1 + 3 * 3


def test_memory_optimize_reports_its_steps(tmp_path, capsys):
    cfg = config_json(tmp_path, delta_f_ns=60, horizon=2)
    argv = ["memory", "optimize", "--config", cfg, "--dm-grid", "18:24:3", "--dc-grid=-37:-31:3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    res = result_of(out)
    # every cell runs the steps of a one-cell run: the step divides the 60 ns round trip
    assert res["delay_steps"] == 57 and res["step"] < 0.002
    assert res["n_steps"] == math.ceil(2 / res["step"] - 1e-9)
    assert res["tau_end"] == res["n_steps"] * res["step"]
    assert 2 < res["tau_end"] < 2 + res["step"]
    # the summary is deterministic: a second run prints the same result
    assert result_of(run_cli(capsys, argv)[1]) == res


def test_memory_optimize_reports_the_grid_ns_values(tmp_path, capsys):
    # 24 ns through seconds and back reads 24.000000000000004
    cfg = config_json(tmp_path, delta_f_ns=60, horizon=10)
    code, out, _ = run_cli(capsys, ["memory", "optimize", "--config", cfg,
                                    "--dm-grid", "15:27:3", "--dc-grid=-40:-28:3"])
    assert code == 0
    assert '"delta_m_ns": 24.0,' in out
    res = result_of(out)
    assert res["delta_m_ns"] == 24.0 and res["delta_c_ns"] in (-40.0, -37.0, -34.0, -31.0, -28.0)


def test_memory_optimize_grid_does_not_pass_stop(tmp_path, capsys):
    # 60 ns is not on the 7 ns lattice from 0: the grid ends at 56, not 63
    cfg = config_json(tmp_path, delta_f_ns=20, horizon=25)
    scan = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, ["memory", "optimize", "--config", cfg, "--dm-grid", "0:60:7",
                                  "--dc-grid=-5:-5:1", "--output", str(scan)])
    assert code == 0
    dm = np.loadtxt(scan, delimiter=",", skiprows=1, ndmin=2)[:, 0]
    assert dm.size == 9 and dm[-1] == pytest.approx(56.0)


@pytest.mark.parametrize("argv", [
    ["memory", "optimize", "--dm-grid", "0:39:1", "--dc-grid=-39:0:1"],
    ["memory", "simulate"],
], ids=["grid", "one-cell"])
def test_memory_over_work_budget_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(memory, "_WORK_BYTES", 4 << 20)
    cfg = config_json(tmp_path, delta_f_ns=60, horizon=1.5 if argv[1] == "optimize" else 600)
    code, out, err = run_cli(capsys, [*argv, "--config", cfg])
    assert code == 2 and out == ""
    assert err.startswith("invalid input: DomainError") and err.count("\n") == 1
    assert "work budget" in err


def test_memory_lag_grid_over_work_budget_exits_2_unbuilt(tmp_path, capsys, monkeypatch):
    # the point counts alone refuse the grid: nothing is built or integrated
    monkeypatch.setattr(memory, "_WORK_BYTES", 1 << 20)
    monkeypatch.setattr(memory, "optimize_delays",
                        lambda *a, **k: pytest.fail("optimize_delays was called"))
    monkeypatch.setattr(cli.np, "arange", lambda *a, **k: pytest.fail("a grid was built"))
    cfg = config_json(tmp_path, delta_f_ns=60, horizon=1.5)
    code, out, err = run_cli(capsys, ["memory", "optimize", "--config", cfg,
                                      "--dm-grid", "0:2e4:1"])
    assert code == 2 and out == ""
    assert err.startswith("invalid input: DomainError") and err.count("\n") == 1
    assert "--dm-grid 0:2e4:1" in err and "20001 x 61 cells" in err and "work budget" in err


# --- pmmi -----------------------------------------------------------------------

def write_unitary_csv(path, u):
    n = u.shape[0]
    rows = np.empty((n, 2 * n))
    rows[:, 0::2] = u.real
    rows[:, 1::2] = u.imag
    np.savetxt(path, rows, delimiter=",")


def test_pmmi_decompose_identity(tmp_path, capsys):
    path = tmp_path / "u.csv"
    write_unitary_csv(path, np.eye(4, dtype=complex))
    code, out, _ = run_cli(capsys, ["pmmi", "decompose", "--unitary", str(path)])
    assert code == 0
    res = result_of(out)
    assert res["reconstruction_error"] < 1e-14
    assert len(res["elements"]) == 6


def test_pmmi_decompose_haar6(tmp_path, capsys):
    u = circuits.haar_unitary(6, np.random.default_rng(12))
    path = tmp_path / "u.csv"
    write_unitary_csv(path, u)
    code, out, _ = run_cli(capsys, ["pmmi", "decompose", "--unitary", str(path)])
    assert code == 0
    res = result_of(out)
    assert len(res["elements"]) == 15
    assert res["reconstruction_error"] < 1e-10


def test_pmmi_non_unitary_exits_1(tmp_path, capsys):
    path = tmp_path / "u.csv"
    write_unitary_csv(path, 1.01 * np.eye(3, dtype=complex))
    code, _, err = run_cli(capsys, ["pmmi", "decompose", "--unitary", str(path)])
    assert code == 1 and "NotUnitary" in err


def test_pmmi_nan_unitary_exits_1(tmp_path, capsys):
    u = np.eye(3, dtype=complex)
    u[0, 1] = np.nan
    path = tmp_path / "u.csv"
    write_unitary_csv(path, u)
    code, out, err = run_cli(capsys, ["pmmi", "decompose", "--unitary", str(path)])
    assert code == 1 and out == "" and "NotUnitary" in err


def test_pmmi_decompose_output_is_indented_json(tmp_path, capsys):
    # 276 elements: more than one chunk of the record writer
    u = circuits.haar_unitary(24, np.random.default_rng(14))
    ucsv = tmp_path / "u.csv"
    write_unitary_csv(ucsv, u)
    plan_path = tmp_path / "plan.json"
    code, out, _ = run_cli(capsys, ["pmmi", "decompose", "--unitary", str(ucsv),
                                    "--output", str(plan_path)])
    assert code == 0
    text = plan_path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_pmmi_nan_input_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(circuits.reck_decompose(np.eye(2, dtype=complex)).to_json())
    vec = tmp_path / "x.csv"
    vec.write_text("nan,0,1,0\n")
    code, out, err = run_cli(capsys, ["pmmi", "apply", "--plan", str(plan), "--input", str(vec)])
    assert code == 2 and out == ""
    assert err.startswith("invalid input: DomainError") and err.count("\n") == 1


def test_pmmi_empty_input_csv_prints_one_line(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(circuits.reck_decompose(np.eye(2, dtype=complex)).to_json())
    vec = tmp_path / "x.csv"
    vec.write_text("")
    proc = subprocess.run([sys.executable, "-m", "phoncirc", "pmmi", "apply", "--plan", str(plan),
                           "--input", str(vec)], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("invalid input: DomainError") and proc.stderr.count("\n") == 1


def test_pmmi_apply_roundtrip(tmp_path, capsys):
    u = circuits.haar_unitary(4, np.random.default_rng(13))
    ucsv = tmp_path / "u.csv"
    write_unitary_csv(ucsv, u)
    plan_path = tmp_path / "plan.json"
    code, out, _ = run_cli(capsys, ["pmmi", "decompose", "--unitary", str(ucsv),
                                    "--output", str(plan_path)])
    assert code == 0
    # the whole plan file, reconstruction_error included, must load
    plan = circuits.MeshPlan.from_json(plan_path.read_text())
    code, out, _ = run_cli(capsys, ["pmmi", "apply", "--plan", str(plan_path),
                                    "--basis", "2"])
    assert code == 0
    res = result_of(out)
    got = np.asarray(res["output_re"]) + 1j * np.asarray(res["output_im"])
    assert np.max(np.abs(got - u[:, 2])) < 1e-10
    assert np.max(np.abs(got - circuits.mesh_apply(plan, np.eye(4, dtype=complex)[:, 2]))) < 1e-12


# --- envelope and determinism -------------------------------------------------------

def test_manifest_shape(capsys):
    code, out, _ = run_cli(capsys, ["memory", "fidelity", "--ratio", "0.5"])
    assert code == 0
    doc = json.loads(out)
    manifest = doc["manifest"]
    assert manifest["command"] == "memory fidelity"
    assert manifest["parameters"]["ratio"] == 0.5
    assert "version" in manifest and "wall_time_s" in manifest


def test_outputs_deterministic(tmp_path, capsys):
    def run_once(out_name):
        path = tmp_path / out_name
        code, out, _ = run_cli(capsys, ["tensor", "phonoelastic",
                                        "--strain", "[0.003,0,0,0.004,0,0]",
                                        "--output", str(path)])
        assert code == 0
        doc = json.loads(out)
        doc["manifest"].pop("wall_time_s")
        return json.dumps(doc, sort_keys=True).replace(out_name, "X"), path.read_bytes()

    first = run_once("a.json")
    second = run_once("b.json")
    assert first[0] == second[0]
    assert first[1] == second[1]


HUGE = "9" * 401

# (file text or None, argv; the file's path is appended when there is one)
BAD_INPUTS = {
    "moduli-nan": ('{"c111": NaN}', ["tensor", "energy", "--strain", "zeros", "--moduli"]),
    "moduli-inf": ('{"c11": Infinity}', ["tensor", "energy", "--strain", "zeros", "--moduli"]),
    "slh-nan-rate": ('{"nodes": [{"name": "c", "kind": "cavity",'
                     ' "params": {"kappa_e_hz": 3e5, "kappa_i_hz": NaN}}]}',
                     ["slh", "compose", "--network"]),
    "plan-not-object": ("[1, 2]", ["pmmi", "apply", "--basis", "0", "--plan"]),
    "plan-element-not-object": ('{"screen": [0, 0], "elements": [5]}',
                                ["pmmi", "apply", "--basis", "0", "--plan"]),
    "grid-inf": ('{"kappa_e_hz": 3e5, "r_hz": 1e5}',
                 ["memory", "optimize", "--dm-grid", "0:inf:1", "--config"]),
    "xi-nan": (None, ["tensor", "bond", "--strain", "zeros", "--xi", "nan"]),
    "kappa-e-nan": (None, ["memory", "fidelity", "--ratio", "0.5", "--kappa-e-hz", "nan"]),
    "network-not-object": ("[1]", ["slh", "compose", "--network"]),
    "network-node-not-object": ('{"nodes": [5]}', ["slh", "compose", "--network"]),
    "network-params-not-object": ('{"nodes": [{"name": "p", "kind": "phase", "params": [1]}]}',
                                  ["slh", "compose", "--network"]),
    "network-rate-null": ('{"nodes": [{"name": "c", "kind": "cavity",'
                          ' "params": {"kappa_e_hz": null}}]}', ["slh", "compose", "--network"]),
    "network-concat-one-arg": ('{"nodes": [{"name": "t", "kind": "trivial", "params": {"n": 1}}],'
                               ' "script": [{"op": "concat", "args": ["t"]}]}',
                               ["slh", "compose", "--network"]),
    "network-script-not-objects": ('{"nodes": [{"name": "t", "kind": "trivial"}], "script": [5]}',
                                   ["slh", "compose", "--network"]),
    "plan-port-null": ('{"screen": [0, 0, 0], "elements": [{"i": null, "theta": 1, "phi": 0}]}',
                       ["pmmi", "apply", "--basis", "0", "--plan"]),
    "plan-port-bool": ('{"screen": [0, 0, 0], "elements": [{"i": true, "theta": 1, "phi": 0}]}',
                       ["pmmi", "apply", "--basis", "0", "--plan"]),
    "plan-port-string": ('{"screen": [0, 0, 0], "elements": [{"i": "1", "theta": 1, "phi": 0}]}',
                         ["pmmi", "apply", "--basis", "0", "--plan"]),
    "config-not-object": ('["kappa_e_hz", "r_hz"]', ["memory", "simulate", "--config"]),
    "config-rate-null": ('{"kappa_e_hz": null, "r_hz": 1e5}', ["memory", "simulate", "--config"]),
    "config-rate-list": ('{"kappa_e_hz": [3e5], "r_hz": 1e5}', ["memory", "simulate", "--config"]),
    "config-horizon-bool": ('{"kappa_e_hz": 3e5, "r_hz": 1e5, "horizon": true}',
                            ["memory", "simulate", "--config"]),
    # the bulk modulus c11 + 2 c12 is negative: the energy would be negative
    "moduli-negative-bulk": ('{"c11": 100e9, "c12": -60e9}',
                             ["tensor", "energy", "--order", "second",
                              "--strain", "[0.01,0.01,0.01,0,0,0]", "--moduli"]),
    "moduli-null": ('{"c11": null}', ["tensor", "energy", "--strain", "zeros", "--moduli"]),
    "moduli-not-object": ('[["c11"]]', ["tensor", "energy", "--strain", "zeros", "--moduli"]),
    "strain-bool": (None, ["tensor", "energy", "--strain", "[true,0,0,0,0,0]"]),
    "trivial-n-float": ('{"nodes": [{"name": "t", "kind": "trivial", "params": {"n": 2.7}}]}',
                        ["slh", "compose", "--network"]),
    "trivial-n-bool": ('{"nodes": [{"name": "t", "kind": "trivial", "params": {"n": true}}]}',
                       ["slh", "compose", "--network"]),
    # a JSON integer beyond the float range: float() raises OverflowError
    "config-huge-int": ('{"kappa_e_hz": %s, "r_hz": 1e5}' % HUGE,
                        ["memory", "simulate", "--config"]),
    "plan-huge-theta": ('{"screen": [0, 0], "elements": [{"i": 0, "theta": %s, "phi": 0}]}' % HUGE,
                        ["pmmi", "apply", "--basis", "0", "--plan"]),
    "moduli-huge-int": ('{"c11": %s}' % HUGE,
                        ["tensor", "energy", "--strain", "zeros", "--moduli"]),
    "strain-huge-int": (None, ["tensor", "energy", "--strain", "[%s,0,0,0,0,0]" % HUGE]),
    "config-horizon-inf": ('{"kappa_e_hz": 3e5, "r_hz": 1e5, "horizon": 1e400}',
                           ["memory", "simulate", "--config"]),
    # finite, but its step count is not
    "config-horizon-steps-overflow": ('{"kappa_e_hz": 3e5, "r_hz": 1e5, "horizon": 1e308}',
                                      ["memory", "simulate", "--config"]),
    "grid-horizon-steps-overflow": ('{"kappa_e_hz": 3e5, "r_hz": 1e5, "horizon": 1e308}',
                                    ["memory", "optimize", "--config"]),
    "config-rate-nan": ('{"kappa_e_hz": 3e5, "r_hz": 1e5, "kappa_i_hz": NaN}',
                        ["memory", "simulate", "--config"]),
    "config-horizon-below-critical": ('{"kappa_e_hz": 3e5, "r_hz": 1e5, "horizon": 0.2}',
                                      ["memory", "simulate", "--config"]),
    "plan-theta-nan": ('{"screen": [0, 0], "elements": [{"i": 0, "theta": NaN, "phi": 0}]}',
                       ["pmmi", "apply", "--basis", "0", "--plan"]),
    "grid-overflow": ('{"kappa_e_hz": 3e5, "r_hz": 1e5}',
                      ["memory", "optimize", "--dm-grid", "0:1e308:1e-300", "--config"]),
    # a key outside its object's field table, or a missing required one
    "network-cavity-param-typo": ('{"nodes": [{"name": "c", "kind": "cavity",'
                                  ' "params": {"kappa_e": 3e5}}]}',
                                  ["slh", "compose", "--network"]),
    "network-phase-param-typo": ('{"nodes": [{"name": "p", "kind": "phase",'
                                 ' "params": {"theta": 1.2}}]}',
                                 ["slh", "compose", "--network"]),
    "network-node-key-typo": ('{"nodes": [{"name": "c", "kind": "cavity",'
                              ' "parms": {"kappa_e_hz": 3e5}}]}',
                              ["slh", "compose", "--network"]),
    "network-extra-key": ('{"nodes": [{"name": "t", "kind": "trivial"}], "scripts": []}',
                          ["slh", "compose", "--network"]),
    "network-step-key-typo": ('{"nodes": [{"name": "t", "kind": "trivial", "params": {"n": 2}}],'
                              ' "script": [{"op": "concat", "args": ["t", "t"], "nmae": "u"}]}',
                              ["slh", "compose", "--network"]),
    "plan-extra-key": ('{"screen": [0], "elements": [], "comment": 1}',
                       ["pmmi", "apply", "--basis", "0", "--plan"]),
    "plan-element-extra-key": ('{"screen": [0, 0], "elements": [{"i": 0, "theta": 1, "phi": 0,'
                               ' "label": 1}]}', ["pmmi", "apply", "--basis", "0", "--plan"]),
    "plan-no-elements": ('{"screen": [0, 0]}', ["pmmi", "apply", "--basis", "0", "--plan"]),
    "network-unknown-node": ('{"nodes": [{"name": "t", "kind": "trivial"}],'
                             ' "script": [{"op": "concat", "args": ["t", "zz"]}]}',
                             ["slh", "compose", "--network"]),
    # step "a" is a 2-port swap, so the second step would be a unit-gain loop:
    # its bad name must be refused before it is composed
    "network-step-name-not-string": ('{"nodes": [{"name": "t", "kind": "trivial",'
                                     ' "params": {"n": 3}}], "script": ['
                                     '{"op": "feedback", "args": ["t", 1, 3], "name": "a"},'
                                     ' {"op": "feedback", "args": ["a", 2, 1], "name": 5}]}',
                                     ["slh", "compose", "--network"]),
    # a step name must be new and non-empty: "p" would rebind the node p
    "network-step-name-empty": ('{"nodes": [{"name": "t", "kind": "trivial"}],'
                                ' "script": [{"op": "concat", "args": ["t", "t"], "name": ""}]}',
                                ["slh", "compose", "--network"]),
    "network-step-name-taken": ('{"nodes": [{"name": "p", "kind": "phase"},'
                                ' {"name": "t", "kind": "trivial"}], "script": ['
                                '{"op": "concat", "args": ["p", "t"], "name": "p"},'
                                ' {"op": "concat", "args": ["p", "t"]}]}',
                                ["slh", "compose", "--network"]),
    "plan-recon-error-string": ('{"screen": [0], "elements": [], "reconstruction_error": "x"}',
                                ["pmmi", "apply", "--basis", "0", "--plan"]),
    # finite strains whose energy or stiffness overflows the float range
    "strain-energy-overflow": (None, ["tensor", "energy", "--strain", "[1e200,0,0,0,0,0]"]),
    "strain-energy-second-order-overflow": (None, ["tensor", "energy", "--order", "second",
                                                   "--strain", "[0,0,0,0,0,-1e200]"]),
    "strain-phonoelastic-overflow": (None, ["tensor", "phonoelastic",
                                            "--strain", "[1e308,1e308,0,0,0,0]"]),
    "strain-bond-overflow": (None, ["tensor", "bond", "--xi", "0.3",
                                    "--strain", "[1e308,1e308,0,0,0,0]"]),
    # the stiffness is finite and warns of the large strain, the rotation
    # overflows: the refusal prints alone
    "strain-bond-rotation-overflow": (None, ["tensor", "bond", "--xi", "0.785", "--strain",
                                             "[-1.874371859296482e+296,-1.874371859296482e+296,"
                                             "-1.874371859296482e+296,0,0,0]"]),
    # a subnormal rate whose critical time tau_c / kappa_e overflows
    "critical-time-overflow": (None, ["memory", "fidelity", "--ratio", "1",
                                      "--kappa-e-hz", "1e-320"]),
    # an empty CSV: numpy's no-data warning is silenced, the shape check refuses
    "unitary-empty-csv": ("", ["pmmi", "decompose", "--unitary"]),
    # exactly one input vector: both flags are refused before either is read
    "apply-input-and-basis": ('{"screen": [0], "elements": []}',
                              ["pmmi", "apply", "--basis", "5", "--input", "x.csv", "--plan"]),
    "apply-no-input": ('{"screen": [0], "elements": []}', ["pmmi", "apply", "--plan"]),
}

# rows whose error must name this key
NAMED_KEY = {
    "network-cavity-param-typo": "kappa_e", "network-phase-param-typo": "theta",
    "network-node-key-typo": "parms", "network-extra-key": "scripts",
    "network-step-key-typo": "nmae", "plan-extra-key": "comment",
    "plan-element-extra-key": "label", "plan-no-elements": "elements",
    "network-unknown-node": "zz", "plan-recon-error-string": "reconstruction_error",
    "network-step-name-empty": "", "network-step-name-taken": "p",
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_exits_2(tmp_path, capsys, name):
    text, argv = BAD_INPUTS[name]
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = [*argv, str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("invalid input: DomainError") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []
    if name in NAMED_KEY:
        assert repr(NAMED_KEY[name]) in err


# verb: (argv the file path is appended to, a valid document holding every key
# its objects may hold, the paths that may be null, the required keys per object)
MALFORMED_VERBS = {
    "memory simulate": (
        ["memory", "simulate", "--config"],
        {"kappa_e_hz": 3e5, "r_hz": 1e5, "kappa_i_hz": 0.0, "delta_f_ns": 60,
         "delta_m_ns": 21, "delta_c_ns": -34, "horizon": 1.5, "slope_cap": 23.0},
        {("slope_cap",)}, {(): {"kappa_e_hz", "r_hz"}}),
    "slh compose": (
        ["slh", "compose", "--network"],
        {"nodes": [{"name": "c", "kind": "cavity",
                    "params": {"kappa_e_hz": 3e5, "kappa_i_hz": 1e3, "detuning_hz": 0.0}},
                   {"name": "t", "kind": "trivial", "params": {"n": 3}}],
         "script": [{"op": "series", "args": ["c", "t"], "name": "s"}]},
        {("script", 0, "name")},
        {(): {"nodes"}, ("nodes", 0): {"name", "kind"}, ("script", 0): {"op", "args"}}),
    "pmmi apply": (
        ["pmmi", "apply", "--basis", "0", "--plan"],
        {"screen": [0.1, 0.2, 0.3], "elements": [{"i": 0, "theta": 1.0, "phi": 0.5},
                                                 {"i": 1, "theta": 2.0, "phi": -0.5}],
         "reconstruction_error": 1e-15},
        {("reconstruction_error",)},
        {(): {"screen", "elements"}, ("elements", 1): {"i", "theta", "phi"}}),
}
JSON_KINDS = {"number": st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
              "string": st.text(max_size=4), "bool": st.booleans(), "null": st.none(),
              "list": st.lists(st.integers(), max_size=2),
              "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)}


def json_kind(value):
    return {bool: "bool", int: "number", float: "number", str: "string", type(None): "null",
            list: "list", dict: "object"}[type(value)]


def paths_in(doc, path=()):
    """(path, value) of every value below the root of `doc`."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from paths_in(value, path + (key,))


def edited(doc, path, value=None, drop=False):
    doc = copy.deepcopy(doc)
    parent = functools.reduce(lambda d, key: d[key], path[:-1], doc)
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def malformed_inputs(draw):
    """(verb, file text): a valid input file of the verb, truncated, with a
    value of a wrong JSON type, a NaN or Infinity literal or an int beyond the
    float range in place of a number, or with an unknown key or without a
    required one."""
    verb = draw(st.sampled_from(sorted(MALFORMED_VERBS)))
    _, doc, nullable, required = MALFORMED_VERBS[verb]
    values = dict(paths_in(doc))
    numbers = sorted((p for p, v in values.items() if json_kind(v) == "number"), key=repr)
    kind = draw(st.sampled_from(["truncated", "wrong type", "non-finite", "huge int",
                                 "unknown key", "missing key"]))
    if kind == "truncated":
        text = json.dumps(doc)
        return verb, text[:draw(st.integers(0, len(text) - 2))]
    if kind == "wrong type":
        path = draw(st.sampled_from(sorted(values, key=repr)))
        wrong = {json_kind(values[path])} | ({"null"} if path in nullable else set())
        doc = edited(doc, path, draw(st.sampled_from(sorted(JSON_KINDS.keys() - wrong))
                                     .flatmap(JSON_KINDS.get)))
    elif kind in ("non-finite", "huge int"):
        value = (st.sampled_from([math.nan, math.inf, -math.inf]) if kind == "non-finite"
                 else st.sampled_from([10 ** 400, -(10 ** 400)]))
        doc = edited(doc, draw(st.sampled_from(numbers)), draw(value))
    elif kind == "unknown key":
        path = draw(st.sampled_from([()] + sorted((p for p, v in values.items()
                                                   if isinstance(v, dict)), key=repr)))
        target = functools.reduce(lambda d, key: d[key], path, doc)
        key = draw(st.text(max_size=6).filter(lambda k: k not in target))
        doc = edited(doc, path + (key,), draw(st.integers()))
    else:
        path = draw(st.sampled_from(sorted(required, key=repr)))
        doc = edited(doc, path + (draw(st.sampled_from(sorted(required[path]))),), drop=True)
    return verb, json.dumps(doc)


@pytest.mark.parametrize("verb", sorted(MALFORMED_VERBS))
def test_malformed_input_starts_from_a_valid_file(tmp_path, capsys, verb):
    argv, doc, _, _ = MALFORMED_VERBS[verb]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, [*argv, str(path)])[0] == 0


@settings(max_examples=200, deadline=None)
@given(malformed_inputs())
def test_malformed_input_file_exits_2_with_one_line(tmp_path_factory, case):
    verb, text = case
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*MALFORMED_VERBS[verb][0], str(path)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("invalid input: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("port", ["0.5", "1.0", pytest.param(HUGE, id="huge-int")])
def test_plan_float_port_exits_2(tmp_path, capsys, port):
    # a JSON number that is not an integer, or an integer beyond the float
    # range, is a bad port, like "i": 1e30
    path = tmp_path / "plan.json"
    path.write_text('{"screen": [0, 0, 0], "elements": [{"i": %s, "theta": 1, "phi": 0}]}' % port)
    code, out, err = run_cli(capsys, ["pmmi", "apply", "--basis", "0", "--plan", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("invalid input: DimensionMismatch") and err.count("\n") == 1


@pytest.mark.parametrize("verb", [["simulate"],
                                  ["optimize", "--dm-grid", "0:2:1", "--dc-grid=-2:0:1"]],
                         ids=["simulate", "optimize"])
@pytest.mark.parametrize("delay", [{}, {"delta_f_ns": 60}], ids=["free", "delayed"])
def test_overflowing_fidelity_exits_1(tmp_path, capsys, verb, delay):
    # kappa_i / kappa_e = 3333 puts the decay rate times the default step, about
    # 3.3, past RK4's stability limit of 2.79: |A|^2 and the energies overflow.
    # At 1e300 Hz the step map P itself is not finite.
    for kappa_i_hz in (1e9, 1e300):
        cfg = config_json(tmp_path, kappa_i_hz=kappa_i_hz, horizon=1.5, **delay)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, ["memory", *verb, "--config", cfg])
        assert code == 1 and out == ""
        assert err.startswith("error: IntegrationError") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []


def test_accepted_large_strain_warns_once(capsys):
    with pytest.warns(UserWarning, match="beyond unity") as caught:
        code, out, _ = run_cli(capsys, ["tensor", "bond", "--xi", "0.3",
                                        "--strain", "[1.5,0,0,0,0,0]"])
    assert code == 0 and result_of(out)["xi_rad"] == 0.3
    assert len(caught) == 1


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


FAMILY_EXIT = {errors.InputError: ("invalid input", 2), errors.ComputationError: ("error", 1)}


@pytest.mark.parametrize("exc_type", sorted(set(_subclasses(errors.PhoncircError)),
                                            key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_error_family_sets_exit_code(capsys, monkeypatch, exc_type):
    families = [f for f in FAMILY_EXIT if issubclass(exc_type, f)]
    assert len(families) == 1
    prefix, want = FAMILY_EXIT[families[0]]

    def fail(ratio):
        raise exc_type("stub failure")

    monkeypatch.setattr(memory, "profile_constants", fail)
    code, out, err = run_cli(capsys, ["memory", "fidelity", "--ratio", "0.5"])
    assert code == want and out == ""
    assert err == f"{prefix}: {exc_type.__name__}: stub failure\n"


def test_unexpected_exception_exits_1(capsys, monkeypatch):
    def fail(ratio):
        raise RuntimeError("stub failure")

    monkeypatch.setattr(memory, "profile_constants", fail)
    code, out, err = run_cli(capsys, ["memory", "fidelity", "--ratio", "0.5"])
    assert code == 1 and out == ""
    assert err == "error: RuntimeError: stub failure\n"


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "phoncirc", "memory", "fidelity", "--ratio", "0.3333"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["a1"] == pytest.approx(0.969, abs=1e-3)


def test_every_verb_prints_strict_json(tmp_path, capsys):
    def no_constants(token):
        raise ValueError(f"non-standard JSON token {token}")

    net = tmp_path / "net.json"
    net.write_text(json.dumps(network_doc()))
    ucsv = tmp_path / "u.csv"
    write_unitary_csv(ucsv, circuits.haar_unitary(3, np.random.default_rng(15)))
    plan = tmp_path / "plan.json"
    cfg = config_json(tmp_path, delta_f_ns=20, horizon=25)
    strain = ["--strain", "[0.01,0,0,0.002,0,0]"]
    tensor = {"strain", "moduli", "output"}
    verbs = [
        (["tensor", "energy", *strain], tensor | {"order"}),
        (["tensor", "phonoelastic", *strain], tensor),
        (["tensor", "bond", *strain, "--xi", "0.3"], tensor | {"xi"}),
        (["slh", "compose", "--network", str(net)], {"network", "output"}),
        (["memory", "fidelity", "--ratio", "0.5", "--kappa-e-hz", "300e3"],
         {"ratio", "kappa_e_hz", "output"}),
        (["memory", "simulate", "--config", cfg], {"config", "output"}),
        (["memory", "optimize", "--config", cfg, "--dm-grid", "0:2:2", "--dc-grid=-2:0:2"],
         {"config", "dm_grid", "dc_grid", "output"}),
        (["pmmi", "decompose", "--unitary", str(ucsv), "--output", str(plan)],
         {"unitary", "output"}),
        (["pmmi", "apply", "--plan", str(plan), "--basis", "1"],
         {"plan", "input", "basis", "output"}),
    ]
    for argv, parameters in verbs:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        manifest = json.loads(out, parse_constant=no_constants)["manifest"]
        assert manifest["command"] == " ".join(argv[:2])
        assert set(manifest["parameters"]) == parameters, argv


def test_json_output_file_is_the_printed_result(tmp_path, capsys):
    # the file holds the printed result without its output_path, one indent
    # level up from its place in the envelope
    net = tmp_path / "net.json"
    net.write_text(json.dumps(network_doc()))
    ucsv = tmp_path / "u.csv"
    # 276 elements: more than one chunk of the record writer
    write_unitary_csv(ucsv, circuits.haar_unitary(24, np.random.default_rng(14)))
    plan = tmp_path / "plan.json"
    strain = ["--strain", "[0.01,0,0,0.002,0,0]"]
    verbs = [
        ["pmmi", "decompose", "--unitary", str(ucsv)],
        ["pmmi", "apply", "--plan", str(plan), "--basis", "1"],
        ["tensor", "energy", *strain],
        ["tensor", "phonoelastic", *strain],
        ["tensor", "bond", *strain, "--xi", "0.3"],
        ["slh", "compose", "--network", str(net)],
        ["memory", "fidelity", "--ratio", "0.5", "--kappa-e-hz", "300e3"],
    ]
    assert {tuple(argv[:2]) for argv in verbs} == {
        (tool, verb) for tool, (_, table) in cli._TOOLS.items()
        for verb, (_, writes, _) in table.items() if "JSON" in writes}
    for argv in verbs:
        path = plan if argv[1] == "decompose" else tmp_path / "out.json"
        code, out, _ = run_cli(capsys, [*argv, "--output", str(path)])
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        result = result_of(out)
        assert result.pop("output_path") == str(path)
        assert path.read_text() == json.dumps(result, indent=2, sort_keys=True) + "\n", argv


# --- the JSON writer ----------------------------------------------------------------

KEYS = st.one_of(st.text(max_size=6),
                 st.sampled_from([", ", "\n", '"', "\\", "é", "%", "%s", "a, \"b\"\n"]))
NUMBERS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.sampled_from([10 ** 40, -(10 ** 40), math.nan, math.inf, -math.inf, -0.0]),
                    st.floats(allow_nan=True, allow_infinity=True))
SCALARS = st.one_of(NUMBERS, KEYS)
# non-str keys that json writes as strings; ints, floats and bools sort together
NUMBER_KEYS = st.one_of(st.integers(), st.booleans(),
                        st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def record_lists(draw):
    """Flat records: equal key sets, one record short of a key, or a string column."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    values = draw(st.lists(NUMBERS, min_size=1, max_size=12))
    n = draw(st.one_of(st.integers(1, 4), st.integers(cli._CHUNK - 2, cli._CHUNK + 40)))
    rows = [{k: values[(i * len(keys) + j) % len(values)] for j, k in enumerate(keys)}
            for i in range(n)]
    kind = draw(st.sampled_from(["equal", "unequal", "string"]))
    at = draw(st.integers(0, n - 1))
    if kind == "unequal":
        rows[at] = dict(rows[at], **{draw(KEYS): 1.5})
        rows[at].pop(keys[0], None)
    elif kind == "string":
        text = draw(KEYS)
        for row in rows[at:]:
            row[keys[-1]] = text
    return rows


DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.tuples(children, children),
        st.dictionaries(KEYS, children, max_size=5), st.lists(NUMBERS, max_size=8),
        st.dictionaries(NUMBER_KEYS, children, max_size=5),
        st.dictionaries(st.none(), children), record_lists()),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
def test_json_writer_matches_json_dumps(doc):
    chunks = []
    cli._write_json(chunks.append, doc)
    assert "".join(chunks) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{"a": [1, {2}]}, [{"x": 1.0, "y": {2}}], {(1, 2): 0},
                                 {"a": {(1,): [1.0]}}])
def test_json_writer_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as ours:
        cli._write_json([].append, doc)
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, indent=2, sort_keys=True)
    assert str(ours.value) == str(theirs.value)
