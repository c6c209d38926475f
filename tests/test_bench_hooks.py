"""The traced benchmark's hooks still find what they wrap.

``perfbench/spans.py`` wraps ``cli.build_parser``, the ``parse_args`` of the
parser it returns, and named library functions and classmethods.  A rename on
the library side would otherwise only show when the traced benchmark runs.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import phoncirc, phoncirc.cli
import spans

tracer = spans.Tracer()
tracer.install(phoncirc)
runs = [
    ["tensor", "energy", "--strain", "zeros"],
    ["slh", "compose", "--network", "net.json"],
    ["memory", "simulate", "--config", "config.json"],
    ["pmmi", "decompose", "--unitary", "u.csv", "--output", "plan.json"],
    ["pmmi", "apply", "--plan", "plan.json", "--basis", "0"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(phoncirc.cli.main(argv))
print(json.dumps({"codes": codes, "names": sorted({s[0] for s in tracer.spans})}))
"""


def test_tracer_records_the_named_spans(tmp_path):
    (tmp_path / "net.json").write_text(json.dumps(
        {"nodes": [{"name": "p", "kind": "phase", "params": {"theta_rad": 0.5}},
                   {"name": "t", "kind": "trivial", "params": {"n": 2}}],
         "script": [{"op": "concat", "args": ["p", "t"], "name": "a"},
                    {"op": "series", "args": ["a", "a"], "name": "b"},
                    {"op": "feedback", "args": ["b", 1, 2]}]}))
    (tmp_path / "config.json").write_text(json.dumps(
        {"kappa_e_hz": 300e3, "r_hz": 100e3, "horizon": 5}))
    (tmp_path / "u.csv").write_text("0,0,1,0\n1,0,0,0\n")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["codes"] == [0] * 5
    assert {"cli.build_parser", "cli.parse_args", "memory.TransferConfig.from_json",
            "circuits.MeshPlan.from_json", "circuits.reck_decompose",
            # run_network's steps, which the traced slh.ops counts
            "slh.concatenate", "slh.series", "slh.feedback"} <= set(record["names"])
