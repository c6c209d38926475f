"""Each input reader refuses a key outside its field table, and a missing required key."""

import dataclasses
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phoncirc import circuits, elasticity, memory, slh
from phoncirc.errors import DomainError

TRIVIAL = {"name": "t", "kind": "trivial"}
ELEMENT = {"i": 0, "theta": 1.0, "phi": 0.5}


def node_params(kind):
    return lambda params: slh.run_network({"nodes": [{"name": "x", "kind": kind,
                                                      "params": params}]})


def plan(doc):
    return circuits.MeshPlan.from_json(json.dumps(doc))


# reader: (a valid object, a function reading it, the keys it may hold, the keys it must hold)
READERS = {
    "config": ({"kappa_e_hz": 3e5, "r_hz": 1e5}, memory.TransferConfig.from_json,
               {"kappa_e_hz", "r_hz", "kappa_i_hz", "delta_f_ns", "delta_m_ns", "delta_c_ns",
                "horizon", "slope_cap"}, {"kappa_e_hz", "r_hz"}),
    "moduli": ({"c11": 170e9}, elasticity.CubicModuli.from_json,
               {f.name for f in dataclasses.fields(elasticity.CubicModuli)}, set()),
    "network": ({"nodes": [TRIVIAL]}, slh.run_network, {"nodes", "script"}, set()),
    "network-node": (TRIVIAL, lambda node: slh.run_network({"nodes": [node]}),
                     {"name", "kind", "params"}, {"name", "kind"}),
    "cavity-params": ({"kappa_e_hz": 3e5}, node_params("cavity"),
                      {"kappa_e_hz", "kappa_i_hz", "detuning_hz"}, set()),
    "phase-params": ({"theta_rad": 1.2}, node_params("phase"), {"theta_rad"}, set()),
    "trivial-params": ({"n": 2}, node_params("trivial"), {"n"}, set()),
    "script-step": ({"op": "concat", "args": ["t", "t"], "name": "u"},
                    lambda step: slh.run_network({"nodes": [TRIVIAL], "script": [step]}),
                    {"op", "args", "name"}, {"op", "args"}),
    "plan": ({"screen": [0.0, 0.0], "elements": [ELEMENT], "reconstruction_error": 0.0}, plan,
             {"screen", "elements", "reconstruction_error"}, {"screen", "elements"}),
    "plan-element": (ELEMENT, lambda e: plan({"screen": [0.0, 0.0], "elements": [ELEMENT, e]}),
                     {"i", "theta", "phi"}, {"i", "theta", "phi"}),
}

JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                        st.text(max_size=4), st.lists(st.integers(), max_size=2))


@pytest.mark.parametrize("name", READERS)
def test_valid_object_loads(name):
    doc, read, _, _ = READERS[name]
    read(doc)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), key=st.text(max_size=8), value=JSON_VALUES)
def test_unknown_key_is_refused_by_name(name, key, value):
    doc, read, allowed, _ = READERS[name]
    assume(key not in allowed)
    with pytest.raises(DomainError, match=re.escape(f"unknown key {key!r}")):
        read({**doc, key: value})


@pytest.mark.parametrize("name,key", [(name, key) for name, (_, _, _, required) in READERS.items()
                                      for key in sorted(required)])
def test_missing_required_key_is_refused_by_name(name, key):
    doc, read, _, _ = READERS[name]
    with pytest.raises(DomainError, match=re.escape(f"required key {key!r}")):
        read({k: v for k, v in doc.items() if k != key})
