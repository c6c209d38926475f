"""Span recorder for the traced run, and the per-layer metrics computed from it.

The benchmark sees each layer only from outside: it replaces the public
functions of ``phoncirc.memory``, ``circuits``, ``slh`` and ``elasticity``,
the two ``theta`` methods, a few ``MeshPlan``/config methods and
``cli.main``/``cli.build_parser`` with wrappers that record a span each.
Because the wrappers are module (and class) attributes, calls made by the
CLI and calls made from inside the library are both caught.  Nothing under
``src/`` changes.

A span is ``[name, start, end, parent, count, peak_bytes]``: ``parent`` is the
index of the enclosing span or -1, ``count`` the work the call did where one
is defined (tau values, RK4 steps, grid cells, pivots, element-columns), and
``peak_bytes`` the tracemalloc peak inside ``optimize_delays`` when memory
tracking is on.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import tracemalloc

import numpy as np

# The element matrix is built once per mesh pivot (N(N-1)/2 times per plan); a
# span on each would cost more than the work, so its time stays in the caller.
_UNWRAPPED = {"circuits.mzi_unitary"}


def _theta_points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["tau"]))


def _steps(args, kwargs, result):
    return len(result.tau) - 1


def _cells(args, kwargs, result):
    return int(result.fidelity_grid.size)


def _pivots(args, kwargs, result):
    return len(result.elements)


def _element_columns(args, kwargs, result):
    plan = args[0] if args else kwargs["plan"]
    cols = result.shape[1] if result.ndim == 2 else 1
    return len(plan.elements) * cols


_COUNTS = {
    "memory.OptimalProfile.theta": _theta_points,
    "memory.SampledProfile.theta": _theta_points,
    "memory.simulate_transfer": _steps,
    "memory.simulate_with_delay": _steps,
    "memory.optimize_delays": _cells,
    "circuits.reck_decompose": _pivots,
    "circuits.mesh_apply": _element_columns,
}


class Tracer:
    """Keeps spans in memory; `track_memory` turns on the scan's tracemalloc peak."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.track_memory = False

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _COUNTS.get(name)
        watch_memory = name == "memory.optimize_delays"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            tracking = watch_memory and self.track_memory
            if tracking:
                tracemalloc.start()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if tracking:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, phoncirc) -> None:
        """Wrap the public functions of each layer of an imported `phoncirc`."""
        for layer in ("memory", "circuits", "slh", "elasticity"):
            module = getattr(phoncirc, layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and name not in _UNWRAPPED):
                    setattr(module, attr, self.wrap(name, fn))
        m, c, e = phoncirc.memory, phoncirc.circuits, phoncirc.elasticity
        for cls, attr in ((m.OptimalProfile, "theta"), (m.SampledProfile, "theta"),
                          (c.MeshPlan, "matrix"), (c.MeshPlan, "to_json")):
            setattr(cls, attr, self.wrap(f"{cls.__module__.split('.')[-1]}."
                                         f"{cls.__name__}.{attr}", getattr(cls, attr)))
        for cls, layer in ((m.TransferConfig, "memory"), (c.MeshPlan, "circuits"),
                           (e.CubicModuli, "elasticity")):
            fn = cls.__dict__["from_json"].__func__
            setattr(cls, "from_json",
                    classmethod(self.wrap(f"{layer}.{cls.__name__}.from_json", fn)))

        cli = phoncirc.cli
        build = self.wrap("cli.build_parser", cli.build_parser)

        def build_parser():
            parser = build()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        cli.build_parser = build_parser
        cli.main = self.wrap("cli.main", cli.main)


# --- per-layer metrics -----------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# Work on the capture profile: building it, reading a config (which validates
# the ratio through profile_constants), and the constants themselves.
_PROFILE = {"memory.optimal_profile", "memory.discretize_profile",
            "memory.TransferConfig.from_json", "memory.profile_constants",
            "memory.critical_time"}


def _groups(name: str) -> list[str]:
    groups = [_layer(name)]
    if name in _PROFILE:
        groups.append("profile")
    return groups


def _rep_totals(spans: list, lo: int, hi: int) -> dict:
    """Sums over the spans of one repetition (indices lo..hi-1)."""
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            child[parent - lo] += spans[i][2] - spans[i][1]
    t: dict = {}

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    for i in range(lo, hi):
        name, start, end, parent, count, _ = spans[i]
        dur = end - start
        own = dur - child[i - lo]
        add(f"dur:{name}", dur)
        add(f"self:{name}", own)
        add(f"n:{name}", count)
        add(f"calls:{name}", 1)
        if _layer(name) == "cli":
            add("cli.self", own)
        # calls entering a group from outside it; nested calls are inside these
        outer = set(_groups(name)) - set(_groups(spans[parent][0]) if parent >= 0 else ())
        for group in outer:
            add(f"outer:{group}", dur)
            add(f"outer_calls:{group}", 1)
    return t


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list, reps: list[tuple[int, int]], timed: list[int],
                  out_bytes: int) -> dict:
    """Per-layer metrics from the spans of the traced run.

    `reps` holds each repetition's span index range; times are medians over
    the repetitions listed in `timed`, counts come from the first of them (a
    job list does the same counted work every time).
    """
    per_rep = [_rep_totals(spans, *reps[i]) for i in timed]

    def med(fn):
        return statistics.median(fn(t) for t in per_rep)

    def g(t, key):
        return t.get(key, 0.0)

    def durs(name):
        """Per-call durations over the timed repetitions."""
        return [s[2] - s[1] for i in timed for s in spans[reps[i][0]:reps[i][1]]
                if s[0] == name]

    first = per_rep[0]
    theta = ("memory.OptimalProfile.theta", "memory.SampledProfile.theta")
    ops = ("slh.concatenate", "slh.series", "slh.feedback")
    free, delay = "memory.simulate_transfer", "memory.simulate_with_delay"
    scan = "memory.optimize_delays"
    peak = max((s[5] for s in spans if s[0] == scan), default=0)
    free_calls, delay_calls = durs(free), durs(delay)
    return {
        "memory.scan_s": med(lambda t: g(t, f"self:{scan}")),
        "memory.scan_us_per_cell": med(lambda t: _ratio(g(t, f"self:{scan}"),
                                                        g(t, f"n:{scan}"), 1e6)),
        "memory.theta_s": med(lambda t: sum(g(t, f"dur:{n}") for n in theta)),
        "memory.theta_points": int(sum(g(first, f"n:{n}") for n in theta)),
        "memory.scan_peak_mib": peak / 2**20,
        "memory.traj_free_s": statistics.median(free_calls) if free_calls else 0.0,
        "memory.traj_delay_s": statistics.median(delay_calls) if delay_calls else 0.0,
        "memory.free_ns_per_step": med(lambda t: _ratio(g(t, f"self:{free}"),
                                                        g(t, f"n:{free}"), 1e9)),
        "memory.delay_ns_per_step": med(lambda t: _ratio(g(t, f"self:{delay}"),
                                                         g(t, f"n:{delay}"), 1e9)),
        "memory.steps": int(g(first, f"n:{free}") + g(first, f"n:{delay}")),
        "memory.profile_s": med(lambda t: g(t, "outer:profile")),
        "circuits.decompose_s": med(lambda t: g(t, "dur:circuits.reck_decompose")),
        "circuits.us_per_pivot": med(lambda t: _ratio(
            g(t, "dur:circuits.reck_decompose"), g(t, "n:circuits.reck_decompose"), 1e6)),
        "circuits.pivots": int(g(first, "n:circuits.reck_decompose")),
        "circuits.apply_s": med(lambda t: g(t, "dur:circuits.mesh_apply")),
        "circuits.ns_per_element_col": med(lambda t: _ratio(
            g(t, "dur:circuits.mesh_apply"), g(t, "n:circuits.mesh_apply"), 1e9)),
        "circuits.plan_io_s": med(lambda t: g(t, "dur:circuits.MeshPlan.to_json")
                                  + g(t, "dur:circuits.MeshPlan.from_json")),
        "slh.compose_s": med(lambda t: g(t, "dur:slh.run_network")),
        "slh.coeffs_s": med(lambda t: g(t, "dur:slh.master_eq_coeffs")),
        "slh.ops": int(sum(g(first, f"calls:{n}") for n in ops)),
        "elasticity.call_s": med(lambda t: g(t, "outer:elasticity")),
        "elasticity.calls": int(g(first, "outer_calls:elasticity")),
        "cli.self_s": med(lambda t: g(t, "cli.self")),
        "cli.share": med(lambda t: _ratio(g(t, "cli.self"), g(t, "dur:cli.main"))),
        "cli.parser_s": med(lambda t: g(t, "dur:cli.build_parser")
                            + g(t, "dur:cli.parse_args")),
        "cli.out_bytes": int(out_bytes),
    }
