"""Layer spans for the traced run, recorded around the program's own functions.

Each layer's public function is replaced, for the traced passes only, by a
wrapper at the module attribute its caller looks it up under (for example
``cdma_ee.control.solve_optimal_sinr_batch``, the solver as the control loop
calls it).  A wrapper records one span per call: its name, its parent span,
start and end times, and one number about the call (entries solved, rounds
run, rows produced, bytes written, or 1 for a refused decorrelator).  Spans
stay in memory until ``write``.  Per-layer metrics are medians over the
traced passes of per-pass totals.  A layer whose function cannot be found or
is never called is named on stderr as unmeasured; since the result line must
hold every per-layer metric, its metrics read 0 there.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import statistics
import sys
import time
from pathlib import Path

import calibration
from cdma_ee.errors import ReceiverUnavailableError


def _entries(args, kwargs, result):
    return getattr(args[0] if args else kwargs["eff_interference"], "size", 1)


def _rounds(args, kwargs, result):
    return int(result.rounds.sum())


def _rows(args, kwargs, result):
    return len(result.rows)


def _bytes(args, kwargs, result):
    return sum(Path(path).stat().st_size for path in result.values())


# (module, attribute the caller uses, span name, value of a call)
TARGETS = [
    ("cdma_ee.control", "solve_optimal_sinr_batch", "optimize.solve_optimal_sinr_batch", _entries),
    ("cdma_ee.harness", "run_control_batch", "control.run_control_batch", _rounds),
    ("cdma_ee.control", "verhulst_step", "control.verhulst_step", None),
    ("cdma_ee.control", "guarded_inverse", "spreading.guarded_inverse", None),
    ("cdma_ee.spreading", "guarded_inverse", "spreading.guarded_inverse", None),
    ("cdma_ee.harness", "draw_scenario", "scenario.draw_scenario", None),
    ("cdma_ee.scenario", "draw_channel", "channel.draw_channel", None),
    ("cdma_ee.tradeoff", "draw_channel", "channel.draw_channel", None),
    ("cdma_ee.cli", "run_experiment", "harness.run_experiment", _rows),
    ("cdma_ee.cli", "emit_results", "harness.emit_results", _bytes),
    ("cdma_ee.cli", "read_report", "harness.read_report", None),
    ("cdma_ee.cli", "paired_comparison", "harness.paired_comparison", None),
    ("cdma_ee.cli", "sweep_tradeoff", "tradeoff.sweep_tradeoff", None),
    ("cdma_ee.tradeoff", "utility", "metrics.utility", None),
    ("cdma_ee.harness", "global_ee", "metrics.global_ee", None),
]

# Spans inside a control.run_control_batch span that count against its self time.
CONTROL_CHILDREN = (
    "optimize.solve_optimal_sinr_batch",
    "spreading.guarded_inverse",
    "control.verhulst_step",
)


class Tracer:
    """Installs the wrappers and keeps their spans in memory."""

    def __init__(self):
        # (span id, parent id, name, start, end, value, pass index)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.pass_index = -1
        self.missing: set[str] = set()

    def start_pass(self):
        self.pass_index += 1

    def _wrap(self, original, name, value_of):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(span_id)
            value = 0
            paused = calibration.paused_s()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if value_of is not None:
                    value = value_of(args, kwargs, result)
                return result
            except ReceiverUnavailableError:
                value = 1
                raise
            finally:
                # Speed samples taken inside the call are not the program's time.
                end = time.perf_counter() - (calibration.paused_s() - paused)
                tracer.stack.pop()
                tracer.spans[span_id] = (
                    span_id, parent, name, start, end, value, tracer.pass_index
                )

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        restore = []
        try:
            for module_name, attr, name, value_of in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(original, name, value_of))
                restore.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "parent", "name", "start_s", "end_s", "value", "pass"])
            writer.writerows(self.spans)

    def _pass_totals(self, index: int) -> dict[str, dict[str, float]]:
        spans = [s for s in self.spans if s[6] == index]
        by_id = {s[0]: s for s in spans}
        totals: dict[str, dict[str, float]] = {}
        child_s = 0.0
        for _, parent, name, start, end, value, _ in spans:
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "value": 0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["value"] += value
            if name in CONTROL_CHILDREN and parent in by_id:
                if by_id[parent][2] == "control.run_control_batch":
                    child_s += end - start
        if "control.run_control_batch" in totals:
            totals["control.run_control_batch"]["self_s"] = (
                totals["control.run_control_batch"]["s"] - child_s
            )
        return totals

    def metrics(self) -> dict:
        """Per-layer metrics, each the median of its per-pass values."""
        passes = [self._pass_totals(i) for i in range(self.pass_index + 1)]
        for target in sorted(self.missing):
            print(f"unmeasured: {target} not found", file=sys.stderr)
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for totals in passes:
            for name, unit, value in _layer_metrics(totals):
                values.setdefault(name, []).append(value)
                units[name] = unit
        result = {}
        for name, span in SPAN_OF.items():
            if name not in values:
                # The result line must hold every per-layer metric: a layer the
                # workload never reaches reads 0 calls, 0 s and 0 per call.
                print(f"unmeasured: {name} ({span} never called), reported as 0", file=sys.stderr)
                result[name] = {"value": 0, "unit": _unit(name)}
                continue
            # Counts repeat exactly from pass to pass; median_low keeps them whole.
            middle = statistics.median if units[name] in ("s", "us") else statistics.median_low
            result[name] = {"value": middle(values[name]), "unit": units[name]}
        return result


# Per-layer metric -> span it is derived from.
SPAN_OF = {
    "optimize.solve_optimal_sinr_batch.calls": "optimize.solve_optimal_sinr_batch",
    "optimize.solve_optimal_sinr_batch.entries": "optimize.solve_optimal_sinr_batch",
    "optimize.solve_optimal_sinr_batch.s": "optimize.solve_optimal_sinr_batch",
    "optimize.solve_optimal_sinr_batch.us_per_entry": "optimize.solve_optimal_sinr_batch",
    "control.run_control_batch.s": "control.run_control_batch",
    "control.self_s": "control.run_control_batch",
    "control.rounds": "control.run_control_batch",
    "control.verhulst_step.calls": "control.verhulst_step",
    "control.verhulst_step.us_per_call": "control.verhulst_step",
    "spreading.guarded_inverse.calls": "spreading.guarded_inverse",
    "spreading.guarded_inverse.us_per_call": "spreading.guarded_inverse",
    "spreading.refusals": "spreading.guarded_inverse",
    "scenario.draw_scenario.calls": "scenario.draw_scenario",
    "scenario.draw_scenario.us_per_call": "scenario.draw_scenario",
    "harness.rows": "harness.run_experiment",
    "harness.emit_results.s": "harness.emit_results",
    "harness.emit_results.bytes": "harness.emit_results",
    "harness.read_report.s": "harness.read_report",
    "harness.paired_comparison.s": "harness.paired_comparison",
    "tradeoff.sweep_tradeoff.s": "tradeoff.sweep_tradeoff",
    "channel.draw_channel.calls": "channel.draw_channel",
    "channel.draw_channel.us_per_call": "channel.draw_channel",
    "metrics.utility.calls": "metrics.utility",
    "metrics.utility.us_per_call": "metrics.utility",
    "metrics.global_ee.calls": "metrics.global_ee",
}


def _unit(name: str) -> str:
    kind = name.rsplit(".", 1)[-1]
    if kind in ("s", "self_s"):
        return "s"
    if kind.startswith("us_per_"):
        return "us"
    return "bytes" if kind == "bytes" else "count"


def _layer_metrics(totals: dict) -> list[tuple[str, str, float]]:
    out = []
    for name, span in SPAN_OF.items():
        entry = totals.get(span)
        if entry is None:
            continue
        calls, seconds, value = entry["calls"], entry["s"], entry["value"]
        kind = name.rsplit(".", 1)[-1]
        if kind == "calls":
            measured = calls
        elif name == "control.self_s":
            measured = entry["self_s"]
        elif kind == "s":
            measured = seconds
        elif kind == "us_per_call":
            measured = 1e6 * seconds / calls
        elif kind == "us_per_entry":
            measured = 1e6 * seconds / value if value else 0.0
        else:  # entries, rounds, refusals, rows, bytes: the span's summed value
            measured = value
        out.append((name, _unit(name), measured))
    return out
