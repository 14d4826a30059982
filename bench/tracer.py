"""Outside-in tracer for the cavity_bell layers.

The package modules bind names at import time (``from .fock import joint``),
so a call is traced only if the name is replaced in the module that looks
it up. ``Tracer.install`` therefore patches a target function under every
name that binds it in any ``cavity_bell`` module; a method is patched once,
on its class. Nothing under ``src/`` is changed, and ``uninstall`` puts every
original back.

Spans (name, start, end, parent) are kept in memory. A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("fock", "binomial", "fields", "bell", "dynamics", "cli")

# (span name, defining module, attribute). The span name starts with the
# layer that owns the function; several functions may share one span name.
TARGETS = (
    ("fock.joint", "cavity_bell.fock", "joint"),
    ("fock.expectation", "cavity_bell.fock", "expectation"),
    ("fock.uniforms", "cavity_bell.fock", "RandomStream.uniforms"),
    ("binomial.gbs_state", "cavity_bell.binomial", "gbs_state"),
    ("fields.entangled_gbs_state", "cavity_bell.fields", "entangled_gbs_state"),
    ("bell.operator", "cavity_bell.bell", "bell_function_operator"),
    ("bell.operator", "cavity_bell.bell", "dichotomic_pair_expectation"),
    ("bell.closed_form", "cavity_bell.bell", "bell_function"),
    ("bell.vs_p", "cavity_bell.bell", "bell_function_vs_p"),
    ("dynamics.run_bell_experiment", "cavity_bell.dynamics", "run_bell_experiment"),
    ("dynamics.timing_sensitivity", "cavity_bell.dynamics", "timing_sensitivity"),
    ("cli.write", "cavity_bell.cli", "write_manifest"),
    ("cli.write", "cavity_bell.cli", "_write_csv"),
    ("cli.write", "cavity_bell.cli", "_write_keyvalue"),
)

# The span the benchmark opens around ``cavity_bell.cli.main``.
ROOT_SPAN = "cli.main"

# Counters read from the result of a traced call, keyed by target attribute:
# (counter names, function of the result giving one value per name).
# ``fock.joint.bytes_computed`` is the size of the dense kron product, 16 d^4
# bytes for two d x d complex operators: computed, not a measured traffic.
COUNTERS = {
    "joint": (("fock.joint.bytes_computed",), lambda r: (r.matrix.nbytes,)),
    "RandomStream.uniforms": (("fock.uniforms.draws",), lambda r: (len(r),)),
    "bell_function_vs_p": (("bell.p_points_evaluated",), lambda r: (len(r),)),
    "run_bell_experiment": (
        ("dynamics.shots_drawn", "dynamics.shots_retained"),
        lambda r: (sum(s.shots for s in r.settings), sum(s.retained for s in r.settings)),
    ),
    "timing_sensitivity": (("dynamics.sweep_rows",), lambda r: (len(r),)),
}

# Span names reported as <name>.calls and <name>.self_s.
CALL_GROUPS = (
    "fock.joint",
    "fock.expectation",
    "fock.uniforms",
    "binomial.gbs_state",
    "fields.entangled_gbs_state",
    "bell.operator",
    "bell.closed_form",
    "dynamics.run_bell_experiment",
    "dynamics.timing_sensitivity",
)


class Tracer:
    """Spans and counters of one traced command run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent index or -1)
        self.counters: dict[str, int] = defaultdict(int)
        self.installed: set[str] = {ROOT_SPAN}  # span names with a wrapped function
        self.counted: set[str] = set()  # target attributes whose counters work
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, time.perf_counter_ns()

    def _close(self, name_index: int, index: int, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name_index, start, end, parent)

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _count(self, attribute: str, result) -> None:
        keys, read = COUNTERS[attribute]
        try:
            values = read(result)
        except (AttributeError, TypeError) as exc:
            print(f"tracer: cannot count {attribute}: {exc}", file=sys.stderr)
            self.counted.discard(attribute)
            return
        for key, value in zip(keys, values):
            self.counters[key] += int(value)

    def _wrap(self, span: str, attribute: str, fn):
        name_index = self._name_index(span)
        counted = attribute in COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name_index, index, start)
            if counted and attribute in self.counted:
                self._count(attribute, result)
            return result

        return traced

    def run(self, fn, *args):
        """Call ``fn(*args)`` inside the root span."""
        name_index = self._name_index(ROOT_SPAN)
        index, start = self._open()
        try:
            return fn(*args)
        finally:
            self._close(name_index, index, start)

    def install(self) -> None:
        """Patch every target where it is looked up; record the missing ones."""
        package = [module for name, module in sorted(sys.modules.items())
                   if name == "cavity_bell" or name.startswith("cavity_bell.")]
        for span, module_name, attribute in TARGETS:
            owner_name, _, name = attribute.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapped = self._wrap(span, attribute, original)
            for namespace in [owner] if owner_name else package:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, key, original))
                        setattr(namespace, key, wrapped)
            self.installed.add(span)
            if attribute in COUNTERS:
                self.counted.add(attribute)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times_ns(self) -> list[int]:
        """Duration of each span minus the union of its children's intervals."""
        children: list[list[int]] = [[] for _ in self.spans]
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(index)
        out = []
        for index, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0, start
            for child in children[index]:  # in the order they started
                lo = max(self.spans[child][1], reach)
                hi = min(self.spans[child][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def _self_by_span(self) -> tuple[dict[str, int], dict[str, int]]:
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for (name_index, *_), self_ns in zip(self.spans, self.self_times_ns()):
            calls[self.names[name_index]] += 1
            own[self.names[name_index]] += self_ns
        return calls, own

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed over every span of each layer, cli included."""
        _, own = self._self_by_span()
        return {
            layer: sum(t for span, t in own.items() if span.split(".")[0] == layer) / 1e9
            for layer in LAYERS
        }

    def metrics(self, rows_written: int, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of this run, by the names in BENCHMARK.json.

        A metric whose wrapped functions or counter are all missing is left
        out rather than reported as zero. A ratio whose base count is zero,
        because the workload does not use that layer, is reported as 0.
        """
        calls, own = self._self_by_span()
        out: dict[str, float] = {}
        for group in CALL_GROUPS:
            if group in self.installed:
                out[f"{group}.calls"] = calls[group]
                out[f"{group}.self_s"] = own[group] / 1e9
        layers = self.layer_self_s()
        for layer in LAYERS[:-1]:
            out[f"{layer}.self_s"] = layers[layer]
        out["cli.self_s"] = own[ROOT_SPAN] / 1e9
        if "cli.write" in self.installed:
            out["cli.write_s"] = own["cli.write"] / 1e9
        out["cli.bytes_written"] = bytes_written

        for attribute in self.counted:
            for key in COUNTERS[attribute][0]:
                out[key] = self.counters[key]
        if "bell.p_points_evaluated" in out:
            out["bell.p_points_useful_ratio"] = _ratio(
                rows_written, out["bell.p_points_evaluated"])
        if "dynamics.shots_drawn" in out:
            drawn = out["dynamics.shots_drawn"]
            out["dynamics.retained_ratio"] = _ratio(out["dynamics.shots_retained"], drawn)
            if "fock.uniforms.draws" in out:
                out["dynamics.draws_per_shot"] = _ratio(out["fock.uniforms.draws"], drawn)
        return out

    def write_spans(self, path) -> None:
        """Write the spans as CSV, times in ns from the start of the first span."""
        origin = self.spans[0][1] if self.spans else 0
        lines = ["index,name,start_ns,end_ns,parent"]
        for index, (name_index, start, end, parent) in enumerate(self.spans):
            lines.append(
                f"{index},{self.names[name_index]},{start - origin},{end - origin},{parent}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0
