"""Span tracer that wraps fvi's functions from outside the package.

fvi's modules import each other's functions by name, so a wrapper only sees
a call when it is installed at the name the caller looks up: the stepping
loop finds `d_all_lagrangian` as `fvi.stepper.d_all_lagrangian`, and
`simulate` finds `run` as `fvi.harness.run`.  SITES lists those places.
A name a later version of fvi no longer has is skipped, and the metrics
that depend on it are reported as absent.

Spans (name, site, start, end, parent, thread) are kept in memory with a
per-thread parent stack and turned into the per-layer metrics when the
traced run ends.  Closing the tracer puts every attribute back as it was.
"""

import functools
import importlib
import json
import threading
from time import perf_counter

# span name -> the (module, attribute) names its callers look it up by
SITES = {
    "cq.compute_weights": (("fvi.stepper", "compute_weights"),
                           ("fvi.harness", "compute_weights")),
    "cq.midcq_weights": (("fvi.stepper", "midcq_weights"),
                         ("fvi.harness", "midcq_weights")),
    "cq.StageTrajectory": (("fvi.stepper", "StageTrajectory"),),
    "galerkin.d_all_lagrangian": (("fvi.stepper", "d_all_lagrangian"),),
    "galerkin.hessian_blocks": (("fvi.stepper", "hessian_blocks"),),
    "galerkin.basis_for": (("fvi.stepper", "basis_for"),),
    "stepper.run": (("fvi", "run"), ("fvi.harness", "run"),
                    ("fvi.harness", "run_midcq")),
    "stepper.init_step": (("fvi.stepper", "init_step"),),
    "stepper.step": (("fvi.stepper", "step"),),
    "stepper.legendre": (("fvi.stepper", "legendre_minus"),
                         ("fvi.stepper", "legendre_plus")),
    "models.energy": (("fvi.stepper", "energy"), ("fvi.models", "energy")),
    "models.energy_series": (("fvi.harness", "energy_series"),),
    "harness.simulate": (("fvi.harness", "simulate"),),
    "harness.node_errors": (("fvi.harness", "node_errors"),),
    "harness.converge": (("fvi.harness", "converge"),),
    "harness.fit_slope": (("fvi.harness", "fit_slope"),),
}

# Modules whose spans stepper.self_s subtracts from the stepping loop's time.
_CHILD_LAYERS = ("cq.", "galerkin.", "models.")


def _calls_and_seconds(span):
    return [(f"{span}.calls", "count", "lower", span),
            (f"{span}.s", "s", "lower", span)]


# (metric, unit, better, span name it needs); per_layer in BENCHMARK.json
# lists the same names.  bench/run.py computes trace.*, not the spans.
PER_LAYER = [
    *_calls_and_seconds("cq.compute_weights"),
    ("cq.compute_weights.hit_ratio", "ratio", "higher", "cq.compute_weights"),
    ("cq.compute_weights.retries", "count", "lower", "cq.compute_weights"),
    ("cq.compute_weights.max_imag_residue", "abs", "lower",
     "cq.compute_weights"),
    ("cq.compute_weights.table_bytes", "B", "lower", "cq.compute_weights"),
    *_calls_and_seconds("cq.midcq_weights"),
    *_calls_and_seconds("cq.StageTrajectory"),
    *_calls_and_seconds("galerkin.d_all_lagrangian"),
    *_calls_and_seconds("galerkin.hessian_blocks"),
    *_calls_and_seconds("galerkin.basis_for"),
    *_calls_and_seconds("stepper.step"),
    *_calls_and_seconds("stepper.init_step"),
    *_calls_and_seconds("stepper.legendre"),
    ("stepper.self_s", "s", "lower", "stepper.run"),
    ("stepper.newton.systems", "count", "lower", "stepper.run"),
    ("stepper.newton.solves", "count", "lower", "stepper.run"),
    ("stepper.newton.solves_per_system", "ratio", "lower", "stepper.run"),
    ("stepper.newton.max_residual", "abs", "lower", "stepper.run"),
    ("stepper.newton.failures", "count", "lower", "stepper.run"),
    *_calls_and_seconds("models.energy"),
    ("models.energy_series.s", "s", "lower", "models.energy_series"),
    ("harness.node_errors.s", "s", "lower", "harness.node_errors"),
    ("harness.output_s", "s", "lower", "harness.simulate"),
    ("harness.output_bytes", "B", "lower", "harness.simulate"),
    ("harness.weights_hash.s", "s", "lower", "harness.simulate"),
    ("harness.converge.s", "s", "lower", "harness.converge"),
    ("harness.converge.case_s_sum", "s", "lower", "harness.converge"),
    ("harness.converge.overlap", "ratio", "higher", "harness.converge"),
    ("harness.fit_slope.s", "s", "lower", "harness.fit_slope"),
    ("trace.solve_s", "s", "lower", None),
    ("trace.overhead", "ratio", "lower", None),
]


class Tracer:
    """Context manager that wraps the SITES of fvi and records spans."""

    def __init__(self):
        self.spans = []  # [name, site, start, end, parent span, thread id]
        self.absent = set()
        self._saved = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._weights_seen = {}  # id -> WeightSequence, kept alive for identity
        self.weights = {"hits": 0, "retries": 0, "max_imag_residue": 0.0,
                        "table_bytes": 0}
        self.newton = {"systems": 0, "solves": 0, "max_residual": 0.0,
                       "failures": 0}

    # ------------------------------------------------------------ install
    def __enter__(self):
        hooks = {"cq.compute_weights": (self._on_weights, None),
                 "stepper.run": (self._on_solution, self._on_run_error)}
        try:
            for name, sites in SITES.items():
                installed = False
                for module_name, attr in sites:
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:
                        continue
                    if not hasattr(module, attr):
                        continue
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr,
                            self._wrap(name, module_name, original,
                                       *hooks.get(name, (None, None))))
                    installed = True
                if not installed:
                    self.absent.add(name)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Put every wrapped attribute back exactly as it was found."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, site, fn, on_result, on_error):
        local = self._local
        spans = self.spans

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, site, perf_counter(), None,
                    stack[-1] if stack else None, threading.get_ident()]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
                spans.append(span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -------------------------------------------------------------- hooks
    def _on_weights(self, seq):
        # A cache hit hands back the very object an earlier call returned.
        # Without an explicit radius, compute_weights uses eps^(1/(M+N)) and
        # shrinks it only when it retries a degenerate contour.
        n = seq.W.shape[0] - 1
        with self._lock:
            if id(seq) in self._weights_seen:
                self.weights["hits"] += 1
                return
            self._weights_seen[id(seq)] = seq
            if seq.radius < seq.eps ** (1.0 / (seq.contour_points + n)):
                self.weights["retries"] += 1
            self.weights["max_imag_residue"] = max(
                self.weights["max_imag_residue"], seq.max_imag_residue)
            self.weights["table_bytes"] += seq.W.nbytes

    def _on_solution(self, sol):
        stats = sol.newton_stats
        with self._lock:
            self.newton["systems"] += len(stats)
            self.newton["solves"] += sum(int(s[0]) for s in stats)
            self.newton["max_residual"] = max(
                [self.newton["max_residual"], *(float(s[1]) for s in stats)])

    def _on_run_error(self, exc):
        import fvi  # not at the top: bench/run.py imports PER_LAYER without fvi

        if isinstance(exc, fvi.NewtonError):
            with self._lock:
                self.newton["failures"] += 1

    # ---------------------------------------------------------- reporting
    def metrics(self, output_bytes=0):
        """Per-layer metrics from the recorded spans, and the absent names."""
        totals = {}
        for name, _, start, end, _, _ in self.spans:
            calls, secs = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, secs + end - start)
        out = {}
        for name in SITES:
            calls, secs = totals.get(name, (0, 0.0))
            out[f"{name}.calls"], out[f"{name}.s"] = calls, secs

        w = self.weights
        calls = out["cq.compute_weights.calls"]
        out["cq.compute_weights.hit_ratio"] = w["hits"] / calls if calls else 0.0
        for key in ("retries", "max_imag_residue", "table_bytes"):
            out[f"cq.compute_weights.{key}"] = w[key]

        nw = self.newton
        for key in ("systems", "solves", "max_residual", "failures"):
            out[f"stepper.newton.{key}"] = nw[key]
        out["stepper.newton.solves_per_system"] = (
            nw["solves"] / nw["systems"] if nw["systems"] else 0.0)

        out["stepper.self_s"] = self._stepper_self_s()
        simulate = [s for s in self.spans if s[0] == "harness.simulate"]
        out["harness.output_s"] = sum(self._self_time(s) for s in simulate)
        out["harness.output_bytes"] = output_bytes
        out["harness.weights_hash.s"] = sum(
            s[3] - s[2] for s in self.spans
            if s[0] in ("cq.compute_weights", "cq.midcq_weights")
            and s[1] == "fvi.harness")

        conv = [s for s in self.spans if s[0] == "harness.converge"]
        conv_s = sum(s[3] - s[2] for s in conv)
        # converge's cases run on pool threads, so they are found by time,
        # not by parent: every run and node_errors span inside a converge span
        case_s = sum(s[3] - s[2] for s in self.spans
                     if s[0] in ("stepper.run", "harness.node_errors")
                     and any(c[2] <= s[2] and s[3] <= c[3] for c in conv))
        out["harness.converge.s"] = conv_s
        out["harness.converge.case_s_sum"] = case_s
        out["harness.converge.overlap"] = case_s / conv_s if conv_s else 0.0

        absent = sorted(metric for metric, _, _, needs in PER_LAYER
                        if needs in self.absent)
        return out, absent

    def _self_time(self, span):
        children = sum(s[3] - s[2] for s in self.spans if s[4] is span)
        return span[3] - span[2] - children

    def _stepper_self_s(self):
        """Stepping-loop time minus the outermost cq, galerkin, models spans in it."""
        total = sum(s[3] - s[2] for s in self.spans if s[0] == "stepper.run")
        for span in self.spans:
            if not span[0].startswith(_CHILD_LAYERS):
                continue
            parent = span[4]
            while parent is not None and not parent[0].startswith(_CHILD_LAYERS):
                if parent[0] == "stepper.run":
                    total -= span[3] - span[2]
                    break
                parent = parent[4]
        return total

    def write_spans(self, path):
        """Write the spans as JSON lines; parent is the parent's line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index[id(s[4])] if s[4] is not None else None
                fh.write(json.dumps({"name": s[0], "site": s[1],
                                     "start": s[2], "end": s[3],
                                     "parent": parent, "thread": s[5]}) + "\n")
