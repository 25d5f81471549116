"""Runtime spans around cvlearn's public functions, for the traced run only.

`Tracer.install` replaces each target function with a wrapper in every
loaded cvlearn module namespace that holds it (methods are replaced on their
class), so calls between cvlearn modules are seen as well as the benchmark's
own. Each call records one span: name, start, end, parent span and operation
id. Spans stay in memory; `write` saves them and `layer_metrics` reduces them
to the per-layer metrics, normalised per traced operation. `uninstall`
restores the originals. Untraced runs never call `install`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from cvlearn import measurements

NUMERICS = ("make_rng", "regularized_upper_gamma", "sample_complex_gaussian",
            "takagi_decompose", "random_symmetric_unitary", "psd_check")
STATE_BUILDERS = ("make_thermal", "make_three_peak", "make_five_peak",
                  "make_three_peak_classical", "reflect", "apply_circuit", "bell_partner")


def _count_sample(counts, a, out):
    counts["sample_draws"] += a["count"]
    counts["predicted_accepted"] += a["count"] / a["self"].envelope_mass


def _count_log_value(counts, a, out):
    counts["log_value_points"] += len(out)


def _count_record_write(counts, a, out):
    counts["record_write_bytes"] += os.path.getsize(a["path"])


def _count_record_read(counts, a, out):
    counts["record_read_bytes"] += os.path.getsize(a["path"])


def _count_means(counts, a, out):
    counts["sample_points"] += len(a["outcomes"]) * len(out)


def _count_game(counts, a, out):
    counts["game_trials"] += out.trials


def _count_build_state(counts, a, out):
    counts["fock_dim"] = max(counts["fock_dim"], out.dim)


def _count_curves(counts, a, out):
    counts["curve_points"] += len(out.x) * len(out.families)


# (span name, module, attribute, counter); a span's layer is the name up to
# its last dot. A callable name, like a counter, gets the call's arguments
# bound to parameter names.
FUNCTIONS = (
    [(f"numerics.{f}", "cvlearn.numerics", f, None) for f in NUMERICS]
    + [(f"states.build.{f}", "cvlearn.states", f, None) for f in STATE_BUILDERS]
    + [("states.char_fn.char_fn", "cvlearn.states", "char_fn", None),
       ("measurements.mixture_build.bell", "cvlearn.measurements", "bell_mixture", None),
       ("measurements.mixture_build.heterodyne", "cvlearn.measurements",
        "heterodyne_mixture", None),
       ("measurements.sample_record.bell", "cvlearn.measurements", "sample_bell", None),
       ("measurements.sample_record.heterodyne", "cvlearn.measurements",
        "sample_heterodyne", None),
       ("estimators.means.chi_squared", "cvlearn.estimators", "chi_squared_means",
        _count_means),
       ("estimators.means.chi_heterodyne", "cvlearn.estimators", "chi_heterodyne_means",
        _count_means),
       ("estimators.record.chi_squared", "cvlearn.estimators", "estimate_chi_squared", None),
       ("estimators.record.chi_heterodyne", "cvlearn.estimators",
        "estimate_chi_heterodyne", None),
       ("game.run.run_game", "cvlearn.game", "run_game", _count_game),
       ("game.tvd.tvd_pair", "cvlearn.game", "tvd_pair", None),
       # named by subcommand: cli.main.sample, cli.main.estimate
       (lambda a: f"cli.main.{a['argv'][0]}", "cvlearn.cli", "main", None),
       ("fock_oracle.check.oracle_check", "cvlearn.fock_oracle", "oracle_check", None),
       ("fock_oracle.build_state.build_state", "cvlearn.fock_oracle", "build_state",
        _count_build_state),
       ("fock_oracle.displacement.displacement_matrix", "cvlearn.fock_oracle",
        "displacement_matrix", None),
       ("fock_oracle.char_trace.char_trace", "cvlearn.fock_oracle", "char_trace", None),
       ("fock_oracle.min_eigenvalue.min_eigenvalue", "cvlearn.fock_oracle",
        "min_eigenvalue", None),
       ("channel_bridge.lambda.lambda_from_state", "cvlearn.channel_bridge",
        "lambda_from_state", None),
       ("channel_bridge.bochner.bochner_check", "cvlearn.channel_bridge", "bochner_check",
        None),
       ("bounds.emit.emit_curves", "cvlearn.bounds", "emit_curves", _count_curves)]
)

# (span name, class, attribute, counter)
METHODS = (
    ("measurements.sample.sample", measurements.SignedGaussianMixture, "sample",
     _count_sample),
    ("measurements.log_value.log_value", measurements.SignedGaussianMixture, "log_value",
     _count_log_value),
    ("measurements.record_write.write_jsonl", measurements.MeasurementRecord,
     "write_jsonl", _count_record_write),
    ("measurements.record_read.read_jsonl", measurements.MeasurementRecord,
     "read_jsonl", _count_record_read),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts = defaultdict(float)
        self.op_id = -1
        self._stack = [-1]
        self._restore = []

    # -- recording ----------------------------------------------------------
    def _wrap(self, name, fn, counter):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack)
        bind = inspect.signature(fn).bind

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name(bind(*args, **kwargs).arguments) if callable(name) else name)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def install(self):
        for name, module, attr, counter in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "cvlearn":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        for name, cls, attr, counter in METHODS:
            original = cls.__dict__[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(name, original.__func__, counter))
            else:
                wrapped = self._wrap(name, original, counter)
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i],
                                     "op": self.ops[i]}) + "\n")

    # -- reduction ----------------------------------------------------------
    def layer_metrics(self, traced_ops: int) -> dict:
        """Per-layer metrics, as (value, unit), averaged over `traced_ops` operations."""
        dur = np.array(self.ends) - np.array(self.starts)
        self_time = dur.copy()
        for i, p in enumerate(self.parents):
            if p >= 0:
                self_time[p] -= dur[i]
        layer = [name.rsplit(".", 1)[0] for name in self.names]
        calls = defaultdict(int)
        inclusive = defaultdict(float)   # spans not nested in a span of the same layer
        selfs = defaultdict(float)
        for i, lay in enumerate(layer):
            calls[lay] += 1
            selfs[lay] += self_time[i]
            p = self.parents[i]
            while p >= 0 and layer[p] != lay:
                p = self.parents[p]
            if p < 0:
                inclusive[lay] += dur[i]
        cli_sample = sum(dur[i] for i, n in enumerate(self.names) if n == "cli.main.sample")
        c = self.counts
        ops = max(traced_ops, 1)

        def per_op(x):
            return float(x) / ops

        def ratio(num, den, scale=1.0):
            return float(num) / den * scale if den else 0.0

        record_s = inclusive["measurements.record_write"] + inclusive["measurements.record_read"]
        out = {
            "numerics.calls": (per_op(calls["numerics"]), "count/op"),
            "numerics.self_s": (per_op(selfs["numerics"]), "s/op"),
            "states.build_calls": (per_op(calls["states.build"]), "count/op"),
            "states.build_s": (per_op(inclusive["states.build"]), "s/op"),
            "states.char_fn_calls": (per_op(calls["states.char_fn"]), "count/op"),
            "states.char_fn_s": (per_op(inclusive["states.char_fn"]), "s/op"),
            "measurements.mixture_build_calls": (
                per_op(calls["measurements.mixture_build"]), "count/op"),
            "measurements.mixture_build_s": (
                per_op(inclusive["measurements.mixture_build"]), "s/op"),
            "measurements.sample_calls": (per_op(calls["measurements.sample"]), "count/op"),
            "measurements.sample_draws": (per_op(c["sample_draws"]), "count/op"),
            "measurements.sample_s": (per_op(inclusive["measurements.sample"]), "s/op"),
            "measurements.sample_ns_per_draw": (
                ratio(inclusive["measurements.sample"], c["sample_draws"], 1e9), "ns"),
            "measurements.predicted_acceptance": (
                ratio(c["predicted_accepted"], c["sample_draws"]), "ratio"),
            "measurements.log_value_points": (per_op(c["log_value_points"]), "count/op"),
            "measurements.log_value_s": (per_op(inclusive["measurements.log_value"]), "s/op"),
            "measurements.record_write_s": (
                per_op(inclusive["measurements.record_write"]), "s/op"),
            "measurements.record_read_s": (
                per_op(inclusive["measurements.record_read"]), "s/op"),
            "measurements.record_bytes": (per_op(c["record_write_bytes"]), "B/op"),
            "measurements.record_mb_per_s": (
                ratio(c["record_write_bytes"] + c["record_read_bytes"], record_s, 1e-6),
                "MB/s"),
            "estimators.means_calls": (per_op(calls["estimators.means"]), "count/op"),
            "estimators.sample_points": (per_op(c["sample_points"]), "count/op"),
            "estimators.means_s": (per_op(inclusive["estimators.means"]), "s/op"),
            "estimators.ns_per_sample_point": (
                ratio(inclusive["estimators.means"], c["sample_points"], 1e9), "ns"),
            "game.trials": (per_op(c["game_trials"]), "count/op"),
            "game.run_s": (per_op(inclusive["game.run"]), "s/op"),
            "game.loop_self_s": (per_op(selfs["game.run"]), "s/op"),
            "game.tvd_calls": (per_op(calls["game.tvd"]), "count/op"),
            "game.tvd_s": (per_op(inclusive["game.tvd"]), "s/op"),
            "cli.sample_s": (per_op(cli_sample), "s/op"),
            "cli.estimate_s": (per_op(inclusive["cli.main"] - cli_sample), "s/op"),
            "cli.self_s": (per_op(selfs["cli.main"]), "s/op"),
            "fock_oracle.build_state_s": (per_op(inclusive["fock_oracle.build_state"]), "s/op"),
            "fock_oracle.displacement_calls": (
                per_op(calls["fock_oracle.displacement"]), "count/op"),
            "fock_oracle.displacement_s": (
                per_op(inclusive["fock_oracle.displacement"]), "s/op"),
            "fock_oracle.char_trace_calls": (
                per_op(calls["fock_oracle.char_trace"]), "count/op"),
            "fock_oracle.char_trace_self_s": (
                per_op(selfs["fock_oracle.char_trace"]), "s/op"),
            "fock_oracle.min_eigenvalue_s": (
                per_op(inclusive["fock_oracle.min_eigenvalue"]), "s/op"),
            "fock_oracle.dim": (float(c["fock_dim"]), "count"),
            "channel_bridge.lambda_s": (per_op(inclusive["channel_bridge.lambda"]), "s/op"),
            "channel_bridge.bochner_checks": (
                per_op(calls["channel_bridge.bochner"]), "count/op"),
            "bounds.curve_points": (per_op(c["curve_points"]), "count/op"),
            "bounds.emit_s": (per_op(inclusive["bounds.emit"]), "s/op"),
            "trace.spans_per_op": (per_op(len(self.names)), "count/op"),
        }
        return out
