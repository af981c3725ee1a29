"""Exact counts and span tracing around the calls into dqgrad's modules.

Nothing in dqgrad knows about this file. Both instruments patch module and
class attributes of the imported package, at the place where each name is
looked up when the program runs, and put the originals back on `remove()`:

- `RunCounter` wraps the harness's run entry points and its
  `run_protocol` name. Its work is per run, not per round, so the timed
  run keeps it: it yields the exact counts (rounds, runs, t_max runs,
  uplink bits, downlink bytes) and checks the uplink bit budget of every
  run.
- `Tracer` wraps every public function named in `TRACED` and records one
  span per call. It is installed only in the separate traced run.
"""

import inspect
import itertools
import math
import time
from array import array

# Spans kept in memory for the spans file; later spans still count in the
# per-layer totals. 1M spans take about 40 MB.
MAX_SPANS = 1_000_000


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name, new):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def restore(self):
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


class RunCounter:
    """Exact per-run counts, taken at the harness boundary.

    A run is one `run_dq`, `run_nq` or `run_unquantized` call. A round is
    one pass of `run_protocol`'s loop. A run hits t_max when it used all
    t_max steps and its last distance still sat inside the stop window.
    """

    def __init__(self, dq):
        self.dq = dq
        self.patches = Patches()
        self.run_id = 0
        self.errors = []
        self.reset()

    def reset(self):
        self.runs = 0
        self.failed_runs = 0
        self.t_max_runs = 0
        self.rounds = 0
        self.t_max_rounds = 0
        self.uplink_bits = 0
        self.downlink_bytes = 0
        self._last_protocol = None

    def snapshot(self):
        return {
            "engines.rounds": self.rounds,
            "harness.runs": self.runs,
            "harness.t_max_runs": self.t_max_runs,
            "harness.t_max_rounds": self.t_max_rounds,
            "transport.uplink_bits": self.uplink_bits,
            "transport.downlink_bytes": self.downlink_bytes,
        }

    def install(self):
        harness = self.dq.harness
        self.patches.replace(harness, "run_protocol",
                             self._count_protocol(harness.run_protocol))
        for name, budget in (("run_dq", _dq_bits),
                             ("run_nq", _nq_bits),
                             ("run_unquantized", None)):
            fn = getattr(harness, name)
            self.patches.replace(harness, name, self._count_run(fn, budget))

    def remove(self):
        self.patches.restore()

    def _count_protocol(self, run_protocol):
        def counted(server, workers, channels, steps, on_iteration=None,
                    stop=None):
            rounds = run_protocol(server, workers, channels, steps,
                                  on_iteration=on_iteration, stop=stop)
            self._last_protocol = (
                rounds,
                sum(sum(ch.trace.uplink_bits) for ch in channels),
                sum(sum(ch.trace.downlink_bytes) for ch in channels),
            )
            return rounds

        return counted

    def _count_run(self, fn, budget):
        signature = inspect.signature(fn)

        def counted(*args, **kwargs):
            self.run_id += 1
            self.runs += 1
            self._last_protocol = None
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed_runs += 1
                raise
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            record = out[0] if isinstance(out, tuple) else out
            hit = _hit_t_max(record, bound.arguments["t_max"],
                             self.dq.harness.DIVERGENCE_SCALE)
            self.t_max_runs += hit
            if budget is not None:
                self._check_protocol(fn.__name__, record, hit,
                                     budget(bound.arguments))
            return out

        return counted

    def _check_protocol(self, name, record, hit, bits_per_round):
        rounds, up, down = self._last_protocol
        self.rounds += rounds
        self.t_max_rounds += rounds if hit else 0
        self.uplink_bits += up
        self.downlink_bytes += down
        if rounds != record.terminal_T:
            self.errors.append(f"{name}: {rounds} rounds but "
                               f"{record.terminal_T} recorded distances")
        if up != rounds * bits_per_round:
            self.errors.append(f"{name}: {up} uplink bits over {rounds} rounds, "
                               f"expected {bits_per_round} per round")


def _dq_bits(args):
    return args["objective"].n * args["R"]


def _nq_bits(args):
    return args["problem"].x0.shape[0] * sum(args["rates"])


def _hit_t_max(record, t_max, divergence_scale):
    """True when the run stopped only because it used all t_max steps."""
    d = record.distances
    if record.terminal_T < t_max:
        return False
    ceiling = divergence_scale * max(1.0, d[0])  # d[0] is the start distance D
    return math.isfinite(d[-1]) and record.floor <= d[-1] <= ceiling


# ---------------------------------------------------------------------------
# tracing

# (metric name, [(module, owner path, attribute), ...]). Each entry lists
# every namespace the name is looked up in when dqgrad runs.
TRACED = (
    ("quantizer.quantize", [("quantizer", "ScaledQuantizer", "quantize")]),
    ("quantizer.reconstruct", [("quantizer", None, "reconstruct"),
                               ("engines", None, "reconstruct")]),
    ("quantizer.encode_payload", [("quantizer", None, "encode_payload")]),
    ("quantizer.decode_payload", [("quantizer", None, "decode_payload"),
                                  ("transport", None, "decode_payload")]),
    ("quantizer.Payload.from_indices", [("quantizer", "Payload", "from_indices")]),
    ("problems.grad", [("problems", "LeastSquares", "grad")]),
    ("problems.make_gaussian_ls", [("problems", None, "make_gaussian_ls"),
                                   ("harness", None, "make_gaussian_ls")]),
    ("problems.make_interpolation_problem",
     [("problems", None, "make_interpolation_problem"),
      ("harness", None, "make_interpolation_problem")]),
    ("problems.objective", [("problems", "LeastSquares", "objective")]),
    ("problems.load_matrix_market", [("problems", None, "load_matrix_market"),
                                     ("configfile", None, "load_matrix_market")]),
    ("transport.send_iterate", [("transport", "Channel", "send_iterate")]),
    ("transport.recv_iterate", [("transport", "Channel", "recv_iterate")]),
    ("transport.send_payload", [("transport", "Channel", "send_payload")]),
    ("transport.recv_payload_bits", [("transport", "Channel", "recv_payload_bits")]),
    ("schedules.ScheduleCursor.step", [("schedules", "ScheduleCursor", "step")]),
    ("schedules.waterfill_bits", [("schedules", None, "waterfill_bits"),
                                  ("harness", None, "waterfill_bits")]),
    ("engines.worker.round", [("engines", "_WorkerBase", "round")]),
    ("engines.worker.quantizer_input",
     [("engines", cls, "quantizer_input")
      for cls in ("DQGDWorker", "DQAGDWorker", "DQHBWorker",
                  "DQGDVaryingWorker", "NQGDWorker")]),
    ("engines.server.broadcast", [("engines", "_ServerBase", "broadcast")]),
    ("engines.server.collect", [("engines", "_ServerBase", "collect")]),
    ("engines.run_protocol", [("harness", None, "run_protocol")]),
    ("harness.observe", []),  # run_protocol's on_iteration callback
    ("harness.stop", []),  # run_protocol's stop callback
    ("harness.run_dq", [("harness", None, "run_dq")]),
    ("harness.run_nq", [("harness", None, "run_nq")]),
    ("harness.run_unquantized", [("harness", None, "run_unquantized")]),
    ("harness.estimate_contraction", [("harness", None, "estimate_contraction")]),
    ("harness.run_sweep", [("harness", None, "run_sweep")]),
    ("harness.emit_csv", [("harness", None, "emit_csv")]),
    ("harness.emit_svg", [("harness", None, "emit_svg")]),
    ("configfile.load_experiments", [("configfile", None, "load_experiments")]),
    ("bounds.achievable_rate", [("bounds", None, "achievable_rate")]),
    ("bounds.converse_curve", [("bounds", None, "converse_curve")]),
    ("bounds.nq_sigma", [("bounds", None, "nq_sigma")]),
)

NAMES = tuple(name for name, _ in TRACED)
MODULES = ("quantizer", "problems", "transport", "schedules", "engines",
           "harness", "configfile", "bounds")
# functions whose call count is a per-layer metric beside their self time
WITH_CALLS = ("quantizer.quantize", "quantizer.reconstruct",
              "quantizer.encode_payload", "quantizer.decode_payload",
              "quantizer.Payload.from_indices", "problems.grad",
              "schedules.ScheduleCursor.step", "schedules.waterfill_bits")
CODEC_AND_GRAD = ("quantizer.encode_payload", "quantizer.decode_payload",
                  "quantizer.Payload.from_indices", "problems.grad")


class Tracer:
    """One span per call: name, start, end, parent span and run id.

    Self time (a span's duration minus its child spans) and call counts
    are summed as spans close; the first MAX_SPANS spans are also kept in
    flat arrays for `write_spans`.
    """

    def __init__(self, dq, counter):
        self.dq = dq
        self.counter = counter
        self.patches = Patches()
        self.self_s = [0.0] * len(NAMES)
        self.calls = [0] * len(NAMES)
        self.grad_flops = 0
        self.grad_bytes = 0
        self._index = {name: i for i, name in enumerate(NAMES)}
        self._stack = [[0, 0.0]]  # [span id, time covered by child spans]
        self._ids = itertools.count(1)
        self.spans = {"id": array("q"), "name": array("h"), "parent": array("q"),
                      "run": array("q"), "start": array("d"), "end": array("d")}

    def totals(self):
        """Copy of the running per-function totals."""
        return {"self_s": list(self.self_s), "calls": list(self.calls),
                "grad_flops": self.grad_flops, "grad_bytes": self.grad_bytes}

    def install(self):
        """Wrap every site that exists; a missing one reports zero."""
        for name, sites in TRACED:
            for module, owner, attr in sites:
                target = getattr(self.dq, module, None)
                if owner is not None:
                    target = getattr(target, owner, None)
                if attr not in getattr(target, "__dict__", {}):
                    continue
                self.patches.replace(target, attr,
                                     self._wrap_attr(name, target.__dict__[attr]))

    def remove(self):
        self.patches.restore()

    def _wrap_attr(self, name, raw):
        if isinstance(raw, classmethod):
            return classmethod(self.span(name, raw.__func__))
        if name == "problems.grad":
            return self._count_flops(self.span(name, raw))
        if name == "engines.run_protocol":
            return self._wrap_callbacks(self.span(name, raw))
        return self.span(name, raw)

    def span(self, name, fn):
        idx = self._index[name]
        stack, ids, perf = self._stack, self._ids, time.perf_counter
        self_s, calls, counter = self.self_s, self.calls, self.counter
        sp = self.spans
        s_id, s_name, s_parent = sp["id"].append, sp["name"].append, sp["parent"].append
        s_run, s_start, s_end = sp["run"].append, sp["start"].append, sp["end"].append
        kept = sp["id"]

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                self_s[idx] += dur - frame[1]
                calls[idx] += 1
                if len(kept) < MAX_SPANS:
                    s_id(frame[0])
                    s_name(idx)
                    s_parent(parent[0])
                    s_run(counter.run_id)
                    s_start(t0)
                    s_end(t1)

        return traced

    def _count_flops(self, grad):
        # 4mn flops (two matvecs) and 16mn bytes (A read twice) per call
        def counted(ls, x):
            m, n = ls.A.shape
            self.grad_flops += 4 * m * n
            self.grad_bytes += 16 * m * n
            return grad(ls, x)

        return counted

    def _wrap_callbacks(self, run_protocol):
        def with_callbacks(server, workers, channels, steps, on_iteration=None,
                           stop=None):
            if on_iteration is not None:
                on_iteration = self.span("harness.observe", on_iteration)
            if stop is not None:
                stop = self.span("harness.stop", stop)
            return run_protocol(server, workers, channels, steps,
                                on_iteration=on_iteration, stop=stop)

        return with_callbacks

    def write_spans(self, path):
        """Kept spans as an .npz of flat arrays plus the name table."""
        import numpy as np

        arrays = {key: np.frombuffer(buf, dtype=buf.typecode)
                  for key, buf in self.spans.items() if len(buf)}
        np.savez_compressed(path, names=np.array(NAMES), **arrays)
        return len(self.spans["id"])
