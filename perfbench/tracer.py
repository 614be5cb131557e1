"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of each ``persplit`` module where they
are called: every module attribute bound to the original function is
rebound to the wrapper (``from .linalg import kernel`` copies included),
and methods are replaced on their class.  Nothing under ``src/`` changes,
and ``uninstall`` restores every binding.

A span is one call of a wrapped function.  Spans nest on a stack below
the root span ``cli``, one per op.  A span's self time is its duration
minus the time covered by its child spans; the time spent computing the
tracer's own counters is excluded from every span.
"""

from __future__ import annotations

import cProfile
import functools
import hashlib
import importlib
import json
import pstats
import sys
import time
from collections import defaultdict

from persplit.scalars import Gaussian

ROOT = "cli"

# span name -> (module, attribute); several attributes may share one span
TARGETS = (
    ("core.rref", "persplit._core", "rref_rows"),
    ("linalg.matmul", "persplit.linalg", "Matrix.__matmul__"),
    ("linalg.kernel", "persplit.linalg", "kernel"),
    ("linalg.intersect", "persplit.linalg", "Subspace.intersect"),
    ("linalg.preimage", "persplit.linalg", "preimage"),
    ("linalg.image_of", "persplit.linalg", "image_of"),
    ("linalg.quotient_map", "persplit.linalg", "quotient_map"),
    ("linalg.canon", "persplit.linalg", "Subspace.__init__"),
    ("graded.power_block", "persplit.graded", "GradedMap.power_block"),
    ("graded.e_power_block", "persplit.graded", "GradedPieces.e_power_block"),
    ("graded.pieces", "persplit.graded", "graded_pieces"),
    ("graded.weight_filtration", "persplit.graded", "weight_filtration"),
    ("lefschetz.check_hl", "persplit.lefschetz", "check_hard_lefschetz"),
    ("lefschetz.primitives", "persplit.lefschetz", "primitives"),
    ("lefschetz.twist_model", "persplit.lefschetz", "twist_model"),
    ("splitting.psi", "persplit.splitting", "psi_schedule"),
    ("splitting.direct", "persplit.splitting", "direct_characterization"),
    ("splitting.assemble", "persplit.splitting", "assemble"),
    ("splitting.commutation", "persplit.splitting", "eta_commutation_check"),
    ("hodge.verify", "persplit.hodge", "verify_hodge_splitting"),
    ("hodge.is_shs", "persplit.hodge", "is_shs"),
    ("duality.orthogonal", "persplit.duality", "orthogonal_characterization"),
    ("duality.compat_checks", "persplit.duality", "IntersectionPairing.eta_self_adjoint"),
    ("duality.compat_checks", "persplit.duality", "IntersectionPairing.filtration_self_dual"),
    ("fileformat.load", "persplit.fileformat", "load"),
    ("fileformat.report", "persplit.fileformat", "make_report"),
    ("corpus.random_instance", "persplit.corpus", "random_instance"),
    # not spans: results captured for the ground-truth comparison
    (None, "persplit.splitting", "compute_splitting"),
)

# spans whose wrapper counts are compared with cProfile's call counts
PROFILED = ("core.rref", "linalg.matmul", "graded.power_block")


def _bits(x):
    if isinstance(x, Gaussian):
        return max(_bits(x.re), _bits(x.im))
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []
        self.bindings = []       # (owner, attribute, original) to restore
        self.originals = {}      # span name -> original functions
        self.record = None

    # -- installing -------------------------------------------------------

    def install(self):
        hooks = {
            "core.rref": (None, self._after_rref, None),
            "linalg.matmul": (self._before_matmul, None, None),
            "linalg.canon": (None, None, lambda args, kw: not kw.get("_canonical")),
            "graded.power_block": (self._repeat_hook("power"), None, None),
            "graded.e_power_block": (self._repeat_hook("e_power"), None, None),
            "corpus.random_instance": (None, self._capture("instances"), None),
            None: (None, self._capture("splittings"), None),
        }
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            before, after, when = hooks.get(name, (None, None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._bind(cls, meth, orig, self._wrap(name, orig, before, after, when))
            else:
                orig = getattr(module, attr)
                wrapper = self._wrap(name, orig, before, after, when)
                for mod in [m for key, m in sys.modules.items()
                            if key == "persplit" or key.startswith("persplit.")]:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._bind(mod, key, orig, wrapper)
            self.originals.setdefault(name, []).append(orig)

    def uninstall(self):
        for owner, attr, orig in reversed(self.bindings):
            setattr(owner, attr, orig)
        self.bindings.clear()

    def _bind(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self.bindings.append((owner, attr, orig))

    def _wrap(self, name, fn, before, after, when):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            if name is None:
                out = fn(*args, **kwargs)
            else:
                if before is not None:
                    tracer._hook(before, args, None)
                stack = tracer.stack
                frame = [name, clock(), 0.0]
                stack.append(frame)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    total = clock() - frame[1]
                    parent = stack[-1]
                    parent[2] += total
                    edge = tracer.record["edges"][(parent[0], name)]
                    edge[0] += 1
                    edge[1] += total
                    edge[2] += total - frame[2]
            if after is not None:
                tracer._hook(after, args, out)
            return out

        return wrapper

    def _hook(self, fn, args, out):
        start = time.perf_counter()
        fn(args, out)
        spent = time.perf_counter() - start
        self.stack[-1][2] += spent     # excluded from the enclosing span

    # -- counters -----------------------------------------------------------

    def _after_rref(self, args, out):
        rows, ncols = args
        counts = self.record["counts"]
        counts["core.rref.cells"] += len(rows) * ncols
        if rows and ncols and isinstance(rows[0][0], Gaussian):
            counts["core.rref.qi_calls"] += 1
        bits = max((_bits(x) for row in out[0] for x in row), default=0)
        counts["core.rref.max_bits"] = max(counts["core.rref.max_bits"], bits)

    def _before_matmul(self, args, out):
        a, b = args
        counts = self.record["counts"]
        counts["linalg.matmul.mults"] += a.rows * a.cols * b.cols
        col_nnz = [0] * a.cols
        for row in a.data:
            for k, x in enumerate(row):
                if x:
                    col_nnz[k] += 1
        counts["linalg.matmul.nonzero"] += sum(
            n * sum(1 for x in row if x) for n, row in zip(col_nnz, b.data))

    def _repeat_hook(self, kind):
        def hook(args, out):
            obj, *key = args
            seen = self.record["seen"]
            full = (kind, id(obj), *key)
            if full in seen:
                self.record["counts"][f"{kind}.repeats"] += 1
            else:
                seen.add(full)
                self.record["keep"].append(obj)   # keeps id(obj) unique in the op
        return hook

    def _capture(self, kind):
        def hook(args, out):
            self.record[kind].append(out)
        return hook

    # -- ops ------------------------------------------------------------------

    def begin_op(self):
        self.record = {"edges": defaultdict(lambda: [0, 0.0, 0.0]),
                       "counts": defaultdict(int), "seen": set(),
                       "keep": [], "instances": [], "splittings": []}
        self.stack = [[ROOT, time.perf_counter(), 0.0]]
        self.active = True

    def end_op(self):
        self.active = False
        root = self.stack.pop()
        wall = time.perf_counter() - root[1]
        record = self.record
        record["wall_s"] = wall
        record["root_self_s"] = wall - root[2]
        record["seen"] = record["keep"] = None
        self.record = None
        return record


def span_totals(records):
    """Span name -> [calls, self seconds], summed over ops and parents."""
    totals = defaultdict(lambda: [0, 0.0])
    for rec in records:
        totals[ROOT][0] += 1
        totals[ROOT][1] += rec["root_self_s"]
        for (_, name), (calls, _, self_s) in rec["edges"].items():
            totals[name][0] += calls
            totals[name][1] += self_s
    return totals


def count_table(records):
    """Every count of the ops (no times): equal for equal inputs."""
    table = {f"{name}.calls": calls for name, (calls, _) in span_totals(records).items()}
    for rec in records:
        for key, value in rec["counts"].items():
            table[key] = max(table.get(key, 0), value) if key.endswith("max_bits") \
                else table.get(key, 0) + value
    return dict(sorted(table.items()))


def counts_digest(records):
    text = json.dumps(count_table(records), sort_keys=True)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def profiled_op(tracer, run):
    """Run one op traced and under cProfile; return (record, problems) where
    problems lists every PROFILED span whose wrapper count differs from
    cProfile's count of the original function."""
    prof = cProfile.Profile()
    record = run(prof)
    stats = pstats.Stats(prof).stats
    totals = span_totals([record])
    problems = []
    for name in PROFILED:
        code = getattr(tracer.originals[name][0], "__code__", None)
        if code is None:
            problems.append(f"{name}: compiled, cProfile cannot count it")
            continue
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        if profiled != totals[name][0]:
            problems.append(f"{name}: wrapper counted {totals[name][0]}, "
                            f"cProfile {profiled}")
    return record, problems


# spans reported with their call count as well as their self time
COUNTED = ("core.rref", "linalg.matmul", "linalg.kernel", "linalg.intersect",
           "linalg.preimage", "linalg.image_of", "linalg.quotient_map", "linalg.canon",
           "graded.power_block", "graded.e_power_block", "graded.weight_filtration",
           "lefschetz.check_hl", "lefschetz.primitives", "hodge.is_shs",
           "duality.orthogonal", "duality.compat_checks")
TIMED_ONLY = ("graded.pieces", "lefschetz.twist_model", "splitting.psi",
              "splitting.direct", "splitting.assemble", "splitting.commutation",
              "hodge.verify", "fileformat.load", "fileformat.report",
              "corpus.random_instance", ROOT)


def layer_metrics(records, overhead_s):
    """The per-layer metrics: calls, self time and sizes are means per op;
    ``*_frac`` are ratios over the whole traced pass; max_bits is a max."""
    ops = len(records)
    totals = span_totals(records)
    counts = count_table(records)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for span in COUNTED:
        put(f"{span}.calls", totals[span][0] / ops, "count/op")
    for span in COUNTED + TIMED_ONLY:
        put(f"{span}.self_s", totals[span][1] / ops, "s/op")
    for key in ("core.rref.cells", "core.rref.qi_calls", "linalg.matmul.mults"):
        put(key, counts.get(key, 0) / ops, "count/op")
    put("core.rref.max_bits", counts.get("core.rref.max_bits", 0), "bits")
    mults = counts.get("linalg.matmul.mults", 0)
    put("linalg.matmul.nonzero_frac",
        counts.get("linalg.matmul.nonzero", 0) / mults if mults else 0.0, "ratio")
    for span, kind in (("graded.power_block", "power"), ("graded.e_power_block", "e_power")):
        calls = totals[span][0]
        put(f"{span}.repeat_frac",
            counts.get(f"{kind}.repeats", 0) / calls if calls else 0.0, "ratio")
    put("fileformat.bytes_in", sum(r["bytes_in"] for r in records) / ops, "B/op")
    put("trace.overhead_s", overhead_s, "s/op")
    return out
