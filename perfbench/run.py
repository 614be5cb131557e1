"""Engine benchmark: drives the persplit CLI in-process over one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``
and exits 2 if that is missing.  One client, one process, a closed loop:
each op is one ``persplit.cli.main`` call on a distinct input file that
the benchmark generated from ``--seed`` before the op's pass began.
Every op's output is checked.

``--trace 0`` measures end to end for ``--seconds`` seconds of op time,
scaled to a reference machine speed (see ``Speed``), in whole passes of
ten ops, and reports the end-to-end metrics.
``--trace 1`` runs the tracer self-check and then pass 0 once untraced
and once traced, and reports the per-layer metrics.  The last line of
standard output is the JSON result; the exit code is 0 only if every
check passed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
WALL_LIMIT_S = 150.0   # no new pass starts after this much wall time
RAW_LIMIT = 1.5        # nor after this many times --seconds of unscaled op time
REF_JOB_S = 0.010      # the reference job's typical time on the 2-CPU host of the bounds


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None
    started: float = 0.0


class Speed:
    """Tracks the machine's speed with a fixed reference job.

    The host's speed changes by up to 2x for seconds at a time when other
    tenants are busy, and that shows in process CPU time as well.  The job
    multiplies two fixed sparse 16x16 small-integer rational matrices in the
    engine's matmul idiom, with the benchmark's own code, best of two.  It
    runs right before and right after every setup and before every op.  A
    timed interval is scaled by REF_JOB_S over the mean of the job times
    right before and right after it.
    """

    def __init__(self):
        rng = random.Random(0)
        self.left, self.right = (
            [tuple(Fraction(rng.choice((-2, -1, 0, 0, 0, 1, 2))) for _ in range(16))
             for _ in range(16)] for _ in range(2))
        self.times, self.jobs = [], []   # when each sample ended, its job time

    def job(self):
        cols = list(zip(*self.right))
        return [tuple(sum((a * b for a, b in zip(row, col) if a and b), Fraction(0))
                      for col in cols) for row in self.left]

    def sample(self):
        best = None
        for _ in range(2):
            start = time.perf_counter()
            self.job()
            spent = time.perf_counter() - start
            best = spent if best is None else min(best, spent)
        self.times.append(time.perf_counter())
        self.jobs.append(best)

    def scale(self, t0, t1):
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        return 2 * REF_JOB_S / (self.jobs[before] + self.jobs[after])


def run_op(cli, argv, tracer=None, profile=None):
    """One CLI command, in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if profile is not None:
                profile.enable()
            try:
                rc = cli.main(argv)
            finally:
                if profile is not None:
                    profile.disable()
    except Exception as exc:   # an engine crash is a failed op; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    except SystemExit as exc:
        error = f"SystemExit: {exc.code}"
    seconds = time.perf_counter() - start
    record = tracer.end_op() if tracer is not None else None
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds, error, start), record


def check_output(workload, case, outcome):
    """None if the op passed every check, else the reason it failed."""
    from workloads import Mismatch
    if outcome.error:
        return outcome.error
    if outcome.rc != 0:
        return f"exit code {outcome.rc}: {outcome.stderr.strip()[-300:]}"
    try:
        workload.check(case, json.loads(outcome.stdout))
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# environment


def git_sha(root):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    import hashlib
    h = hashlib.sha256()
    for path in sorted((src / "persplit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def environment():
    from persplit._core import BACKEND
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "git_sha": git_sha(ROOT),
        "src_digest": source_digest(SRC),
        "backend": BACKEND,
    }


# ---------------------------------------------------------------------------
# runs


def measured_run(cli, workload, seed, seconds, workdir):
    """Whole passes until ``seconds`` of scaled op time are measured, so
    the number of ops, and with it the tail percentile, does not depend on
    the host's speed at the time."""
    from workloads import make_one, make_pass
    speed = Speed()
    failures, ops, setups = [], [], []    # ops and setups: (start, end, seconds)
    pass_ops = []                          # index in ops of each pass's first op
    warm = make_one(workload, seed, "warmup", workdir)
    outcome, _ = run_op(cli, warm.argv)
    problem = check_output(workload, warm, outcome)
    if problem:
        failures.append(("warmup", problem))
    measured, raw_measured, index = 0.0, 0.0, 0
    wall_start = time.perf_counter()
    while (measured < seconds and raw_measured < RAW_LIMIT * seconds
           and time.perf_counter() - wall_start < WALL_LIMIT_S):
        speed.sample()
        start = time.perf_counter()
        cases = make_pass(workload, seed, "pass", index, workdir)
        end = time.perf_counter()
        setups.append((start, end, end - start))
        speed.sample()
        gc.collect()
        pass_ops.append(len(ops))
        for slot, case in enumerate(cases):
            speed.sample()
            outcome, _ = run_op(cli, case.argv)
            raw_measured += outcome.seconds
            measured += outcome.seconds * REF_JOB_S / speed.jobs[-1]
            ops.append((outcome.started, outcome.started + outcome.seconds, outcome.seconds))
            problem = check_output(workload, case, outcome)
            if problem:
                failures.append((f"pass {index} op {slot}", problem))
            case.path.unlink()
        index += 1
    speed.sample()
    attempted = len(ops) + 1
    ok = len(ops) - sum(1 for where, _ in failures if where != "warmup")

    def summary(samples):
        raw = [s for _, _, s in samples]
        scaled = [s * speed.scale(t0, t1) for t0, t1, s in samples]
        return raw, scaled

    raw_setup, setup = summary(setups)
    raw_lat, lat = summary(ops)
    bad = {where for where, _ in failures}

    def throughput(latencies):
        """Median over passes of the pass's passed ops per second of op time."""
        rates = []
        for p, first in enumerate(pass_ops):
            done = sum(1 for slot in range(10) if f"pass {p} op {slot}" not in bad)
            rates.append(done / sum(latencies[first:first + 10]))
        return statistics.median(rates)

    n = len(lat)
    tail_rank = n - 11 if n > 10 else n - 1   # ten samples beyond it, when there are

    def tail(values):
        return sorted(values)[tail_rank]

    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": throughput(lat), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * tail(lat), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    raw = {"setup_s": statistics.median(raw_setup), "ops_per_s": throughput(raw_lat),
           "op_p50_ms": 1000 * statistics.median(raw_lat), "op_tail_ms": 1000 * tail(raw_lat)}
    notes = {
        "setup_s": f"median over {len(setups)} passes of generating one pass's files",
        "ops_per_s": f"median of {index} passes; {ok} ops in {raw_measured:.3f} s of op time",
        "op_p50_ms": f"n={n} ops",
        "op_tail_ms": f"p{100.0 * (tail_rank + 1) / n:.1f}, n={n} ops, "
                      f"{n - 1 - tail_rank} beyond",
        "peak_rss_mb": "ru_maxrss of the process",
        "failed_frac": f"{len(failures)} of {attempted} ops",
    }
    for name, value in raw.items():
        notes[name] = f"raw {value:.6g}; " + notes[name]
    jobs = speed.jobs
    extra = {"failed_frac": {"value": len(failures) / attempted, "unit": "ratio"},
             "raw_metrics": raw, "latencies_raw_s": raw_lat, "latencies_s": lat,
             "setup_raw_s": raw_setup,
             "reference_job_s": {"median": statistics.median(jobs), "min": min(jobs),
                                 "max": max(jobs), "samples": len(jobs)}}
    return metrics, notes, attempted, failures, extra


def traced_run(cli, workload, seed, workdir):
    """Self-check, then pass 0 untraced and traced; per-layer metrics."""
    from tracer import Tracer, count_table, counts_digest, layer_metrics, profiled_op
    from workloads import Mismatch, make_one, make_pass
    failures = []
    small = make_one(workload, seed, "selfcheck", workdir)
    cases = make_pass(workload, seed, "pass", 0, workdir)
    gc.collect()
    untraced = []
    for slot, case in enumerate(cases):
        outcome, _ = run_op(cli, case.argv)
        untraced.append(outcome.seconds)
        problem = check_output(workload, case, outcome)
        if problem:
            failures.append((f"untraced op {slot}", problem))
    tracer = Tracer()
    tracer.install()
    try:
        first, problems = profiled_op(
            tracer, lambda prof: run_op(cli, small.argv, tracer, prof)[1])
        _, second = run_op(cli, small.argv, tracer)
        if count_table([first]) != count_table([second]):
            problems.append("two traced runs of the self-check item counted differently")
        failures.extend(("self-check", p) for p in problems)
        records = []
        for slot, case in enumerate(cases):
            outcome, record = run_op(cli, case.argv, tracer)
            record["bytes_in"] = case.path.stat().st_size
            records.append(record)
            problem = check_output(workload, case, outcome)
            if problem is None:
                try:
                    workload.check_trace(case, record)
                except Mismatch as exc:
                    problem = str(exc)
            if problem:
                failures.append((f"traced op {slot}", problem))
            record["instances"] = record["splittings"] = None
    finally:
        tracer.uninstall()
    overhead = (sum(r["wall_s"] for r in records) - sum(untraced)) / len(records)
    metrics = layer_metrics(records, overhead)
    attempted = 2 * len(cases) + 2
    extra = {
        "counts_digest": counts_digest(records),
        "self_check": problems or "wrapper counts equal cProfile counts",
        "spans": [{f"{parent}>{name}": edge for (parent, name), edge in r["edges"].items()}
                  for r in records],
    }
    return metrics, {}, attempted, failures, extra


# ---------------------------------------------------------------------------


def main(argv=None):
    if not (SRC / "persplit" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'persplit'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import persplit
    from persplit import cli
    if Path(persplit.__file__).resolve().parent != (SRC / "persplit").resolve():
        print(f"perfbench: persplit imported from {persplit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="persplit engine benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            result = traced_run(cli, workload, args.seed, workdir)
        else:
            result = measured_run(cli, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, notes, attempted, failures, extra = result

    print(f"workload {workload.name}: {workload.why}")
    for name, m in {**metrics, **{k: v for k, v in extra.items()
                                  if k == "failed_frac"}}.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}"
              + (f"  ({notes[name]})" if name in notes else ""))
    for key in ("counts_digest", "self_check"):
        if key in extra:
            print(f"{key}: {extra[key]}")
    for where, problem in failures[:20]:
        print(f"FAILED {where}: {problem}", file=sys.stderr)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "metrics": metrics, "notes": notes,
                    "failures": failures, **extra}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
