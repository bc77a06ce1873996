"""Benchmark of the ``supercyclic`` CLI: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` and nothing is installed.  The benchmark is a closed loop with one
client: one CLI call at a time, each started after the previous one exits.
For ``--seconds`` it repeats rounds of [one-process call, minimal call],
adding the two-process call to every fourth round, and reports medians.
Each timing is scaled by the host's speed in its round, which reference
calls of the benchmark's own gauge (``hostref.py``); the raw medians are in
the meta line.
With ``--trace 1`` it then runs the one-process call in this process,
untraced and traced, and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A call that exits
with the wrong status, prints a wrong report or times out counts as
failed and never as a timing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
import workloads  # noqa: E402
from proc import CLI, run_calls  # noqa: E402
from spans import Tracer, traced  # noqa: E402

WORKLOADS = ("enum6-degree", "hunt68-random", "kcyclic46-mixed",
             "classify8-stream")

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "generators.enumerate_bigraphs.classes": "count",
    "generators.enumerate_bigraphs.us_per_class": "us",
    "generators.random_bigraph.calls": "count",
    "generators.random_bigraph.us_per_call": "us",
    "condition.check_condition.kim.calls": "count",
    "condition.check_condition.kim.us_per_call": "us",
    "condition.check_condition.kim.pass_ratio": "ratio",
    "condition.check_condition.full.calls": "count",
    "condition.check_condition.full.us_per_call": "us",
    "condition.check_condition.full.pass_ratio": "ratio",
    "condition.min_deficiency.calls": "count",
    "condition.min_deficiency.us_per_call": "us",
    "condition.degree_hypothesis.calls": "count",
    "cycles.find_based_cycle.calls": "count",
    "cycles.find_based_cycle.us_per_call": "us",
    "cycles.find_based_cycle.found_ratio": "ratio",
    "cycles.is_super_cyclic.calls": "count",
    "cycles.is_super_cyclic.self_s": "s",
    "cycles.is_k_cyclic.calls": "count",
    "cycles.is_k_cyclic.self_s": "s",
    "classify.is_critical.calls": "count",
    "classify.is_critical.self_s": "s",
    "bigraph.Bigraph.constructed": "count",
    "formats.iter_records.records": "count",
    "formats.iter_records.us_per_record": "us",
    "formats.serialize_bigraph.calls": "count",
    "formats.serialize_bigraph.us_per_call": "us",
    "verifier.campaign.self_s": "s",
    "verifier.items_examined": "count",
    "verifier.checked_ratio": "ratio",
    "verifier.jobs2_speedup": "ratio",
    "wall_s_jobs2": "s",
    "verifier_checkpoint.save_checkpoint.calls": "count",
    "verifier_checkpoint.save_checkpoint.us_per_call": "us",
    "verifier_checkpoint.save_checkpoint.bytes": "bytes",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
    "host.ref_s": "s",
}

#: the minimal CLI call behind setup_s: start, import, argparse, one tiny graph
SETUP_ARGV = ["gen", "complete", "--nx", "1", "--ny", "1"]
SETUP_OUTPUT = "p bigraph 1 1\ne 1 1\n"
IMPORT_REPS = 5    # fresh-interpreter imports behind cli.import_s
JOBS2_EVERY = 4    # rounds per two-process call
TRACE_REPS = 3     # untraced and traced in-process calls, alternating
RUN_LIMIT_S = 170  # every call is killed once the run is this old


class Bench:
    """Counts every call attempted and failed, and keeps the timings of
    the calls that passed their checks."""

    def __init__(self, root: Path, scratch: Path, deadline: float) -> None:
        self.root = root
        self.scratch = scratch
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def record(self, problem: str | None, what: str) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)
        return not problem

    def call(self, argvs, check, expect_status: int, what: str):
        """Run ``argvs`` as one timed call; the results, or None if it failed."""
        results = run_calls([CLI + a for a in argvs], root=self.root,
                            scratch=self.scratch, deadline=self.deadline)
        problem = None
        for r in results:
            if r.timed_out:
                problem = "timed out"
            elif r.status != expect_status:
                problem = (f"exit status {r.status}, want {expect_status}:\n"
                           f"{r.stderr[-2000:]}")
            if problem:
                break
        else:
            problem = check([r.stdout for r in results])
        return results if self.record(problem, what) else None

    def ref_call(self, kind: str) -> float | None:
        """Wall time of one reference call, or None if it failed.

        Reference calls are the benchmark's own, so they are not counted
        among the calls attempted; a failed one drops its round.
        """
        argv = hostref.START if kind == "start" else hostref.COMPUTE
        (r,) = run_calls([argv], root=self.root, scratch=self.scratch,
                         deadline=self.deadline)
        if r.timed_out or r.status != 0 or r.stdout != hostref.OUTPUT[kind]:
            print(f"{kind} reference failed: status {r.status}, "
                  f"timed out {r.timed_out}", file=sys.stderr)
            return None
        return r.wall_s

    def setup_call(self) -> float | None:
        def check(outs):
            return None if outs == [SETUP_OUTPUT] else f"output {outs!r}"
        results = self.call([SETUP_ARGV], check, 0, "setup call")
        return results[0].wall_s if results else None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(bench: Bench, wl: workloads.Workload, seconds: float) -> dict:
    """The closed loop; returns the samples of each series.

    Every round makes a start reference, a compute reference, the
    one-process call, another start reference and the minimal call; every
    JOBS2_EVERY-th round also makes a two-process call, whose report must
    match.  Each ``norm_*`` sample is the raw one scaled by the round's
    references, as ``hostref`` describes.
    """
    samples: dict[str, list[float]] = {
        "ref_start": [], "ref_call": [],
        "wall1": [], "setup": [], "wall2": [], "rss1": [],
        "norm_wall1": [], "norm_setup": [], "norm_wall2": []}
    bench.setup_call()  # fills __pycache__; not timed
    start = time.monotonic()
    rounds: list[float] = []
    while True:
        t0 = time.monotonic()
        refs = [bench.ref_call("start"), bench.ref_call("compute")]
        res = bench.call(wl.argvs(1), lambda outs: wl.check_output(1, outs),
                         wl.expect_status, "--jobs 1 call")
        refs.append(bench.ref_call("start"))
        timed = {"wall1": res[0].wall_s if res else None,
                 "setup": bench.setup_call()}
        if res:
            samples["rss1"].append(res[0].peak_rss_kb)
        if len(rounds) % JOBS2_EVERY == 0:
            res = bench.call(wl.argvs(2),
                             lambda outs: wl.check_output(2, outs),
                             wl.expect_status, "--jobs 2 call")
            timed["wall2"] = res[0].wall_s if res else None
        if None not in refs:
            ref_start = (refs[0] + refs[2]) / 2
            ref_call = sum(refs)
            samples["ref_start"].append(ref_start)
            samples["ref_call"].append(ref_call)
            for series, t in timed.items():
                if t is None:
                    continue
                scale = (hostref.START_NOMINAL_S / ref_start
                         if series == "setup"
                         else hostref.CALL_NOMINAL_S / ref_call)
                samples[series].append(t)
                samples["norm_" + series].append(t * scale)
        now = time.monotonic()
        rounds.append(now - t0)
        if now - start + statistics.median(rounds) > seconds or \
                now + 2 * max(rounds) > bench.deadline:
            break
    return samples


def end_to_end(wl: workloads.Workload, samples: dict) -> dict[str, float]:
    """Medians over the rounds, scaled to the nominal host speed."""
    wall = _median(samples["norm_wall1"])
    return {
        "wall_s": wall,
        "items_per_s": wl.items / wall,
        "wall_s_jobs2": _median(samples["norm_wall2"]),
        "setup_s": _median(samples["norm_setup"]),
        "peak_rss_mb": _median(samples["rss1"]) / 1024,
        "host.ref_s": _median(samples["ref_call"]),
    }


def _import_library(root: Path):
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from supercyclic import cli
    return cli


class _Timeout(BaseException):
    """Raised by SIGALRM; a BaseException so library handlers pass it on."""


def _alarm(signum, frame):
    raise _Timeout


def in_process(bench: Bench, wl: workloads.Workload, tracer: Tracer | None):
    """One ``--jobs 1`` call of ``cli.main`` in this process.

    Returns (wall seconds, stdout), or None when the call failed its checks.
    """
    cli = _import_library(bench.root)
    (argv,) = wl.argvs(1)
    out = io.StringIO()
    remaining = bench.deadline - time.monotonic()
    status: object = "timed out"
    wall = 0.0
    if remaining > 0:
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(traced(tracer))
                stack.enter_context(contextlib.redirect_stdout(out))
                stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                start = time.perf_counter()
                try:
                    status = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the argv
                    status = exc.code
                except Exception:  # a crash is a failed call, not the end
                    status = "crash:\n" + traceback.format_exc()
                wall = time.perf_counter() - start
        except _Timeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    what = "traced call" if tracer else "in-process call"
    if status != wl.expect_status:
        problem = f"exit status {status}, want {wl.expect_status}"
    else:
        problem = wl.check_output(1, [out.getvalue()])
    return (wall, out.getvalue()) if bench.record(problem, what) else None


def import_seconds(bench: Bench) -> float:
    """Median time to import ``supercyclic.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import supercyclic.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        results = run_calls([[sys.executable, "-c", code]], root=bench.root,
                            scratch=bench.scratch, deadline=bench.deadline)
        r = results[0]
        try:
            times.append(float(r.stdout))
            problem = None if r.status == 0 else f"exit status {r.status}"
        except ValueError:
            problem = f"unexpected output {r.stdout!r}"
        bench.record(problem, "import timing")
    return _median(times)


def layer_metrics(tracer: Tracer, wl: workloads.Workload, report: str,
                  e2e: dict[str, float], untraced_s: float,
                  traced_s: float, import_s: float) -> dict[str, float]:
    spans = tracer.totals()
    counts = tracer.counts

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def seconds(name: str, kind: str = "total_s") -> float:
        return spans.get(name, {}).get(kind, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def us_per(name: str, per: int | None = None) -> float:
        return ratio(seconds(name) * 1e6, calls(name) if per is None else per)

    enum = "generators.enumerate_bigraphs"
    recs = "formats.iter_records"
    classes = counts[enum + ".items"]
    records = counts[recs + ".items"]
    m = {
        enum + ".classes": classes,
        enum + ".us_per_class": us_per(enum, classes),
        "bigraph.Bigraph.constructed": counts["bigraph.Bigraph.constructed"],
        recs + ".records": records,
        recs + ".us_per_record": us_per(recs, records),
    }
    for name in ("generators.random_bigraph", "condition.min_deficiency",
                 "formats.serialize_bigraph"):
        m[name + ".calls"] = calls(name)
        m[name + ".us_per_call"] = us_per(name)
    for mode in ("kim", "full"):
        name = f"condition.check_condition.{mode}"
        m[name + ".calls"] = calls(name)
        m[name + ".us_per_call"] = us_per(name)
        m[name + ".pass_ratio"] = ratio(counts[name + ".passed"], calls(name))
    m["condition.degree_hypothesis.calls"] = calls("condition.degree_hypothesis")
    name = "cycles.find_based_cycle"
    m[name + ".calls"] = calls(name)
    m[name + ".us_per_call"] = us_per(name)
    m[name + ".found_ratio"] = ratio(counts[name + ".found"], calls(name))
    for name in ("cycles.is_super_cyclic", "cycles.is_k_cyclic",
                 "classify.is_critical"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = seconds(name, "self_s")
    name = "verifier_checkpoint.save_checkpoint"
    m[name + ".calls"] = calls(name)
    m[name + ".us_per_call"] = us_per(name)
    m[name + ".bytes"] = counts[name + ".bytes"]

    m["verifier.campaign.self_s"] = seconds("verifier.campaign", "self_s")
    m["verifier.items_examined"] = wl.items
    if isinstance(wl, workloads.Campaign):
        checked = int(workloads.parse_report(report)["graphs_checked"])
    else:  # classify: graphs that pass the condition reach the cycle search
        checked = counts["condition.check_condition.full.passed"]
    m["verifier.checked_ratio"] = ratio(checked, wl.items)
    m["verifier.jobs2_speedup"] = ratio(e2e["wall_s"], e2e["wall_s_jobs2"])
    m["wall_s_jobs2"] = e2e["wall_s_jobs2"]
    m["cli.main.self_s"] = seconds("cli.main", "self_s")
    m["cli.import_s"] = import_s
    m["trace.wall_s"] = traced_s
    m["trace.spans"] = len(tracer.spans)
    m["trace.overhead_frac"] = ratio(traced_s, untraced_s) - 1
    m["host.ref_s"] = e2e["host.ref_s"]
    return m


def trace_run(bench: Bench, wl: workloads.Workload, e2e: dict[str, float],
              spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced in-process calls, TRACE_REPS of each.

    The per-layer metrics come from the traced call of median wall time;
    its spans are written to ``spans_path``.  The tracing overhead compares
    the two medians, both without interpreter start.
    """
    import_s = import_seconds(bench)
    plain: list[float] = []
    runs: list[tuple[float, str, Tracer]] = []
    for _ in range(TRACE_REPS):
        res = in_process(bench, wl, None)
        if res:
            plain.append(res[0])
        tracer = Tracer()
        res = in_process(bench, wl, tracer)
        if res:
            runs.append((res[0], res[1], tracer))
    if not plain or not runs:
        return {}
    runs.sort(key=lambda r: r[0])
    wall, report, tracer = runs[len(runs) // 2]
    tracer.write(spans_path)
    return layer_metrics(tracer, wl, report, e2e, _median(plain), wall,
                         import_s)


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
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


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; the numbers mean nothing")
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = HERE.parent
    if not (root / "src" / "supercyclic" / "cli.py").is_file():
        print(f"error: no supercyclic sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, tiny=args.tiny)
    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": wl.sizes, "items": wl.items,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(root), "loadavg_start": loadavg(),
    }
    out_dir = root / ".perfbench-out"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        scratch = Path(tmp)
        wl.prepare(args.seed, scratch)
        bench = Bench(root, scratch, started + RUN_LIMIT_S)
        samples = measure(bench, wl, args.seconds)
        e2e = end_to_end(wl, samples)
        metrics, units = e2e, END_TO_END
        if args.trace:
            metrics = trace_run(
                bench, wl, e2e,
                out_dir / f"spans-{wl.name}-seed{args.seed}.tsv.gz")
            units = PER_LAYER
    meta["loadavg_end"] = loadavg()
    meta["samples"] = {k: [round(x, 4) for x in v] for k, v in samples.items()}
    meta["raw_medians"] = {k: _median(samples[k])
                           for k in ("ref_start", "ref_call", "wall1",
                                     "setup", "wall2")}
    meta["fail_frac"] = bench.failed / max(1, bench.attempted)
    print(json.dumps({"meta": meta}))
    printed = {k: {"value": metrics[k], "unit": unit}
               for k, unit in units.items()
               if k in metrics and math.isfinite(metrics[k])}
    result = {
        "correct": bench.failed == 0 and len(printed) == len(units),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": printed,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
