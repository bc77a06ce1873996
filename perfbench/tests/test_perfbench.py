"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench/tests

Smoke runs use the tiny sizes, so their numbers mean nothing; they check
that every workload runs clean and prints every metric with its unit.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from burnside import class_counts, total_classes  # noqa: E402
from spans import Tracer, traced  # noqa: E402

E2E_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "generators.enumerate_bigraphs.classes": "count",
    "generators.enumerate_bigraphs.us_per_class": "us",
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
    "trace.overhead_frac": "ratio",
    "host.ref_s": "s",
}


def _bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                   "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = LAYER_UNITS if trace else E2E_UNITS
    got = result["metrics"]
    assert set(got) == set(run.PER_LAYER if trace else run.END_TO_END)
    for name, unit in want.items():
        assert got[name]["unit"] == unit, name
    for name, entry in got.items():
        assert isinstance(entry["value"], (int, float)), name
        assert math.isfinite(entry["value"]), name
    if not trace:
        assert all(entry["value"] > 0 for entry in got.values())
    meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
    for key in ("python", "nproc", "git_sha", "loadavg_start", "loadavg_end",
                "seed", "sizes", "raw_medians"):
        assert key in meta


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "enum6-degree", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_references_print_their_expected_output():
    for kind, argv in (("start", hostref.START),
                       ("compute", hostref.COMPUTE)):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == hostref.OUTPUT[kind]


def test_burnside_counts():
    assert class_counts(2, 2) == [1, 3, 7]
    assert class_counts(1, 3) == [1, 2, 3, 4]
    assert total_classes(4, 5) == 1485
    assert total_classes(6, 3) == 444


def test_stream_is_seeded_and_meets_the_degree_floors():
    sizes = workloads.SIZES["classify8-stream"][0]
    a = workloads.stream_records(3, sizes)
    assert a == workloads.stream_records(3, sizes)
    assert a != workloads.stream_records(4, sizes)
    assert len(a) == sizes["graphs"]
    floors = []
    for rec in a:
        degree = [0] * (sizes["nx"] + 1)
        for line in rec.splitlines()[1:]:
            degree[int(line.split()[1])] += 1
        floors.append(min(degree[1:]))
    sparse = [f for i, f in enumerate(floors) if i % 10 in (2, 5, 8)]
    dense = [f for i, f in enumerate(floors) if i % 10 not in (2, 5, 8)]
    assert min(sparse) >= workloads.SPARSE[1]
    assert min(dense) >= workloads.DENSE[1]
    assert len(sparse) * 7 == len(dense) * 3


def test_output_checks_reject_wrong_reports(tmp_path):
    wl = workloads.make("kcyclic46-mixed", tiny=True)
    wl.prepare(1, tmp_path)
    (argv,) = wl.argvs(1)
    report, status = _in_process(argv)
    assert status == 0
    assert wl.check_output(2, [report.replace("checked=141",
                                              "checked=140")])
    assert wl.check_output(1, [report]) is None
    assert wl.check_output(2, [report + "x"])  # not byte-identical

    hunt = workloads.make("hunt68-random", tiny=True)
    hunt.prepare(5, tmp_path)
    (argv,) = hunt.argvs(1)
    report, status = _in_process(argv)
    assert status == 0
    assert hunt.check_output(1, [report.replace("violations=0",
                                                "violations=1")])
    assert hunt.check_output(1, [report]) is None

    cls = workloads.make("classify8-stream", tiny=True)
    cls.prepare(2, tmp_path)
    assert cls.check_output(1, ["graph=1\ncritical=true\n"])


def _in_process(argv: list[str], tracer: Tracer | None = None):
    cli = run._import_library(ROOT)
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(traced(tracer))
        stack.enter_context(contextlib.redirect_stdout(out))
        status = cli.main(argv)
    return out.getvalue(), status


def test_span_invariants_and_restored_functions(tmp_path):
    run._import_library(ROOT)
    from supercyclic import classify, condition, cycles, verifier
    before = (verifier.check_condition, classify.check_condition,
              cycles.find_based_cycle)
    tracer = Tracer()
    plain, _ = _in_process(["hunt", "--nx", "5", "--ny-max", "6", "--random",
                            "--seed", "3", "--trials", "15",
                            "--format", "machine"])
    report, _ = _in_process(["hunt", "--nx", "5", "--ny-max", "6", "--random",
                             "--seed", "3", "--trials", "15",
                             "--format", "machine"], tracer)
    assert report == plain
    assert (verifier.check_condition, classify.check_condition,
            cycles.find_based_cycle) == before
    assert condition.check_condition is before[0]
    assert not tracer.stack

    spans = tracer.spans
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    names = {s[0] for s in spans}
    assert {"verifier.campaign", "condition.check_condition.kim",
            "condition.min_deficiency", "cycles.find_based_cycle",
            "generators.random_bigraph"} <= names
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2], (name, p[0])
    for name, agg in tracer.totals().items():
        assert agg["self_s"] >= 0, name
        assert agg["self_s"] <= agg["total_s"] + 1e-12, name
    assert tracer.counts["bigraph.Bigraph.constructed"] > 0

    path = tmp_path / "spans.tsv.gz"
    tracer.write(path)
    with gzip.open(path, "rt") as fh:
        assert sum(1 for _ in fh) == len(spans) + 1


def test_in_process_crash_counts_as_failed_call(tmp_path, monkeypatch):
    cli = run._import_library(ROOT)

    def boom(argv):
        raise RuntimeError("library bug")

    monkeypatch.setattr(cli, "main", boom)
    wl = workloads.make("enum6-degree", tiny=True)
    wl.prepare(1, tmp_path)
    bench = run.Bench(ROOT, tmp_path, run.time.monotonic() + 60)
    assert run.in_process(bench, wl, None) is None
    assert (bench.attempted, bench.failed) == (1, 1)
