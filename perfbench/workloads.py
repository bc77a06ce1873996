"""The four workloads: their CLI calls, their inputs and their output checks.

Every workload is one CLI call, run with ``--jobs 1`` and again with
``--jobs 2``.  ``classify`` has no ``--jobs``, so its two-process form
splits the stream into two halves and runs two ``classify`` processes at
once.  Each call's exit status and output are checked; why each workload is
here is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from burnside import total_classes

#: sha256 of the ``--format machine`` report of each exhaustive campaign,
#: keyed by (claim, nx, ny_max[, k]).  With no violations these reports
#: hold only counts, so they do not depend on the enumeration order.
FROZEN_REPORTS = {
    ("degree", 6, 3):
        "9a83b39ddefc790312eae7afc39ea29542c07c87e580167520cc77691c3d69d9",
    ("degree", 4, 4):
        "48fe8aa4231827bbe5e35f00d60aa9db499f8c1879ff5414e9e82e70f9bffa84",
    ("kcyclic", 4, 6, 4):
        "7397494d8305ed5f790f2e4aa17418be4f930ec99cd2b431f692f4e2598e7f7a",
    ("kcyclic", 4, 5, 4):
        "e4e43d8420638c2eeb7d8c776b96f055fe6490429412b31766cff832a095b590",
}

#: full sizes (what the benchmark measures) and tiny sizes (smoke tests)
SIZES = {
    "enum6-degree": ({"nx": 6, "ny_max": 3}, {"nx": 4, "ny_max": 4}),
    "hunt68-random": ({"nx": 6, "ny_max": 8, "trials": 200},
                      {"nx": 5, "ny_max": 6, "trials": 20}),
    "kcyclic46-mixed": ({"nx": 4, "ny_max": 6, "k": 4},
                        {"nx": 4, "ny_max": 5, "k": 4}),
    "classify8-stream": ({"nx": 8, "ny": 12, "graphs": 80},
                         {"nx": 8, "ny": 12, "graphs": 10}),
}


def parse_report(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep or key in fields:
            raise ValueError(f"malformed report line {line!r}")
        fields[key] = value
    return fields


class Workload:
    """One CLI call in a one-process and a two-process form.

    ``prepare`` writes the inputs into ``scratch`` before any call.
    ``check_output`` returns None, or why a call's output is wrong.
    ``items`` is what the call examines: classes, trials or graphs.
    """

    expect_status = 0

    def __init__(self, name: str, sizes: dict[str, int], items: int) -> None:
        self.name = name
        self.sizes = sizes
        self.items = items
        self.scratch = Path()

    def prepare(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch

    def argvs(self, jobs: int) -> list[list[str]]:
        raise NotImplementedError

    def check_output(self, jobs: int, outputs: list[str]) -> str | None:
        raise NotImplementedError


class Campaign(Workload):
    """A ``verify`` or ``hunt`` campaign: the first report is checked in
    full, and every later report, with either ``--jobs``, must be
    byte-identical to it."""

    def __init__(self, name: str, sizes: dict[str, int], items: int) -> None:
        super().__init__(name, sizes, items)
        self.reference: str | None = None

    def check_output(self, jobs: int, outputs: list[str]) -> str | None:
        (report,) = outputs
        if self.reference is None:
            problem = self.check_report(report)
            if problem:
                return problem
            self.reference = report
        elif report != self.reference:
            return (f"--jobs {jobs} report differs from the first report:\n"
                    f"{report}---\n{self.reference}")
        return None

    def check_report(self, report: str) -> str | None:
        raise NotImplementedError


class _Exhaustive(Campaign):
    """A ``verify`` campaign over every class, counted by Burnside."""

    def __init__(self, name: str, claim: str, sizes: dict[str, int],
                 checkpoint: bool) -> None:
        super().__init__(name, sizes,
                         total_classes(sizes["nx"], sizes["ny_max"]))
        self.claim = claim
        self.checkpoint = checkpoint
        self.calls = 0

    def argvs(self, jobs: int) -> list[list[str]]:
        argv = ["verify", self.claim]
        for k, v in self.sizes.items():
            argv += [f"--{k.replace('_', '-')}", str(v)]
        argv += ["--format", "machine", "--jobs", str(jobs)]
        if self.checkpoint:
            # a fresh file per call: a complete checkpoint would return the
            # stored report without doing any work
            self.calls += 1
            argv += ["--checkpoint", str(self.scratch / f"ckpt{self.calls}")]
        return [argv]

    def check_report(self, report: str) -> str | None:
        try:
            examined = parse_report(report).get("graphs_examined")
        except ValueError as exc:
            return str(exc)
        if examined != str(self.items):
            return (f"graphs_examined={examined} but Burnside counts "
                    f"{self.items} classes")
        digest = hashlib.sha256(report.encode()).hexdigest()
        want = FROZEN_REPORTS.get((self.claim,) + tuple(self.sizes.values()))
        if digest != want:
            return f"report digest {digest} != frozen {want}:\n{report}"
        return None


class _Hunt(Campaign):
    """A seeded random hunt; its report is checked field by field."""

    def __init__(self, name: str, sizes: dict[str, int]) -> None:
        super().__init__(name, sizes, sizes["trials"])
        self.seed = 0

    def prepare(self, seed: int, scratch: Path) -> None:
        super().prepare(seed, scratch)
        self.seed = seed

    def argvs(self, jobs: int) -> list[list[str]]:
        s = self.sizes
        return [["hunt", "--nx", str(s["nx"]), "--ny-max", str(s["ny_max"]),
                 "--random", "--seed", str(self.seed),
                 "--trials", str(s["trials"]),
                 "--format", "machine", "--jobs", str(jobs)]]

    def check_report(self, report: str) -> str | None:
        s = self.sizes
        try:
            fields = parse_report(report)
            checked = int(fields.pop("graphs_checked", "-1"))
        except ValueError as exc:
            return str(exc)
        want = {"report": "hunt", "param.mode": "random",
                "param.nx": str(s["nx"]), "param.ny_max": str(s["ny_max"]),
                "param.seed": str(self.seed),
                "param.trials": str(s["trials"]),
                "param.min_x_degree": "2",
                "graphs_examined": str(s["trials"]),
                "deterministic": "true", "violations": "0",
                "result": "confirmed"}
        if fields != want or not 0 <= checked <= s["trials"]:
            return f"unexpected hunt report:\n{report}"
        return None


class _ClassifyStream(Workload):
    """Seeded random bigraphs through ``classify --format machine``.

    None of the inputs is critical (no critical graph is known), so every
    verdict is ``critical=false`` with a reason and the exit status is 1.
    """

    expect_status = 1

    def __init__(self, name: str, sizes: dict[str, int]) -> None:
        super().__init__(name, sizes, sizes["graphs"])
        self.reference: list[list[str]] | None = None

    def prepare(self, seed: int, scratch: Path) -> None:
        super().prepare(seed, scratch)
        records = stream_records(seed, self.sizes)
        half = len(records) // 2
        for fname, recs in (("all.txt", records),
                            ("half1.txt", records[:half]),
                            ("half2.txt", records[half:])):
            (scratch / fname).write_text("\n".join(recs), encoding="utf-8")

    def argvs(self, jobs: int) -> list[list[str]]:
        files = ["all.txt"] if jobs == 1 else ["half1.txt", "half2.txt"]
        return [["classify", "--input", str(self.scratch / f),
                 "--format", "machine"] for f in files]

    def check_output(self, jobs: int, outputs: list[str]) -> str | None:
        # graph=N restarts at 1 in each half; the rest must match the
        # first run's verdicts line for line
        verdicts: list[list[str]] = []
        for out in outputs:
            records = [b.splitlines() for b in out.split("\n\n") if b.strip()]
            for i, rec in enumerate(records, start=1):
                if rec[0] != f"graph={i}":
                    return f"record {i} is not numbered graph={i}: {rec}"
                if rec[1:2] != ["critical=false"] or \
                        not any(r.startswith("reason=") for r in rec):
                    return f"record {i} is not a non-critical verdict: {rec}"
                verdicts.append(rec[1:])
        if len(verdicts) != self.items:
            return f"{len(verdicts)} verdicts for {self.items} graphs"
        if self.reference is None:
            self.reference = verdicts
        elif verdicts != self.reference:
            return f"--jobs {jobs} verdicts differ from the first run's"
        return None


#: (edge probability, minimum X-degree) of the two kinds of stream graph.
#: Dense graphs nearly all pass the condition, so the full-mode check and
#: the |X| = 8 super-cyclicity test run to the end; sparse ones nearly all
#: fail it early.  A fixed 7:3 mix keeps about 70% passing in every stream:
#: drawing one kind at random (p = 1/2, degree >= 5) gives the same pass
#: rate, but a per-graph cost so spread (CV 0.65) that the work of a
#: stream then varies with the seed.
DENSE = (0.5, 6)
SPARSE = (0.4, 3)


def stream_records(seed: int, sizes: dict[str, int]) -> list[str]:
    """``graphs`` bigraph records in the text format, 3 in every 10 sparse.

    Each X-vertex takes each Y-vertex with the kind's edge probability and
    is then padded at random up to its minimum degree.  The library's
    generator is not used, so the inputs stay fixed when it changes.
    """
    rng = random.Random(f"classify8-stream:{seed}")
    nx, ny = sizes["nx"], sizes["ny"]
    records = []
    for i in range(sizes["graphs"]):
        p, dmin = SPARSE if i % 10 in (2, 5, 8) else DENSE
        lines = [f"p bigraph {nx} {ny}"]
        for x in range(1, nx + 1):
            ys = [y for y in range(1, ny + 1) if rng.random() < p]
            missing = [y for y in range(1, ny + 1) if y not in ys]
            while len(ys) < dmin:
                ys.append(missing.pop(rng.randrange(len(missing))))
            lines += [f"e {x} {y}" for y in sorted(ys)]
        records.append("\n".join(lines) + "\n")
    return records


def make(name: str, tiny: bool = False) -> Workload:
    sizes = dict(SIZES[name][1 if tiny else 0])
    if name == "enum6-degree":
        return _Exhaustive(name, "degree", sizes, checkpoint=True)
    if name == "kcyclic46-mixed":
        return _Exhaustive(name, "kcyclic", sizes, checkpoint=False)
    if name == "hunt68-random":
        return _Hunt(name, sizes)
    return _ClassifyStream(name, sizes)
