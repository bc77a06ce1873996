import contextlib
import io
import os
import signal
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from supercyclic import (
    Bigraph,
    CheckReport,
    check_condition,
    complete_bipartite,
    construct_g3,
    enumerate_bigraphs,
    iter_records,
    parse_bigraph,
    serialize,
)
from supercyclic import classify, cli, formats, generators, verifier
from supercyclic.cli import main
from supercyclic.reports import unescape_value

from strategies import base_cycles_with_graph, bigraphs, hypergraphs

C6 = Bigraph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])
K33 = complete_bipartite(3, 3)
TRIANGLE_H = "p hgraph 3 3\ns 1 2\ns 2 3\ns 1 3\n"


def run(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_check_pass_human(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["check"], serialize(C6))
    assert code == 0
    assert "neighborhood condition: PASS" in out
    assert "delta >= max(n,(m+2)/2)" in out


def test_check_fail_human(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["check"],
                       serialize(construct_g3(1, 1, 1, 3)))
    assert code == 1
    assert "FAIL" in out and "|N^(X{1,2,3})| < 3" in out


def test_check_machine_stream(monkeypatch, capsys):
    text = serialize(C6) + "\n" + serialize(construct_g3(1, 1, 1, 3))
    code, out, _ = run(monkeypatch, capsys,
                       ["check", "--format", "machine"], text)
    assert code == 1
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    assert "graph=1\npassed=true\nmode=full" in blocks[0]
    assert "passed=false" in blocks[1]
    assert "size_witness=X{1,2,3}" in blocks[1]
    assert "quarter_bound=false" in blocks[1]


def test_check_as_hypergraph(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["check", "--as-hypergraph"], TRIANGLE_H)
    assert code == 0 and "PASS" in out
    # records of the wrong kind are usage errors either way
    code, _, err = run(monkeypatch, capsys,
                       ["check", "--as-hypergraph"], serialize(C6))
    assert code == 2 and "error:" in err
    code, _, err = run(monkeypatch, capsys, ["check"], TRIANGLE_H)
    assert code == 2 and "incidence" in err


def test_check_rejects_malformed_input(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys, ["check"],
                       "p bigraph 2 2\ne 1 1\ne 1 1\n")
    assert code == 2 and "duplicate edge" in err


def test_check_rejects_unknown_tag(monkeypatch, capsys):
    code, out, err = run(monkeypatch, capsys, ["check"],
                         "p bigraph 3 3\ne 1 1\ncat 2 2\ne 3 3\n")
    assert code == 2 and out == "" and "cat 2 2" in err


def test_cycle_found_and_absent(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["cycle", "--base", "1,2,3"],
                       serialize(C6))
    assert code == 0 and out == "graph 1: x1 y1 x2 y2 x3 y3\n"
    code, out, _ = run(monkeypatch, capsys, ["cycle", "--base", "1,3,4"],
                       serialize(construct_g3(2, 1, 1, 3)))
    assert code == 1 and out == "graph 1: ABSENT\n"
    code, _, err = run(monkeypatch, capsys, ["cycle", "--base", "a,b"],
                       serialize(C6))
    assert code == 2
    # a repeated index is refused, not read as the set {1, 2, 3}
    code, out, err = run(monkeypatch, capsys, ["cycle", "--base", "1,1,2,3"],
                         serialize(C6))
    assert code == 2 and out == "" and "repeat" in err


def test_cycle_error_on_a_later_graph_prints_nothing(monkeypatch, capsys):
    # the base lies outside the second graph: no line for the first
    stream = serialize(C6) + "\n" + serialize(complete_bipartite(2, 2))
    code, out, err = run(monkeypatch, capsys, ["cycle", "--base", "1,2,3"],
                         stream)
    assert code == 2 and out == "" and "outside the graph" in err


@pytest.mark.parametrize("argv, stdin_text", [
    (["cycle", "--base", "\u0661,\u0662,\u0663"], serialize(C6)),
    (["cycle", "--base", "+1,2,3"], serialize(C6)),
    (["cycle", "--base", "1,2,0_3"], serialize(C6)),
    (["analyze", "--cycle", "x\u0661,y1,x2,y2,x3,y3"], serialize(K33)),
    (["analyze", "--cycle", "1,+1,2,2,3,3"], serialize(K33)),
    (["analyze", "--cycle", "1,1,2,2,3,3", "--pair", "1,\u0662"],
     serialize(K33)),
    (["gen", "g3", "--n", "2,+1,1", "--delta", "3"], ""),
], ids=["base-arabic-indic", "base-plus", "base-underscore",
        "cycle-arabic-indic", "cycle-plus", "pair-arabic-indic", "n-plus"])
def test_index_lists_and_cycle_tokens_take_ascii_digits_only(
        monkeypatch, capsys, argv, stdin_text):
    # int() alone reads a sign, underscores and other scripts' digits; the
    # CLI takes the record parser's rule
    code, out, err = run(monkeypatch, capsys, argv, stdin_text)
    assert code == 2 and out == "" and err.startswith("error:")


def test_classify_human(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["classify"], serialize(K33))
    assert code == 1
    assert "critical=false" in out and "reason=" in out


def test_classify_machine(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["classify", "--format", "machine"], serialize(K33))
    assert code == 1
    assert out.startswith("graph=1\ncritical=false\nreason=")


def test_analyze_successors_and_crossings(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["analyze", "--cycle", "1,1,2,2,3,3", "--pair", "1,2"],
                       serialize(K33))
    assert code == 0
    assert "cycle: x1 y1 x2 y2 x3 y3" in out
    assert "  x1: x+ = x2  x- = x3  y+ = y1  y- = y3" in out
    assert "crossings of (x1, x2): 1 (at x3)" in out
    assert "holds" in out


def test_analyze_fan(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["analyze", "--cycle", "x1,y1,x2,y2", "--fan-root", "3"],
                       serialize(K33))
    assert code == 0
    assert "fan from x3: size 3, 5 vertices" in out
    assert "  path: x3 y1" in out and "  path: x3 y3 x1" in out


def test_analyze_input_errors(monkeypatch, capsys):
    two = serialize(K33) + "\n" + serialize(C6)
    assert run(monkeypatch, capsys,
               ["analyze", "--cycle", "1,1,2,2"], two)[0] == 2
    assert run(monkeypatch, capsys,
               ["analyze", "--cycle", "1,1,2"], serialize(K33))[0] == 2
    assert run(monkeypatch, capsys,
               ["analyze", "--cycle", "y1,x1,y2,x2"], serialize(K33))[0] == 2
    # claimed cycle edge missing from the graph
    assert run(monkeypatch, capsys,
               ["analyze", "--cycle", "1,1,2,2"], serialize(C6))[0] == 2
    # --pair takes exactly two indices
    for pair in ("1", "1,2,3"):
        code, out, err = run(monkeypatch, capsys,
                             ["analyze", "--cycle", "1,1,2,2,3,3",
                              "--pair", pair], serialize(K33))
        assert code == 2 and "--pair" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--pair", "1,1"], ["--pair", "1,4"], ["--pair", "1,2,3"],
    ["--fan-root", "9"], ["--fan-root", "1"],
])
def test_analyze_errors_print_nothing(monkeypatch, capsys, flags):
    # every result is computed before the first line of output
    g = Bigraph(4, 4, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1),
                       (4, 1), (4, 2), (4, 4)])
    code, out, err = run(monkeypatch, capsys,
                         ["analyze", "--cycle", "1,2,2,3,3,1", *flags],
                         serialize(g))
    assert code == 2 and out == "" and "Traceback" not in err


def test_gen_g3_roundtrip(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["gen", "g3", "--n", "2,1,1", "--delta", "3"])
    assert code == 0
    assert list(iter_records(out)) == [construct_g3(2, 1, 1, 3)]
    assert run(monkeypatch, capsys,
               ["gen", "g3", "--n", "2,1", "--delta", "3"])[0] == 2
    assert run(monkeypatch, capsys,
               ["gen", "g3", "--n", "1,2,1", "--delta", "3"])[0] == 2


def test_gen_complete(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["gen", "complete", "--nx", "3", "--ny", "3"])
    assert code == 0 and out == serialize(K33)


def test_gen_enum_stream(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["gen", "enum", "--nx", "2", "--ny-max", "2"])
    assert code == 0
    assert list(iter_records(out)) == list(enumerate_bigraphs(2, 2))

    code, out, _ = run(monkeypatch, capsys,
                       ["gen", "enum", "--nx", "3", "--ny-max", "4",
                        "--filter", "cond1"])
    got = list(iter_records(out))
    assert len(got) == 21
    assert all(check_condition(g).passed for g in got)


def test_gen_enum_filters_gate_emission_only(monkeypatch, capsys):
    def gen_enum(nx, ny_max, *flags):
        code, out, _ = run(monkeypatch, capsys,
                           ["gen", "enum", "--nx", str(nx),
                            "--ny-max", str(ny_max), *flags])
        assert code == 0
        return list(iter_records(out))

    total = list(enumerate_bigraphs(3, 3))
    heavy = gen_enum(3, 3, "--min-x-degree", "2")
    assert all(g.min_x_degree >= 2 for g in heavy)
    assert heavy == [g for g in total if g.min_x_degree >= 2]

    sturdy = gen_enum(3, 3, "--min-y-degree", "2")
    assert sturdy == [g for g in total
                      if g.y_count == 0 or g.min_y_degree >= 2]

    # cond1 walks the condition cut, which drops whole subtrees at the
    # larger sizes; the passing classes still come in the uncut order
    for nx, ny_max, degree in [(3, 4, 0), (4, 6, 0), (5, 5, 0), (5, 5, 2)]:
        good = gen_enum(nx, ny_max, "--filter", "cond1",
                        "--min-x-degree", str(degree))
        assert good == [g for g in enumerate_bigraphs(nx, ny_max)
                        if g.min_x_degree >= degree
                        and check_condition(g).passed]
        assert len(good) > 0


@pytest.mark.parametrize("nx, ny_max, digests", [
    (4, 5, ["527af3d8d1ed70c9", "10b60599d12e1e5d", "a085f15e1bfb3629",
            "d27613d30a08dd99", "81dac178ad86c0c2", "2e101be1bb76ec68",
            "e3b0c44298fc1c14"]),
    (5, 4, ["8d19fc2ee9ff516b", "2dd8f7a48610de66", "7a5ff086117049e1",
            "fd988207b4d597eb", "1daece7ee2100a94", "e3b0c44298fc1c14"]),
])
def test_gen_enum_min_x_degree_output_frozen(monkeypatch, capsys, nx,
                                             ny_max, digests):
    # the walk cuts at the minimum X-degree; the digests are of the output
    # of the full walk filtered after emission, for D = 0 .. ny_max + 1
    full = list(enumerate_bigraphs(nx, ny_max))
    for d, digest in enumerate(digests):
        code, out, _ = run(monkeypatch, capsys,
                           ["gen", "enum", "--nx", str(nx),
                            "--ny-max", str(ny_max),
                            "--min-x-degree", str(d)])
        assert code == 0
        assert sha256(out.encode()).hexdigest()[:16] == digest
        assert list(iter_records(out)) == [g for g in full
                                           if g.min_x_degree >= d]


def test_gen_random_deterministic(monkeypatch, capsys):
    argv = ["gen", "random", "--nx", "4", "--ny", "4", "--seed", "5",
            "--count", "3"]
    _, out1, _ = run(monkeypatch, capsys, argv)
    _, out2, _ = run(monkeypatch, capsys, argv)
    assert out1 == out2
    assert len(list(iter_records(out1))) == 3


def test_gen_random_refuses_negative_min_x_degree(monkeypatch, capsys):
    code, out, err = run(monkeypatch, capsys,
                         ["gen", "random", "--nx", "3", "--ny", "3",
                          "--min-x-degree", "-2"])
    assert code == 2 and out == "" and "min_x_degree" in err


@pytest.mark.parametrize("argv, what", [
    (["random", "--nx", "99", "--ny", "3", "--count", "0"], "--count"),
    (["random", "--nx", "3", "--ny", "3", "--count", "-1"], "--count"),
    (["enum", "--nx", "3", "--ny-max", "2", "--min-x-degree", "-1"],
     "min_x_degree"),
    (["enum", "--nx", "3", "--ny-max", "2", "--min-y-degree", "-5"],
     "--min-y-degree"),
])
def test_gen_refuses_counts_and_floors_below_range(monkeypatch, capsys,
                                                   argv, what):
    code, out, err = run(monkeypatch, capsys, ["gen", *argv])
    assert code == 2 and out == "" and what in err


def test_verify_machine_golden(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["verify", "kcyclic", "--nx", "3", "--ny-max", "3",
                        "--k", "3", "--format", "machine"])
    assert code == 0
    assert out == (
        "report=verify-k-cyclic\n"
        "param.nx=3\n"
        "param.ny_max=3\n"
        "param.k=3\n"
        "graphs_examined=54\n"
        "graphs_checked=4\n"
        "deterministic=true\n"
        "violations=0\n"
        "result=confirmed\n"
    )


def test_verify_human(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["verify", "degree", "--nx", "3", "--ny-max", "3"])
    assert code == 0
    assert "result: CONFIRMED" in out and "elapsed:" in out


def test_hunt_cli_matches_library(monkeypatch, capsys):
    from supercyclic import HuntConfig, hunt_counterexample
    code, out, _ = run(monkeypatch, capsys,
                       ["hunt", "--nx", "4", "--ny-max", "4", "--random",
                        "--seed", "3", "--trials", "10",
                        "--format", "machine"])
    assert code == 0
    want = hunt_counterexample(HuntConfig(4, 4, mode="random", seed=3,
                                          trials=10))
    assert out == want.to_machine()


@pytest.mark.parametrize("sizes", [
    ["--ny-max", "70", "--trials", "2"],   # no trial draws |Y| > 64
    ["--ny-max", "70", "--trials", "60"],  # a later trial does
    ["--nx", "65", "--trials", "2"],
    ["--min-x-degree", "-1", "--trials", "2"],
], ids=["ny-max-70-short", "ny-max-70-long", "nx-65", "min-x-degree--1"])
def test_hunt_sizes_out_of_range_exit_2_before_any_checkpoint(
        monkeypatch, capsys, tmp_path, sizes):
    argv = ["hunt", "--nx", "4", "--ny-max", "6", "--random", "--seed", "1",
            "--checkpoint", str(tmp_path / "hunt.ckpt")] + sizes
    code, out, err = run(monkeypatch, capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_env_dir(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("SUPERCYCLIC_CHECKPOINT_DIR", str(tmp_path))
    argv = ["verify", "kcyclic", "--nx", "3", "--ny-max", "3", "--k", "3",
            "--checkpoint", "run.ckpt", "--checkpoint-every", "10",
            "--format", "machine"]
    code, out, _ = run(monkeypatch, capsys, argv)
    assert code == 0
    assert (tmp_path / "run.ckpt").exists()
    # resume from the completed file, byte-identical report
    code2, out2, _ = run(monkeypatch, capsys, argv)
    assert code2 == 0 and out2 == out


def test_checkpoint_env_dir_keeps_an_absolute_path(monkeypatch, capsys,
                                                  tmp_path):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    monkeypatch.setenv("SUPERCYCLIC_CHECKPOINT_DIR", str(env_dir))
    code, _, _ = run(monkeypatch, capsys,
                     ["verify", "kcyclic", "--nx", "3", "--ny-max", "3",
                      "--k", "3", "--checkpoint", str(tmp_path / "abs.ckpt")])
    assert code == 0
    assert (tmp_path / "abs.ckpt").exists()
    assert list(env_dir.iterdir()) == []


def test_checkpoint_every_zero_is_an_input_error(monkeypatch, capsys,
                                                 tmp_path):
    code, out, err = run(monkeypatch, capsys,
                         ["verify", "kcyclic", "--nx", "3", "--ny-max", "3",
                          "--k", "3", "--checkpoint", str(tmp_path / "c"),
                          "--checkpoint-every", "0"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


GOOD_CHECKPOINT = ("checkpoint=1\ncampaign=verify-k-cyclic\n"
                   "key=nx=3;ny_max=3;k=3;stream=condition\n"
                   "examined=5\nchecked=2\n"
                   "complete=0\nviolations=1\nviolation.0.check=c\n"
                   "violation.0.graph=g\nviolation.0.witness=w\n"
                   "violation.0.extra=\n")


@pytest.mark.parametrize("field, bad", [
    ("examined", None), ("examined", "abc"), ("examined", "-1"),
    # Arabic-Indic digits, which int() reads as 10 and 2
    ("examined", "\u0661\u0660"), ("checked", "\u0662"),
    ("checked", None), ("checked", "2.5"),
    ("violations", None), ("violations", "one"),
    ("violation.0.graph", None), ("violation.0.witness", None),
])
def test_garbled_checkpoint_exits_2(monkeypatch, capsys, tmp_path,
                                    field, bad):
    lines = [ln for ln in GOOD_CHECKPOINT.splitlines()
             if not ln.startswith(field + "=")]
    if bad is not None:
        lines.append(f"{field}={bad}")
    path = tmp_path / "run.ckpt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(monkeypatch, capsys,
                         ["verify", "kcyclic", "--nx", "3", "--ny-max", "3",
                          "--k", "3", "--checkpoint", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(path) in err and field in err


@pytest.mark.parametrize("complete", ["0", "1"])
def test_full_stream_degree_checkpoint_is_refused(monkeypatch, capsys,
                                                  tmp_path, complete):
    # written before the degree campaign cut its stream: its position counts
    # a different stream, so resuming from it would skip the wrong prefix
    path = tmp_path / "old.ckpt"
    path.write_text("checkpoint=1\ncampaign=verify-degree-theorem\n"
                    "key=nx=4;ny_max=5\nexamined=1000\nchecked=0\n"
                    f"complete={complete}\nviolations=0\n")
    code, out, err = run(monkeypatch, capsys,
                         ["verify", "degree", "--nx", "4", "--ny-max", "5",
                          "--checkpoint", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "refusing to resume" in err


@pytest.mark.parametrize("complete", ["0", "1"])
def test_degree_only_cut_checkpoint_is_refused(monkeypatch, capsys, tmp_path,
                                               complete):
    # written while the degree campaign cut its stream by degree alone: its
    # position counts that stream, which keeps nodes the condition cuts
    path = tmp_path / "old.ckpt"
    text = ("checkpoint=1\ncampaign=verify-degree-theorem\n"
            "key=nx=4;ny_max=7;stream=pruned\nexamined=2000\nchecked=150\n"
            f"complete={complete}\nviolations=0\n")
    path.write_text(text)
    code, out, err = run(monkeypatch, capsys,
                         ["verify", "degree", "--nx", "4", "--ny-max", "7",
                          "--checkpoint", str(path)])
    assert code == 2 and out == ""
    assert err == (f"error: checkpoint {path} belongs to campaign "
                   f"'verify-degree-theorem' with parameters "
                   f"'nx=4;ny_max=7;stream=pruned'; refusing to resume "
                   f"'verify-degree-theorem' with "
                   f"'nx=4;ny_max=7;stream=condition'\n")
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("campaign, complete", [
    (["verify", "kcyclic", "--nx", "3", "--ny-max", "4", "--k", "3"], "0"),
    (["verify", "kcyclic", "--nx", "3", "--ny-max", "4", "--k", "3"], "1"),
    (["hunt", "--nx", "3", "--ny-max", "4"], "0"),
])
def test_full_stream_condition_checkpoint_is_refused(monkeypatch, capsys,
                                                     tmp_path, campaign,
                                                     complete):
    # written before these campaigns cut their stream: its position counts
    # every class, so resuming from it would skip the wrong prefix
    name, key = {"verify": ("verify-k-cyclic", "nx=3;ny_max=4;k=3"),
                 "hunt": ("hunt", "mode=exhaustive;nx=3;ny_max=4")}[campaign[0]]
    path = tmp_path / "old.ckpt"
    path.write_text(f"checkpoint=1\ncampaign={name}\nkey={key}\n"
                    f"examined=40\nchecked=0\ncomplete={complete}\n"
                    f"violations=0\n")
    code, out, err = run(monkeypatch, capsys,
                         campaign + ["--checkpoint", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "refusing to resume" in err


KCYCLIC_333 = ["verify", "kcyclic", "--nx", "3", "--ny-max", "3", "--k", "3"]
RANDOM_HUNT = ["hunt", "--nx", "4", "--ny-max", "4", "--random",
               "--trials", "5"]


DEGREE_45 = ["verify", "degree", "--nx", "4", "--ny-max", "5"]


@pytest.mark.parametrize("flag", [["--seed", "9"], ["--trials", "50"],
                                  ["--min-x-degree", "4"], ["--seed", "0"]],
                         ids=["seed", "trials", "min-x-degree", "seed-0"])
def test_exhaustive_hunt_refuses_random_only_flags(monkeypatch, capsys,
                                                   flag):
    evaluated = _record_evaluations(monkeypatch)
    code, out, err = run(monkeypatch, capsys,
                         ["hunt", "--nx", "4", "--ny-max", "4", *flag,
                          "--format", "machine"])
    assert (code, out, evaluated) == (2, "", [])
    assert err == ("error: only --random takes --seed, --trials and "
                   "--min-x-degree\n")


def _record_evaluations(monkeypatch):
    """Make every campaign record, and not evaluate, each node it visits
    and each random trial; return the record."""
    evaluated = []

    def visitor(*args, **kwargs):
        return lambda *node: evaluated.append(node) or (None, (False, None))

    monkeypatch.setattr(verifier, "_condition_visitor", visitor)
    monkeypatch.setattr(verifier, "_hunt_trial",
                        lambda *args: evaluated.append(args) or (False, None))
    return evaluated


@pytest.mark.parametrize("campaign, counts, why", [
    # the (3, <=3) stream stands for 54 classes in 10 cut positions; the
    # (4, <=5) degree stream for 1485 in 50; the random hunt has 5 trials
    (KCYCLIC_333, "examined=5\nchecked=0\ncomplete=1\nviolations=0",
     "it is complete at examined=5, but the stream goes on"),
    (KCYCLIC_333, "examined=20\nchecked=0\ncomplete=0\nviolations=0",
     "examined=20 is past the 10 items of the stream"),
    (KCYCLIC_333, "examined=999999\nchecked=0\ncomplete=0\nviolations=0",
     "examined=999999 exceeds the 54 items of the stream"),
    (RANDOM_HUNT, "examined=999\nchecked=5000\ncomplete=0\nviolations=0",
     "examined=999 exceeds the 5 items of the stream"),
    (RANDOM_HUNT, "examined=3\nchecked=3\ncomplete=1\nviolations=0",
     "it is complete at examined=3, but the stream has 5 items"),
    (KCYCLIC_333, "examined=10\nchecked=11\ncomplete=0\nviolations=0",
     "checked=11 exceeds examined=10"),
    (KCYCLIC_333, "examined=10\nchecked=0\ncomplete=0\nviolations=1\n"
     "violation.0.check=c\nviolation.0.graph=g\nviolation.0.witness=w",
     "its 1 violations exceed checked=0"),
    # a cut stream may end early, but not after the classes it stands for
    (DEGREE_45, "examined=2000\nchecked=0\ncomplete=1\nviolations=0",
     "examined=2000 exceeds the 1485 items of the stream"),
    (DEGREE_45, "examined=5\nchecked=0\ncomplete=1\nviolations=0",
     "it is complete at examined=5, but the stream goes on"),
    (DEGREE_45, "examined=51\nchecked=0\ncomplete=1\nviolations=0",
     "examined=51 is past the 50 items of the stream"),
], ids=["complete-short", "past-the-cut-stream", "past-the-classes",
        "past-the-trials", "complete-short-of-the-trials",
        "checked-past-examined", "violations-past-checked",
        "cut-stream-past-the-classes", "cut-stream-complete-short",
        "complete-past-the-cut-stream"])
def test_checkpoint_counts_the_stream_cannot_hold_exit_2(
        monkeypatch, capsys, tmp_path, campaign, counts, why):
    evaluated = _record_evaluations(monkeypatch)
    cli_name, key = {
        "kcyclic": ("verify-k-cyclic", "nx=3;ny_max=3;k=3;stream=condition"),
        "degree": ("verify-degree-theorem", "nx=4;ny_max=5;stream=condition"),
        "hunt": ("hunt", "mode=random;nx=4;ny_max=4;seed=0;trials=5;"
                         "min_x_degree=2"),
    }[campaign[1] if campaign[0] == "verify" else "hunt"]
    path = tmp_path / "run.ckpt"
    text = f"checkpoint=1\ncampaign={cli_name}\nkey={key}\n{counts}\n"
    path.write_text(text)
    code, out, err = run(monkeypatch, capsys,
                         campaign + ["--checkpoint", str(path)])
    assert (code, out, evaluated) == (2, "", [])
    assert err == f"error: checkpoint {path}: {why}; refusing to resume\n"
    assert path.read_text() == text


@pytest.mark.parametrize("jobs", [0, -5])
def test_jobs_below_one_exit_2(monkeypatch, capsys, jobs):
    evaluated = _record_evaluations(monkeypatch)
    code, out, err = run(monkeypatch, capsys,
                         KCYCLIC_333 + ["--jobs", str(jobs)])
    assert (code, out, evaluated) == (2, "", [])
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("campaign", [
    ["verify", "kcyclic", "--nx", "4", "--ny-max", "6", "--k", "3"],
    ["hunt", "--nx", "4", "--ny-max", "4", "--random", "--trials", "50"],
])
def test_unwritable_checkpoint_fails_before_any_item(monkeypatch, capsys,
                                                     tmp_path, campaign):
    evaluated = _record_evaluations(monkeypatch)
    path = str(tmp_path / "none" / "k.ckpt")
    code, out, err = run(monkeypatch, capsys, campaign + [
        "--checkpoint", path, "--checkpoint-every", "100000", "--progress"])
    assert code == 2 and out == "" and evaluated == []
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(path) in err and ".tmp" not in err


@pytest.mark.parametrize("campaign", [RANDOM_HUNT,
                                      RANDOM_HUNT + ["--jobs", "2"]])
def test_campaign_that_loses_a_class_is_an_internal_error(monkeypatch, capsys,
                                                          campaign):
    # only the random hunt's stream still has a known length: its trials
    drive = verifier._drive

    def drop_one(name, parameters, results, *args, **kwargs):
        def short(skip, jobs):
            yield from islice(results(skip, jobs), 1, None)
        return drive(name, parameters, short, *args, **kwargs)

    code, out, _ = run(monkeypatch, capsys, campaign + ["--format", "machine"])
    assert code == 0 and "graphs_examined=5\n" in out
    monkeypatch.setattr(verifier, "_drive", drop_one)
    code, out, err = run(monkeypatch, capsys, campaign)
    assert code == 3 and out == ""
    assert err == ("internal error: RuntimeError: the stream yielded 4 "
                   "items, but it stands for 5\n")


@pytest.mark.parametrize("campaign", [
    ["verify", "kcyclic", "--nx", "3", "--ny-max", "4", "--k", "3"],
    ["hunt", "--nx", "3", "--ny-max", "4"],
])
def test_cut_stream_with_an_extra_class_is_an_internal_error(monkeypatch,
                                                             capsys, campaign):
    # a cut stream may end early, but never after the classes it stands for
    walk = verifier._walk

    def one_extra(tree, visit, node=None, split=0):
        whole = generators._tree(tree.nx, tree.ny_max)  # none cut
        yield from walk(whole, visit, node, split)  # every class
        if node is None:  # the top of the walk, not a subtree below it
            yield from islice(walk(whole, visit), 1)

    code, out, _ = run(monkeypatch, capsys, campaign + ["--format", "machine"])
    assert code == 0 and "graphs_examined=141\n" in out
    monkeypatch.setattr(verifier, "_walk", one_extra)
    code, out, err = run(monkeypatch, capsys, campaign)
    assert code == 3 and out == ""
    assert err == ("internal error: RuntimeError: the stream yielded 142 "
                   "items, but it stands for 141\n")


DYING_WORKER = """\
import os
import sys

from supercyclic import cli, verifier


def die(*args):
    os._exit(1)


if __name__ == "__main__":  # a spawned worker imports this, with the real ones
    verifier._k_cyclic_verdict = verifier._hunt_trial = die
    sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("campaign", [
    ["verify", "kcyclic", "--nx", "4", "--ny-max", "6", "--k", "4"],
    ["hunt", "--nx", "4", "--ny-max", "4", "--random", "--trials", "50"],
], ids=["shards", "trials"])
def test_campaign_whose_worker_dies_is_an_internal_error(tmp_path, campaign):
    # every node this process visits, above depth 2, fails the condition, so
    # only the workers call the verdict, or the trial, that dies
    script = tmp_path / "dying_worker.py"
    script.write_text(DYING_WORKER)
    src = os.path.dirname(os.path.dirname(verifier.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # a session of its own, so that its workers can be found and stopped
    proc = subprocess.Popen([sys.executable, str(script), *campaign,
                             "--jobs", "2"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
        # and no worker outlives the campaign
        deadline = time.monotonic() + 5
        while (left := _running_in_group(proc.pid)) and \
                time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert (proc.returncode, out, left) == (3, "", [])
    assert err.startswith("internal error: BrokenProcessPool: ")
    assert err.count("\n") == 1


def _running_in_group(pgid):
    """The processes of group ``pgid`` that are not zombies, from /proc."""
    running = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:  # it has ended since
            continue
        state, _ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            running.append(int(pid))
    return running


@pytest.mark.parametrize("case", ["checkpoint-missing-dir",
                                  "checkpoint-is-dir", "missing-input",
                                  "non-utf8-input"])
def test_unreadable_files_exit_2(monkeypatch, capsys, tmp_path, case):
    verify = ["verify", "kcyclic", "--nx", "3", "--ny-max", "3", "--k", "3",
              "--checkpoint-every", "5"]
    if case == "checkpoint-missing-dir":
        argv = verify + ["--checkpoint", str(tmp_path / "none" / "x.ckpt")]
    elif case == "checkpoint-is-dir":
        argv = verify + ["--checkpoint", str(tmp_path)]
    elif case == "missing-input":
        argv = ["check", "--input", str(tmp_path / "none.txt")]
    else:
        path = tmp_path / "latin1.txt"
        path.write_bytes(serialize(K33).encode() + b"c caf\xe9\n")
        argv = ["check", "--input", str(path)]
    code, out, err = run(monkeypatch, capsys, argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# class 381 of (4, <=4): it passes the condition, N^(X) = Y, and it has 11
# edges, so the exhaustive Y-minimality scan walks 2^11 edge subsets
HIT = parse_bigraph("p bigraph 4 4\ne 1 1\ne 1 2\ne 1 3\ne 1 4\ne 2 1\n"
                    "e 2 2\ne 2 3\ne 3 2\ne 3 4\ne 4 3\ne 4 4\n")


def test_forced_hunt_hit_is_dissected(monkeypatch, capsys):
    # no hit is known, so declare HIT not super-cyclic, with the whole of X
    # as its minimal witness, wherever the hunt and the classifier ask
    real = verifier.is_super_cyclic

    def forced(g):
        if g == HIT:
            return CheckReport("super_cyclic", False, witness=g.x_full)
        return real(g)

    monkeypatch.setattr(verifier, "is_super_cyclic", forced)
    monkeypatch.setattr(classify, "is_super_cyclic", forced)
    assert check_condition(HIT).passed
    argv = ["hunt", "--nx", "4", "--ny-max", "4", "--format", "machine"]
    code, out, err = run(monkeypatch, capsys, argv)
    assert (code, err) == (1, "")
    assert "violations=1\n" in out
    assert "violation.0.witness=X{1,2,3,4}\n" in out
    extra = unescape_value(out.split("violation.0.extra=")[1].split("\n")[0])
    # N^(X) = Y, so the core is HIT itself and there is no reduced form
    sections = extra.split("\naudit[")
    assert sections[0] == "core graph:\n" + serialize(HIT)
    assert [s.split("]")[0] for s in sections[1:]] == ["core", "hit graph"]
    for audit in sections[1:]:  # not vacuous: every gated check ran
        assert "\ngraphs_checked=1\n" in audit
        assert "note.0=gate saturated: true\n" in audit
        assert "note.1=gate y_minimal: true\n" in audit
        assert "check=fan_contact_bound\n" in audit
    # frozen before max_fan lost its flow ledger
    assert sha256(out.encode()).hexdigest()[:16] == "4aa973d36d7377e7"
    assert run(monkeypatch, capsys, argv) == (code, out, err)


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_check", broken)
    code, _, err = run(monkeypatch, capsys, ["check"], serialize(C6))
    assert code == 3
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_defect_in_graph_constructor_exits_3(monkeypatch, capsys):
    # only the constructors' InputError is a format error; anything else
    # raised while building a parsed graph is a defect
    def broken(*args):
        raise RuntimeError("boom")

    text = serialize(C6)
    monkeypatch.setattr(formats, "Bigraph", broken)
    code, _, err = run(monkeypatch, capsys, ["check"], text)
    assert code == 3
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


# -- fuzz: small argv values and junk stdin, in-process ----------------------

SIZE = st.integers(-1, 4)
FORMAT = st.sampled_from([[], ["--format", "human"], ["--format", "machine"]])
AS_HYPERGRAPH = st.sampled_from([[], ["--as-hypergraph"]])
INDEX_LIST = st.lists(st.integers(-1, 5), max_size=4).map(
    lambda xs: ",".join(map(str, xs)))
CYCLE_TEXT = st.lists(st.tuples(st.sampled_from(["", "x", "y", "z"]),
                                st.integers(-1, 5)), max_size=8).map(
    lambda toks: ",".join(f"{p}{i}" for p, i in toks))
JUNK = st.text(alphabet="pesbigrahc 0123456789-,\n", max_size=12)


def _opt(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


@st.composite
def _stdins(draw):
    """Valid, malformed, hypergraph or empty record streams."""
    kind = draw(st.sampled_from(["valid", "malformed", "hypergraph",
                                 "mixed", "empty"]))
    if kind == "empty":
        return draw(st.sampled_from(["", "\n", "c nothing here\n"]))
    graphs = draw(st.lists(bigraphs(max_x=4, max_y=5), min_size=1,
                           max_size=3))
    if kind == "hypergraph":
        graphs = draw(st.lists(hypergraphs(max_v=4, max_e=4), min_size=1,
                               max_size=2))
    elif kind == "mixed":
        graphs.append(draw(hypergraphs(max_v=4, max_e=4)))
    text = "\n".join(serialize(g) for g in graphs)
    if kind == "malformed":
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(JUNK) + text[cut + draw(st.integers(0, 4)):]
    return text


@st.composite
def _calls(draw):
    """(argv, stdin) of one subcommand with tiny sizes, sometimes mangled.

    ``analyze`` gets a graph together with a cycle in it half the time, so
    that it gets past the cycle check; every other input is random.
    """
    cmd = draw(st.sampled_from(["check", "cycle", "classify", "analyze",
                                "gen", "verify", "hunt"]))
    stdin_text = draw(_stdins())
    if cmd == "check":
        argv = ["check"] + draw(_opt("--mode", st.sampled_from(
            ["full", "kim"]))) + draw(AS_HYPERGRAPH) + draw(FORMAT)
    elif cmd == "cycle":
        base = st.lists(st.integers(1, 4), min_size=3, max_size=4,
                        unique=True).map(lambda xs: ",".join(map(str, xs)))
        argv = ["cycle", "--base", draw(base | INDEX_LIST)] + \
            draw(AS_HYPERGRAPH)
    elif cmd == "classify":
        argv = ["classify"] + draw(_opt("--ym-mode", st.sampled_from(
            ["one_deletion", "exhaustive"]))) + draw(AS_HYPERGRAPH) + \
            draw(FORMAT)
    elif cmd == "analyze":
        cycle = draw(CYCLE_TEXT)
        if draw(st.booleans()):
            g, c = draw(base_cycles_with_graph(max_l=3, max_extra=1))
            stdin_text = serialize(g)
            cycle = str(c).replace(" ", ",")
        argv = ["analyze", "--cycle", cycle] + \
            draw(_opt("--pair", INDEX_LIST)) + \
            draw(_opt("--fan-root", st.integers(-1, 5)))
    elif cmd == "gen":
        kind = draw(st.sampled_from(["g3", "complete", "enum", "random"]))
        argv = ["gen", kind]
        if kind == "g3":
            argv += ["--n", draw(INDEX_LIST),
                     "--delta", str(draw(st.integers(-1, 5)))]
        elif kind == "complete":
            argv += ["--nx", str(draw(SIZE)), "--ny", str(draw(SIZE))]
        elif kind == "enum":
            argv += ["--nx", str(draw(SIZE)),
                     "--ny-max", str(draw(st.integers(-1, 5)))]
            argv += draw(_opt("--min-x-degree", SIZE))
            argv += draw(_opt("--min-y-degree", SIZE))
            argv += draw(st.sampled_from([[], ["--filter", "cond1"]]))
        else:
            argv += ["--nx", str(draw(SIZE)), "--ny", str(draw(SIZE))]
            argv += draw(_opt("--min-x-degree", SIZE))
            argv += draw(_opt("--seed", st.integers(-2, 2)))
            argv += draw(_opt("--count", st.integers(-1, 3)))
    else:
        if cmd == "verify":
            claim = draw(st.sampled_from(["kcyclic", "degree"]))
            argv = ["verify", claim]
        else:
            argv = ["hunt"]
        argv += ["--nx", str(draw(SIZE)),
                 "--ny-max", str(draw(st.integers(-1, 5)))]
        if argv[1] == "kcyclic":
            argv += ["--k", str(draw(st.integers(-1, 5)))]
        if cmd == "hunt":
            argv += draw(st.sampled_from([[], ["--random"]]))
            argv += draw(_opt("--seed", st.integers(-2, 2)))
            argv += draw(_opt("--trials", st.integers(-1, 3)))
            argv += draw(_opt("--min-x-degree", SIZE))
        argv += draw(st.sampled_from([[], ["--jobs", "1"]]))
        argv += draw(st.sampled_from([[], ["--checkpoint", "{ckpt}"]]))
        argv += draw(_opt("--checkpoint-every", st.integers(-1, 3)))
        argv += draw(FORMAT) + draw(st.sampled_from([[], ["--progress"]]))
    mangle = draw(st.sampled_from(["none", "none", "drop", "insert"]))
    if mangle != "none" and len(argv) > 1:
        i = draw(st.integers(1, len(argv) - 1))
        if mangle == "drop":
            del argv[i]
        else:
            argv.insert(i, draw(JUNK))
    return argv, stdin_text


@given(_calls())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_0_1_or_2_without_traceback(call):
    argv, stdin_text = call
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{ckpt}", f"{tmp}/run.ckpt") for a in argv]
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            sys.stdin = saved
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert code != 2 or not out.getvalue(), (argv, out.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_pipeline_through_real_processes():
    gen = f"{sys.executable} -m supercyclic.cli gen g3 --n 2,1,1 --delta 3"
    check = f"{sys.executable} -m supercyclic.cli check"
    proc = subprocess.run(f"{gen} | {check}", shell=True,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
