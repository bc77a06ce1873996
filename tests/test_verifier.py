import random
from collections import Counter
from functools import partial
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from supercyclic import (
    CheckpointConfig,
    HuntConfig,
    InputError,
    VerificationReport,
    Violation,
    audit_critical_properties,
    check_condition,
    complete_bipartite,
    construct_g3,
    degree_hypothesis,
    enumerate_bigraphs,
    expected_class_count,
    hunt_counterexample,
    random_bigraph,
    verify_degree_theorem,
    verify_k_cyclic,
)
from supercyclic import CheckReport, cli, condition, generators, verifier
from supercyclic.bigraph import _cover
from supercyclic.bitset import full_mask, indices_of
from supercyclic.formats import serialize_bigraph
from supercyclic.reports import escape_value, machine_lines, unescape_value
from supercyclic.verifier_checkpoint import (CheckpointState, load_checkpoint,
                                             save_checkpoint)

import oracles
from oracles import (burnside_class_count, condition_bruteforce,
                     eval_degree, eval_hunt_graph, eval_k_cyclic)
from strategies import bigraphs

GOLDEN_333 = (
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


def test_k_cyclic_campaign_golden_machine_report():
    assert verify_k_cyclic(3, 3, 3).to_machine() == GOLDEN_333


def test_k_cyclic_campaign_counts(corpus_3_5):
    rep = verify_k_cyclic(3, 4, 3)
    assert rep.confirmed
    assert rep.graphs_examined == sum(burnside_class_count(3, k)
                                      for k in range(5)) == 141
    # the gate is the neighborhood condition, recounted independently
    expected_checked = sum(1 for g in enumerate_bigraphs(3, 4)
                           if condition_bruteforce(g))
    assert rep.graphs_checked == expected_checked == 21


def test_k_cyclic_rejects_bad_k():
    with pytest.raises(InputError):
        verify_k_cyclic(3, 4, 2)
    with pytest.raises(InputError):
        verify_k_cyclic(3, 4, 4)


def test_degree_campaign_counts():
    rep = verify_degree_theorem(4, 4)
    assert rep.confirmed
    assert rep.graphs_examined == sum(burnside_class_count(4, k)
                                      for k in range(5)) == 432
    # at |Y| <= 4 only the complete graph meets the quarter bound and the
    # condition, so exactly one graph reaches the conclusion check
    gated = [g for g in enumerate_bigraphs(4, 4)
             if degree_hypothesis(g).meets_quarter_bound
             and condition_bruteforce(g)]
    assert gated == [complete_bipartite(4, 4)]
    assert rep.graphs_checked == 1


def _full_stream_report(campaign, parameters, evaluate, nx, ny_max):
    """A campaign's report as the full stream, cut nowhere, gives it through
    a per-graph referee."""
    results = list(map(evaluate, enumerate_bigraphs(nx, ny_max)))
    return VerificationReport(
        campaign, parameters, len(results),
        sum(checked for checked, _ in results),
        tuple(v for _, v in results if v is not None), True, 0.0).to_machine()


@pytest.mark.parametrize("nx, top", [(0, 6), (1, 6), (2, 6), (3, 6),
                                     (4, 6), (5, 6), (6, 5)])
def test_degree_campaign_report_equals_full_stream_report(nx, top):
    for ny_max in range(top + 1):
        want = _full_stream_report(
            "verify-degree-theorem",
            (("nx", str(nx)), ("ny_max", str(ny_max))),
            eval_degree, nx, ny_max)
        for jobs in (1, 2):
            got = verify_degree_theorem(nx, ny_max, jobs=jobs).to_machine()
            assert got == want, (ny_max, jobs)


@pytest.mark.parametrize("nx, ny_max", [(3, 3), (3, 4), (3, 5), (4, 5),
                                        (4, 6)])
def test_condition_cut_campaign_reports_equal_full_stream_reports(nx, ny_max):
    sizes = (("nx", str(nx)), ("ny_max", str(ny_max)))
    for k in range(3, nx + 1):
        want = _full_stream_report(
            "verify-k-cyclic", sizes + (("k", str(k)),),
            partial(eval_k_cyclic, k), nx, ny_max)
        for jobs in (1, 2):
            got = verify_k_cyclic(nx, ny_max, k, jobs=jobs).to_machine()
            assert got == want, (k, jobs)
    config = HuntConfig(nx, ny_max)
    want = _full_stream_report("hunt", config.parameters(),
                               eval_hunt_graph, nx, ny_max)
    for jobs in (1, 2):
        assert hunt_counterexample(config, jobs=jobs).to_machine() == want


def _k_cyclic_visitor(k):
    return partial(verifier._condition_visitor,
                   partial(verifier._k_cyclic_verdict, k))


_HUNT_VISITOR = partial(verifier._condition_visitor, verifier._hunt_verdict)
_DEGREE_VISITOR = partial(verifier._condition_visitor,
                          verifier._degree_verdict, quarter_bound=True)


def _visited(spec, make_visitor):
    """A campaign's (checked, violation) at each node of its walk."""
    return list(verifier._node_results(spec, make_visitor, 0, 1))


def _refereed(spec, evaluate):
    """The same, from a per-graph referee on each graph of the same walk."""
    return [evaluate(g) for g in enumerate_bigraphs(*spec)]


@pytest.mark.parametrize("nx, ny_max", [(nx, ny_max) for nx in range(6)
                                        for ny_max in range(7)] + [(6, 6)])
def test_node_visitors_equal_the_per_graph_referees(nx, ny_max):
    cut = (nx, ny_max, 0, True)
    for k in range(3, nx + 1):
        assert _visited(cut, _k_cyclic_visitor(k)) == \
            _refereed(cut, partial(eval_k_cyclic, k)), k
    assert _visited(cut, _HUNT_VISITOR) == \
        _refereed(cut, eval_hunt_graph)
    degree_cut = (nx, ny_max, nx, True)
    assert _visited(degree_cut, _DEGREE_VISITOR) == \
        _refereed(degree_cut, eval_degree)


@pytest.mark.parametrize("nx, ny_max", [(3, 5), (4, 5)])
def test_node_visitors_report_the_referees_violations(monkeypatch, nx,
                                                      ny_max):
    # no violation is known, so fail every search on a graph with
    # |Y| <= |X| + 1: a failing node can have failing children, and passing
    # stays inherited by children, as a real verdict is
    def failing(search):
        def forced(g, *k):
            if g.y_count <= g.x_count + 1:
                return CheckReport(search.__name__[3:], False,
                                   witness=g.x_full)
            return search(g, *k)
        return forced

    for module in (verifier, oracles):
        for name in ("is_k_cyclic", "is_super_cyclic"):
            monkeypatch.setattr(module, name, failing(getattr(module, name)))
    # a hit's dossier is tested on its own; here the hit and its witness do
    monkeypatch.setattr(verifier, "_hit_dossier", lambda g, witness: Violation(
        "counterexample", serialize_bigraph(g), str(witness)))
    cut = (nx, ny_max, 0, True)
    for k in range(3, nx + 1):
        got = _visited(cut, _k_cyclic_visitor(k))
        assert got == _refereed(cut, partial(eval_k_cyclic, k)), k
        assert any(v is not None for _, v in got)
    got = _visited(cut, _HUNT_VISITOR)
    assert got == _refereed(cut, eval_hunt_graph)
    assert any(v is not None for _, v in got)
    degree_cut = (nx, ny_max, nx, True)
    got = _visited(degree_cut, _DEGREE_VISITOR)
    assert got == _refereed(degree_cut, eval_degree)
    assert any(v is not None for _, v in got)


def test_inherited_nodes_are_not_searched(monkeypatch):
    # (4, <=6): 760 of the 1,444 walked nodes pass the condition, and 174 of
    # those have a parent that passed and is 4-cyclic
    searched = []
    search = verifier.is_k_cyclic
    monkeypatch.setattr(verifier, "is_k_cyclic",
                        lambda g, k: searched.append(g) or search(g, k))
    report = verify_k_cyclic(4, 6, 4)
    assert report.graphs_checked == 760 and len(searched) == 586
    assert len(set(searched)) == 586


class _Halt(Exception):
    pass


def _inheriting_position(spec, make_visitor):
    """The first position whose node inherits its parent's verdict."""
    inherits = []

    def recording(tree):
        visit = make_visitor(tree)

        def record(cols, x_adj, slack, state):
            inherits.append(bool(state))
            return visit(cols, x_adj, slack, state)
        return record

    _visited(spec, recording)
    return inherits.index(True)


@pytest.mark.parametrize("every", [1, 3, 500])
@pytest.mark.parametrize("claim", ["kcyclic", "hunt"])
def test_resumes_that_switch_jobs_are_byte_identical(monkeypatch, tmp_path,
                                                     claim, every):
    # (4, <=6): 1,444 positions in the cut stream, of 4,735 classes
    campaign, make_visitor = {
        "kcyclic": (partial(verify_k_cyclic, 4, 6, 4),
                    _k_cyclic_visitor(4)),
        "hunt": (partial(hunt_counterexample, HuntConfig(4, 6)),
                 _HUNT_VISITOR),
    }[claim]
    want = campaign().to_machine()
    stops = {1: [7, _inheriting_position((4, 6, 0, True), make_visitor)],
             3: [9, 603], 500: [500, 1000]}[every]
    save = verifier.save_checkpoint

    def halting_at(position):
        def halt(path, state):
            save(path, state)
            if state.examined == position:
                raise _Halt
        return halt

    for stop in stops:
        for first, then in ((1, 2), (2, 1)):
            cfg = CheckpointConfig(tmp_path / f"{stop}-{first}.ckpt", every)
            monkeypatch.setattr(verifier, "save_checkpoint", halting_at(stop))
            with pytest.raises(_Halt):
                campaign(jobs=first, checkpoint=cfg)
            monkeypatch.setattr(verifier, "save_checkpoint", save)
            assert f"examined={stop}\ncheck" in cfg.path.read_text()
            assert campaign(jobs=then, checkpoint=cfg).to_machine() == want
            assert "complete=1" in cfg.path.read_text()


def test_campaigns_are_worker_count_independent():
    solo = verify_k_cyclic(3, 4, 3).to_machine()
    duo = verify_k_cyclic(3, 4, 3, jobs=2).to_machine()
    assert solo == duo


@pytest.mark.parametrize("jobs", [0, -1])
def test_campaigns_refuse_jobs_below_one(jobs):
    with pytest.raises(InputError, match="jobs must be at least 1"):
        verify_k_cyclic(3, 3, 3, jobs=jobs)
    with pytest.raises(InputError, match="jobs must be at least 1"):
        hunt_counterexample(HuntConfig(4, 4, mode="random", trials=5),
                            jobs=jobs)


def test_checkpoint_resume_complete(tmp_path):
    path = tmp_path / "k33.ckpt"
    cfg = CheckpointConfig(str(path), every=25)
    first = verify_k_cyclic(3, 3, 3, checkpoint=cfg).to_machine()
    assert path.exists()
    # second run must short-circuit on the completed checkpoint
    resumed = verify_k_cyclic(3, 3, 3, checkpoint=cfg).to_machine()
    assert resumed == first == GOLDEN_333


def test_checkpoint_resume_partial(tmp_path):
    path = tmp_path / "partial.ckpt"
    key = "nx=3;ny_max=4;k=3;stream=condition"
    # fabricate the state a run would have after 30 graphs of the cut stream
    stream = list(enumerate_bigraphs(3, 4, condition=True))
    prefix_checked = sum(check_condition(g, "kim").passed
                         for g in stream[:30])
    save_checkpoint(str(path), CheckpointState(
        "verify-k-cyclic", key, 30, prefix_checked, False, ()))
    resumed = verify_k_cyclic(3, 4, 3,
                              checkpoint=CheckpointConfig(str(path)))
    assert resumed.to_machine() == verify_k_cyclic(3, 4, 3).to_machine()
    # and the file now records completion, at the cut stream's end
    state = load_checkpoint(str(path), "verify-k-cyclic", key)
    assert state.complete and state.examined == len(stream) == 46


class _Stop(Exception):
    pass


@pytest.mark.parametrize("every", [1, 3, 500])
@pytest.mark.parametrize("claim", ["degree", "kcyclic"])
def test_stopped_campaign_resumes_byte_identical(monkeypatch, tmp_path,
                                                 claim, every):
    # both walk a cut stream: 2,139 of 14,078 classes for the degree
    # campaign, 1,444 of 4,735 for the k-cyclic one
    campaign, stream_length = {
        "degree": (lambda cfg: verify_degree_theorem(4, 7, checkpoint=cfg),
                   2139),
        "kcyclic": (lambda cfg: verify_k_cyclic(4, 6, 3, checkpoint=cfg),
                    1444),
    }[claim]
    want = campaign(None).to_machine()
    make_visitor = verifier._condition_visitor

    def run(cfg, stop=None):
        calls = 0

        def counting(*args, **kwargs):
            visit = make_visitor(*args, **kwargs)

            def counted(*node):
                nonlocal calls
                calls += 1
                if calls == stop:
                    raise _Stop
                return visit(*node)
            return counted

        monkeypatch.setattr(verifier, "_condition_visitor", counting)
        try:
            return campaign(cfg).to_machine(), calls
        finally:
            monkeypatch.setattr(verifier, "_condition_visitor", make_visitor)

    for stop in (8, 1001):  # before and after the first save at every=500
        cfg = CheckpointConfig(tmp_path / f"{claim}{stop}.ckpt", every=every)
        with pytest.raises(_Stop):
            run(cfg, stop)
        position = (stop - 1) // every * every
        # written once before the first item, so it exists at position 0
        assert f"examined={position}\ncheck" in cfg.path.read_text()
        report, calls = run(cfg)
        assert report == want
        assert calls == stream_length - position


@pytest.mark.parametrize("claim", ["degree", "kcyclic"])
def test_progress_lines_say_what_they_count(tmp_path, claim):
    # both cut streams of (4, <=7) stand for 14,078 classes; the k-cyclic
    # one has 5,686 positions, so it prints a line at 4000 as well
    campaign, checked = {
        "degree": (partial(verify_degree_theorem, 4, 7), [176]),
        "kcyclic": (partial(verify_k_cyclic, 4, 7, 3), [1021, 2136]),
    }[claim]
    unit = " (positions in the cut stream; 14078 classes in all)"

    def stop(msg):
        raise _Stop

    cfg = CheckpointConfig(tmp_path / f"{claim}.ckpt", every=500)
    with pytest.raises(_Stop):  # at the first progress line, 2000
        campaign(checkpoint=cfg, progress=stop)
    lines = []
    campaign(checkpoint=cfg, progress=lines.append)
    assert lines == [f"resuming after 1500 graphs{unit}"] + [
        f"{2000 * i} examined{unit}, {n} checked, 0 violations"
        for i, n in enumerate(checked, 1)]


def test_complete_cut_checkpoint_reports_every_class(monkeypatch, tmp_path):
    cfg = CheckpointConfig(tmp_path / "degree.ckpt")
    first = verify_degree_theorem(4, 7, checkpoint=cfg)
    state = load_checkpoint(cfg.path, "verify-degree-theorem",
                            "nx=4;ny_max=7;stream=condition")
    assert state.complete
    assert state.examined == len(list(enumerate_bigraphs(4, 7, 4, True))) \
        == 2139

    def no_evaluation(*args):
        raise AssertionError("a complete checkpoint evaluated a class")

    # it walks the cut stream to its end, to know the count is the stream's;
    # the shards at depth 2 are walked in place, each by a walk of its own
    walked = []
    walk = verifier._walk

    def recording(*args, **kwargs):
        for r in walk(*args, **kwargs):
            if type(r) is not generators._Subtree:
                walked.append(r)
            yield r

    monkeypatch.setattr(verifier, "_condition_visitor",
                        lambda *args, **kwargs: no_evaluation)
    monkeypatch.setattr(verifier, "_walk", recording)
    again = verify_degree_theorem(4, 7, checkpoint=cfg)
    assert len(walked) == 2139
    assert again.graphs_examined == expected_class_count(4, 7) == 14078
    assert again.to_machine() == first.to_machine()


def test_checkpoint_bytes_frozen(tmp_path):
    path = tmp_path / "c.ckpt"
    state = CheckpointState(
        "hunt", "mode=random;nx=4", 12, 7, False,
        (("counterexample", "p bigraph 1 1\ne 1 1\n", "X{1,2,3}",
          "a\\b\nc"),))
    save_checkpoint(path, state)
    assert path.read_bytes() == (
        b"checkpoint=1\n"
        b"campaign=hunt\n"
        b"key=mode=random;nx=4\n"
        b"examined=12\n"
        b"checked=7\n"
        b"complete=0\n"
        b"violations=1\n"
        b"violation.0.check=counterexample\n"
        b"violation.0.graph=p bigraph 1 1\\ne 1 1\\n\n"
        b"violation.0.witness=X{1,2,3}\n"
        b"violation.0.extra=a\\\\b\\nc\n")
    assert load_checkpoint(path, "hunt", "mode=random;nx=4") == state


def test_checkpoint_refuses_mismatched_parameters(tmp_path):
    path = tmp_path / "other.ckpt"
    cfg = CheckpointConfig(str(path))
    verify_k_cyclic(3, 3, 3, checkpoint=cfg)
    with pytest.raises(InputError):
        verify_k_cyclic(3, 4, 3, checkpoint=cfg)
    with pytest.raises(InputError):
        verify_degree_theorem(3, 3, checkpoint=cfg)


def test_checkpoint_missing_file_is_fresh_start(tmp_path):
    assert load_checkpoint(str(tmp_path / "absent.ckpt"), "hunt", "k") is None


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(InputError):
        load_checkpoint(str(path), "hunt", "k")


KCYCLIC_333_CHECKPOINT = ("checkpoint=1\ncampaign=verify-k-cyclic\n"
                          "key=nx=3;ny_max=3;k=3;stream=condition\n"
                          "examined=2\nchecked=0\ncomplete=0\n"
                          "violations=0\n")


@pytest.mark.parametrize("extra, why", [
    ("examined=0", "repeats its examined= line"),
    ("complete=0", "repeats its complete= line"),
    ("key=nx=3;ny_max=3;k=3;stream=condition", "repeats its key= line"),
], ids=["examined", "complete", "key"])
def test_checkpoint_refuses_a_repeated_field(tmp_path, extra, why):
    path = tmp_path / "twice.ckpt"
    path.write_text(KCYCLIC_333_CHECKPOINT + extra + "\n")
    with pytest.raises(InputError, match=why):
        load_checkpoint(path, "verify-k-cyclic",
                        "nx=3;ny_max=3;k=3;stream=condition")


@pytest.mark.parametrize("complete", ["yes", "2", "", None],
                         ids=["yes", "2", "empty", "missing"])
def test_checkpoint_refuses_complete_other_than_0_or_1(tmp_path, complete):
    lines = KCYCLIC_333_CHECKPOINT.replace("complete=0\n", "")
    if complete is not None:
        lines += f"complete={complete}\n"
    path = tmp_path / "bad.ckpt"
    path.write_text(lines)
    with pytest.raises(InputError, match="complete"):
        load_checkpoint(path, "verify-k-cyclic",
                        "nx=3;ny_max=3;k=3;stream=condition")


def test_malformed_checkpoint_exits_2_and_is_left_alone(tmp_path, capsys):
    # the file once resumed and exited 0: the last examined= and a
    # complete=yes read as incomplete were taken as it stood
    path = tmp_path / "run.ckpt"
    text = (KCYCLIC_333_CHECKPOINT.replace("complete=0\n", "")
            + "examined=0\ncomplete=yes\n")
    path.write_text(text)
    code = cli.main(["verify", "kcyclic", "--nx", "3", "--ny-max", "3",
                     "--k", "3", "--checkpoint", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error:")
    assert path.read_text() == text


def test_hunt_exhaustive_confirms_at_desk_scale():
    rep = hunt_counterexample(HuntConfig(3, 4))
    assert rep.confirmed and rep.graphs_examined == 141


def test_hunt_random_is_seed_deterministic():
    cfg = HuntConfig(5, 6, mode="random", seed=11, trials=40)
    a = hunt_counterexample(cfg)
    b = hunt_counterexample(cfg)
    c = hunt_counterexample(cfg, jobs=2)
    assert a.to_machine() == b.to_machine() == c.to_machine()
    assert a.graphs_examined == 40  # one exam per trial
    assert a.graphs_checked == 21   # trials whose repair reached deficiency 0
    assert a.confirmed
    shifted = hunt_counterexample(HuntConfig(5, 6, mode="random", seed=12,
                                             trials=40))
    assert shifted.to_machine() != a.to_machine()


@pytest.mark.parametrize("nx,ny_max,seed,trials,checked,digest", [
    (4, 5, 3, 60, 40, "b42eee21640347e0"),
    (5, 7, 29, 50, 32, "4eded4c124ee5c0a"),
    (6, 8, 101, 30, 13, "2b9e61522a3f8562"),
])
def test_hunt_random_graphs_checked_frozen(monkeypatch, nx, ny_max, seed,
                                           trials, checked, digest):
    # the count only says how many repairs reached the condition; the digest
    # of the repaired graphs also pins every seeded choice on the way,
    # including the order of the repair's candidate ys
    seen = []
    evaluate = verifier._hunt_verdict

    def record(g):
        seen.append(serialize_bigraph(g))
        return evaluate(g)

    monkeypatch.setattr(verifier, "_hunt_verdict", record)
    rep = hunt_counterexample(HuntConfig(nx, ny_max, mode="random",
                                         seed=seed, trials=trials))
    assert rep.confirmed
    assert (rep.graphs_examined, rep.graphs_checked) == (trials, checked)
    assert len(seen) == checked
    assert sha256("".join(seen).encode()).hexdigest()[:16] == digest


@given(bigraphs(min_x=3, max_x=7, max_y=8))
@settings(max_examples=400, deadline=None)
def test_repair_always_has_an_edge_to_change(g):
    # why _repair_to_boundary needs no fallback when it picks an edge; it
    # tells the failed clause from the cover of the scan's witness
    kind, amask = condition._first_failure(g.x_count, g.y_adj, [])
    if not kind:
        # the first triple has |N^| >= 3, so there is an edge to delete
        assert g.edge_count > 0
        return
    a = indices_of(amask)
    once, twice = _cover(g.x_adj, a)
    assert (twice.bit_count() < len(a)) == (kind == "size")
    if kind == "size":
        # each candidate y sees at most one member of A, and |A| >= 3
        cands = indices_of(once & ~twice) or \
            indices_of(full_mask(g.y_count) & ~once)
        for j in cands:
            assert sum(not g.has_edge(x, j) for x in a) >= 2
    else:
        # the witness is a triple with |N^| >= 3; if its xs saw all of N^,
        # it would span K(3, t), which is 2-connected
        assert len(a) == 3
        assert any(not g.has_edge(x, j) for x in a
                   for j in indices_of(twice))


def test_repair_matches_whole_graph_referee():
    # the mask-level repair, retallying its kept counts per toggled edge,
    # against the repair that checks each whole graph afresh:
    # the same graph and the same generator state after every trial
    outcomes = Counter()
    for nx in range(3, 9):
        for ny_max in range(3, 11):
            for t in range(64):
                seed = 1000 * (10 * nx + ny_max) + t
                rng = random.Random(seed)
                ny = rng.randint(3, ny_max)
                g = random_bigraph(nx, ny, rng.randint(0, min(3, ny)),
                                   rng.randrange(1 << 30))
                want_rng, got_rng = random.Random(seed), random.Random(seed)
                want = oracles.repair_to_boundary_reference(g, want_rng)
                got = verifier._repair_to_boundary(g, got_rng)
                assert got == want, (nx, ny_max, t)
                assert got is None or got.y_adj == want.y_adj
                assert got_rng.getstate() == want_rng.getstate()
                outcomes[got is None] += 1
    assert sum(outcomes.values()) == 3072 and outcomes[True] and \
        outcomes[False]


def test_hunt_config_validation():
    with pytest.raises(InputError):
        HuntConfig(3, 4, mode="thorough")
    with pytest.raises(InputError):
        HuntConfig(3, 4, mode="random", trials=0)
    # random_bigraph's 0..64 cap, refused before any trial runs
    for nx, ny_max in ((65, 4), (3, 65), (-1, 4), (3, -1)):
        with pytest.raises(InputError, match="0..64"):
            HuntConfig(nx, ny_max, mode="random", trials=1)
    HuntConfig(64, 64, mode="random", trials=1)
    for mode, trials in (("random", 1), ("exhaustive", 0)):
        with pytest.raises(InputError, match="min_x_degree"):
            HuntConfig(3, 4, mode=mode, trials=trials, min_x_degree=-1)


def test_audit_is_vacuous_off_critical_graphs():
    for g in (complete_bipartite(3, 3), construct_g3(1, 1, 1, 3)):
        rep = audit_critical_properties(g)
        assert rep.confirmed
        assert rep.graphs_examined == 1 and rep.graphs_checked == 0
        assert rep.notes and rep.notes[0].startswith("vacuous: not critical")


def test_report_text_rendering():
    rep = VerificationReport(
        campaign="demo", parameters=(("nx", "3"),), graphs_examined=5,
        graphs_checked=2,
        violations=(Violation("sample", "p bigraph 1 1\ne 1 1\n", "X{1}",
                              extra="because"),),
        deterministic=True, elapsed_seconds=0.5)
    text = rep.to_text()
    assert "result: REFUTED" in text
    assert "  [0] sample: witness X{1}" in text
    assert "      p bigraph 1 1" in text
    assert "      | because" in text
    machine = rep.to_machine()
    assert "violation.0.graph=p bigraph 1 1\\ne 1 1\\n" in machine
    assert "result=refuted" in machine
    assert "\nelapsed" not in machine  # timing never enters the stable form


@given(st.text())
def test_escape_roundtrip(s):
    assert unescape_value(escape_value(s)) == s
    assert "\n" not in escape_value(s)


def test_machine_lines_shape():
    assert machine_lines([("a", "1"), ("b", "x\ny")]) == "a=1\nb=x\\ny\n"
