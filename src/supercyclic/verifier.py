"""Verification campaigns: exhaustive theorem reproduction at desk scale,
the counterexample hunt, and the lemma audit for candidate critical graphs.

Reports are deterministic: the machine serialization excludes timing and
worker counts, campaigns consume the enumeration stream in its canonical
order, and random hunts seed each trial as seed + trial index, so the same
parameters always produce byte-identical machine reports, with any number
of workers.

The lemma audit and the serialization of a violation import ``classify``,
``structure`` and ``formats`` where they run, never on a per-node or
per-trial path, so a campaign that finds nothing never loads them.
"""

from __future__ import annotations

import random
import time
from functools import partial
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .bigraph import (MAX_SIDE, Bigraph, VertexSet, SIDE_X, SIDE_Y,
                      is_two_connected, reduce_to_superneighborhood, _cover)
from .bitset import full_mask, indices_of, iter_bits, mask_of
from .condition import (_first_failure, _retally, _thresholds,
                        check_condition, min_deficiency)
from .cycles import BaseCycle, find_based_cycle, is_k_cyclic, is_super_cyclic
from .errors import InputError, SupercyclicError
from .generators import (_Subtree, _Tree, _graph, _passes_condition, _tree,
                         _walk, expected_class_count, random_bigraph)
from .reports import machine_lines
from .verifier_checkpoint import (CheckpointConfig, CheckpointState,
                                  load_checkpoint, save_checkpoint)

Progress = Callable[[str], None]


class Violation(NamedTuple):
    """One graph that refutes the claim a campaign tests."""

    check: str
    graph_text: str
    witness: str
    extra: str = ""


class VerificationReport(NamedTuple):
    campaign: str
    parameters: tuple[tuple[str, str], ...]
    graphs_examined: int
    graphs_checked: int
    violations: tuple[Violation, ...]
    deterministic: bool
    elapsed_seconds: float
    notes: tuple[str, ...] = ()

    @property
    def confirmed(self) -> bool:
        return not self.violations

    def to_machine(self) -> str:
        """Stable serialization: excludes timing so reruns compare equal."""
        pairs = [("report", self.campaign)]
        pairs.extend((f"param.{k}", v) for k, v in self.parameters)
        pairs.append(("graphs_examined", str(self.graphs_examined)))
        pairs.append(("graphs_checked", str(self.graphs_checked)))
        pairs.append(("deterministic", str(self.deterministic).lower()))
        pairs.append(("violations", str(len(self.violations))))
        for i, v in enumerate(self.violations):
            pairs.append((f"violation.{i}.check", v.check))
            pairs.append((f"violation.{i}.witness", v.witness))
            pairs.append((f"violation.{i}.graph", v.graph_text))
            if v.extra:
                pairs.append((f"violation.{i}.extra", v.extra))
        for i, n in enumerate(self.notes):
            pairs.append((f"note.{i}", n))
        pairs.append(("result", "confirmed" if self.confirmed else "refuted"))
        return machine_lines(pairs)

    def to_text(self) -> str:
        lines = [f"campaign: {self.campaign}"]
        lines.append("parameters: " +
                     " ".join(f"{k}={v}" for k, v in self.parameters))
        lines.append(f"graphs examined: {self.graphs_examined}")
        lines.append(f"graphs checked (hypotheses held): {self.graphs_checked}")
        lines.append(f"violations: {len(self.violations)}")
        for i, v in enumerate(self.violations):
            lines.append(f"  [{i}] {v.check}: witness {v.witness}")
            for gl in v.graph_text.strip().split("\n"):
                lines.append(f"      {gl}")
            if v.extra:
                for el in v.extra.strip().split("\n"):
                    lines.append(f"      | {el}")
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append(f"result: {'CONFIRMED' if self.confirmed else 'REFUTED'}")
        lines.append(f"elapsed: {self.elapsed_seconds:.2f} s")
        return "\n".join(lines) + "\n"


class HuntConfig:
    """Parameters of a counterexample hunt.

    Exhaustive mode walks the canonical enumeration (generator caps apply),
    cut at every node below which every class fails the neighborhood
    condition.
    Random mode runs ``trials`` independent seeded attempts: a random graph
    with the requested minimum X-degree is pushed toward the boundary of
    the neighborhood condition (deficiency 0) by local edge repairs, then
    tested.  Trial i uses seed + i, so reports do not depend on --jobs.
    """

    __slots__ = ("nx", "ny_max", "mode", "seed", "trials", "min_x_degree")

    def __init__(self, nx: int, ny_max: int, mode: str = "exhaustive",
                 seed: int = 0, trials: int = 0, min_x_degree: int = 2) -> None:
        if mode not in ("exhaustive", "random"):
            raise InputError(f"hunt mode must be exhaustive or random, "
                             f"got {mode!r}")
        if mode == "random" and trials < 1:
            raise InputError("random mode needs trials >= 1")
        # a trial draws |Y| up to ny_max, so refuse here what
        # random_bigraph would refuse only inside a trial
        if mode == "random" and not (0 <= nx <= MAX_SIDE
                                     and 0 <= ny_max <= MAX_SIDE):
            raise InputError(f"random mode needs nx and ny_max in "
                             f"0..{MAX_SIDE}, got ({nx}, {ny_max})")
        if min_x_degree < 0:
            raise InputError(f"min_x_degree must be >= 0, got {min_x_degree}")
        self.nx, self.ny_max, self.mode = nx, ny_max, mode
        self.seed, self.trials, self.min_x_degree = seed, trials, min_x_degree

    def parameters(self) -> tuple[tuple[str, str], ...]:
        out = [("mode", self.mode), ("nx", str(self.nx)),
               ("ny_max", str(self.ny_max))]
        if self.mode == "random":
            out += [("seed", str(self.seed)), ("trials", str(self.trials)),
                    ("min_x_degree", str(self.min_x_degree))]
        return tuple(out)


# -- campaign drivers --------------------------------------------------------

def verify_k_cyclic(nx: int, ny_max: int, k: int, *, jobs: int = 1,
                    checkpoint: CheckpointConfig | None = None,
                    progress: Progress | None = None) -> VerificationReport:
    """Every enumerated condition-satisfying graph must be k-cyclic.

    The walk cuts every subtree whose classes all fail the condition, and
    evaluates only the rest.  The report still counts all
    ``expected_class_count(nx, ny_max)`` classes: those cut fail the
    hypothesis by proof.  A checkpoint holds the position in the cut
    stream.
    """
    if not 3 <= k <= nx:
        raise InputError(f"need 3 <= k <= nx, got k={k}, nx={nx}")
    params = (("nx", str(nx)), ("ny_max", str(ny_max)), ("k", str(k)))
    return _drive("verify-k-cyclic", params,
                  partial(_node_results, (nx, ny_max, 0, True),
                          partial(_condition_visitor,
                                  partial(_k_cyclic_verdict, k))),
                  jobs=jobs, checkpoint=checkpoint, progress=progress,
                  length=expected_class_count(nx, ny_max), cut=True)


def verify_degree_theorem(nx: int, ny_max: int, *, jobs: int = 1,
                          checkpoint: CheckpointConfig | None = None,
                          progress: Progress | None = None) -> VerificationReport:
    """Condition plus the quarter degree bound must force super-cyclicity.

    The bound needs every X-degree >= nx, so the walk of ``verify_k_cyclic``
    also cuts every class with a smaller X-degree, and evaluates only the
    rest.  The report still counts all ``expected_class_count(nx, ny_max)``
    classes: those cut fail the bound by their degree alone, or the
    condition by proof.  A checkpoint holds the position in the cut stream.
    """
    params = (("nx", str(nx)), ("ny_max", str(ny_max)))
    return _drive("verify-degree-theorem", params,
                  partial(_node_results, (nx, ny_max, nx, True),
                          partial(_condition_visitor, _degree_verdict,
                                  quarter_bound=True)),
                  jobs=jobs, checkpoint=checkpoint, progress=progress,
                  length=expected_class_count(nx, ny_max), cut=True)


def hunt_counterexample(config: HuntConfig, *, jobs: int = 1,
                        checkpoint: CheckpointConfig | None = None,
                        progress: Progress | None = None) -> VerificationReport:
    """Search for a condition-satisfying graph that is not super-cyclic.

    A hit is a finding, not an error: the report carries the graph, the
    failing base, the extracted critical core, and labeled audits of the
    hit graph, its degree-reduced form, and the core.  The exhaustive
    mode walks the cut stream of ``verify_k_cyclic``.
    """
    if config.mode == "exhaustive":
        return _drive("hunt", config.parameters(),
                      partial(_node_results,
                              (config.nx, config.ny_max, 0, True),
                              partial(_condition_visitor, _hunt_verdict)),
                      jobs=jobs, checkpoint=checkpoint, progress=progress,
                      length=expected_class_count(config.nx, config.ny_max),
                      cut=True)
    return _drive("hunt", config.parameters(), partial(_trial_results, config),
                  jobs=jobs, checkpoint=checkpoint, progress=progress,
                  length=config.trials)


def _drive(campaign: str, parameters: tuple[tuple[str, str], ...],
           results: Callable[[int, int], Iterator[tuple[bool,
                                                        Violation | None]]],
           *, jobs: int, checkpoint: CheckpointConfig | None,
           progress: Progress | None, length: int,
           cut: bool = False) -> VerificationReport:
    """Evaluate the stream in order and count what it examined.

    ``results(skip, jobs)`` gives the stream, one (checked, violation) per
    position; it walks its first ``skip`` positions without evaluating
    them and reads them as unchecked.  ``length`` is what the stream stands
    for: the Burnside count of the classes of an enumerated stream, or the
    trials of a random hunt.  An
    uncut stream must yield exactly that many.  A ``cut`` stream, the
    condition-cut walk of every enumerated campaign, yields at most that
    many, and the report gives ``length`` as examined.  Any other count is
    a fault of the walk and raises RuntimeError, which the CLI reports as
    an internal error.  The checkpoints and progress lines of a cut stream
    count its positions, and ``;stream=condition`` ends its checkpoint key,
    so that no checkpoint of another stream resumes it.

    A checkpoint is written once before the first item, so that a path that
    cannot be written fails the campaign before any work is done.  A
    checkpoint whose counts the stream cannot hold is refused before then:
    resuming walks the stream up to the checkpoint's position, evaluating
    nothing, and a complete checkpoint walks it to the end.
    """
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    key = ";".join(f"{k}={v}" for k, v in parameters)
    unit = ""
    if cut:
        key += ";stream=condition"
        unit = f" (positions in the cut stream; {length} classes in all)"
    examined = 0
    checked = 0
    violations: list[Violation] = []

    def assemble() -> VerificationReport:
        return VerificationReport(
            campaign=campaign, parameters=tuple(parameters),
            graphs_examined=length if cut else examined,
            graphs_checked=checked, violations=tuple(violations),
            deterministic=True, elapsed_seconds=time.perf_counter() - start)

    items = None
    if checkpoint is not None:
        state = load_checkpoint(checkpoint.path, campaign, key)
        if state is not None:
            # a complete one probes one position past its own, unevaluated
            items = results(state.examined + state.complete, jobs)
            _refuse_impossible(checkpoint, state, length, cut, items)
            examined, checked = state.examined, state.checked
            violations = [Violation(*v) for v in state.violations]
            if state.complete:
                return assemble()
            if progress:
                progress(f"resuming after {examined} graphs{unit}")

    def save(complete: bool) -> None:
        save_checkpoint(checkpoint.path, CheckpointState(
            campaign, key, examined, checked, complete, tuple(violations)))

    if checkpoint is not None:
        save(False)

    def consume(results: Iterable[tuple[bool, Violation | None]]) -> None:
        nonlocal examined, checked
        for was_checked, viol in results:
            examined += 1
            if was_checked:
                checked += 1
            if viol is not None:
                violations.append(viol)
            if progress and examined % 2000 == 0:
                progress(f"{examined} examined{unit}, {checked} checked, "
                         f"{len(violations)} violations")
            if checkpoint is not None and examined % checkpoint.every == 0:
                save(False)

    if items is None:
        items = results(0, jobs)
    try:
        consume(items)
    finally:
        items.close()  # stops the workers of an unfinished stream
    if examined > length or not cut and examined != length:
        raise RuntimeError(f"the stream yielded {examined} items, but it "
                           f"stands for {length}")
    if checkpoint is not None:
        save(True)
    return assemble()


def _refuse_impossible(checkpoint: CheckpointConfig, state: CheckpointState,
                       length: int, cut: bool, items: Iterator) -> None:
    """Raise InputError when a checkpoint's counts cannot come from a run
    of a stream that stands for ``length`` items; a cut stream yields at
    most that many, and only ``items`` tells how many.  Once the counts are
    plausible, skip the ``examined`` items the checkpoint has done."""
    examined, checked = state.examined, state.checked
    if examined > length:
        why = f"examined={examined} exceeds the {length} items of the stream"
    elif state.complete and not cut and examined != length:
        why = (f"it is complete at examined={examined}, but the stream has "
               f"{length} items")
    elif checked > examined:
        why = f"checked={checked} exceeds examined={examined}"
    elif len(state.violations) > checked:
        why = (f"its {len(state.violations)} violations exceed "
               f"checked={checked}")
    elif (skipped := sum(1 for _ in islice(items, examined))) < examined:
        why = f"examined={examined} is past the {skipped} items of the stream"
    elif state.complete and next(items, None) is not None:
        why = (f"it is complete at examined={examined}, but the stream goes "
               f"on")
    else:
        return
    raise InputError(f"checkpoint {checkpoint.path}: {why}; "
                     f"refusing to resume")


# -- the streams: trials, and node visitors over the orderly walk -----------

#: the result of a position that holds no violation
_CHECKED = (True, None)
_UNCHECKED = (False, None)


def _trial_results(config: HuntConfig, skip: int, jobs: int
                   ) -> Iterator[tuple[bool, Violation | None]]:
    """The random hunt's stream: one seeded trial per position."""
    skip = min(skip, config.trials)
    yield from repeat(_UNCHECKED, skip)
    trial = partial(_hunt_trial, config)
    todo = range(skip, config.trials)
    if jobs > 1 and todo:
        yield from _worker_map(trial, todo, jobs, chunksize=16)
    else:
        yield from map(trial, todo)


def _worker_map(fn: Callable, items: Iterable, jobs: int,
                chunksize: int = 1) -> Iterator:
    """``map(fn, items)`` in ``jobs`` workers, at most one per CPU, started
    afresh, not forked (a forked child copies whatever threads and locks
    the caller holds).  A worker that dies raises ``BrokenProcessPool``, a
    RuntimeError, and closing the stream cancels the items not started.
    Imported here, so that ``--jobs 1`` never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    from os import cpu_count
    pool = ProcessPoolExecutor(min(jobs, cpu_count() or 1),
                               mp_context=get_context("spawn"))
    try:
        yield from pool.map(fn, items, chunksize=chunksize)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _node_results(spec: tuple[int, int, int, bool],
                  make_visitor: Callable[[_Tree], Callable], skip: int,
                  jobs: int) -> Iterator[tuple[bool, Violation | None]]:
    """An enumerated campaign's stream: the walk ``generators._tree(*spec)``
    with the visitor ``make_visitor(tree)`` at each node, in preorder.

    The first ``skip`` nodes are walked but not visited; each gets the state
    None, so that nothing is inherited from a node that was not evaluated.
    This process visits the nodes above depth 2, and each subtree at depth
    2 is one shard with its parent's state, as geng splits its tree (McKay
    and Piperno, J. Symbolic Comput. 60, 2014).  A shard is walked here, in
    place, with ``jobs`` = 1 or when the skipped nodes reach into it; the
    rest go to ``jobs`` workers and come back in order, so the stream is
    the same.
    """
    tree = _tree(*spec)
    if tree is None:
        return
    visit = make_visitor(tree)
    todo = skip

    def counted(cols, x_adj, slack, state):
        nonlocal todo
        if todo:
            todo -= 1
            return None, _UNCHECKED
        return visit(cols, x_adj, slack, state)

    top = _walk(tree, counted, split=2)
    for item in top:
        if type(item) is not _Subtree:
            yield item
        elif todo or jobs == 1:
            yield from _walk(tree, counted if todo else visit, item)
        else:
            break
    else:
        return
    shards = _worker_map(partial(_shard, spec, make_visitor), [item, *top],
                         jobs)
    try:
        for shard in shards:
            yield from shard
    finally:
        shards.close()


def _shard(spec: tuple[int, int, int, bool],
           make_visitor: Callable[[_Tree], Callable],
           item: _Subtree | tuple[bool, Violation | None]
           ) -> list[tuple[bool, Violation | None]]:
    """The results of a subtree; a node visited above the shards is its
    own result."""
    if type(item) is not _Subtree:
        return [item]
    tree = _tree(*spec)
    return list(_walk(tree, make_visitor(tree), item))


# The visitor's state is whether its node passed the condition and was
# certified (generators docstring: a child of such a node is too).  The
# searches are called by their module names here, so a tracer sees them.
# The factory and verdicts are module level, so a shard names them to a worker.

def _condition_visitor(verdict: Callable[[Bigraph], tuple[bool,
                                                          Violation | None]],
                       tree: _Tree, quarter_bound: bool = False) -> Callable:
    """A visitor for a campaign whose hypothesis holds the condition:
    ``verdict`` decides each node that passes it and inherits no pass.
    The degree theorem's ``quarter_bound`` is not inherited (|Y| grows), so
    it is tested first at every node, and one that fails it passes its
    parent's state on."""
    nx = tree.nx

    def visit(cols, x_adj, slack, certified):
        m = len(cols)
        if quarter_bound:
            degree = min(map(int.bit_count, x_adj[1:]), default=0)
            if not _thresholds(nx, m, degree).meets_quarter_bound:
                return certified, _UNCHECKED
        if certified:
            return True, _CHECKED
        if not _passes_condition(tree, m, x_adj, slack):
            return False, _UNCHECKED
        result = verdict(_graph(cols, x_adj))
        return result[1] is None, result
    return visit


def _degree_verdict(g: Bigraph) -> tuple[bool, Violation | None]:
    """Verdict on a graph known to meet the degree theorem's hypothesis."""
    rep = is_super_cyclic(g)
    if rep.passed:
        return True, None
    from .formats import serialize_bigraph
    return True, Violation("degree_theorem", serialize_bigraph(g),
                           str(rep.witness))


def _k_cyclic_verdict(k: int, g: Bigraph) -> tuple[bool, Violation | None]:
    """Verdict on a graph known to satisfy the condition."""
    rep = is_k_cyclic(g, k)
    if rep.passed:
        return True, None
    from .formats import serialize_bigraph
    return True, Violation("k_cyclic", serialize_bigraph(g), str(rep.witness))


def _hunt_verdict(g: Bigraph) -> tuple[bool, Violation | None]:
    """Verdict on a graph known to satisfy the condition."""
    sc = is_super_cyclic(g)
    if sc.passed:
        return True, None
    return True, _hit_dossier(g, sc.witness)


def _hunt_trial(config: HuntConfig, i: int) -> tuple[bool, Violation | None]:
    rng = random.Random(config.seed + i)
    ny = rng.randint(min(3, config.ny_max), config.ny_max) if config.ny_max \
        else 0
    g = random_bigraph(config.nx, ny, min(config.min_x_degree, ny),
                       rng.randrange(1 << 30))
    g = _repair_to_boundary(g, rng)
    if g is None:
        return False, None
    return _hunt_verdict(g)


def _repair_to_boundary(g: Bigraph, rng: random.Random) -> Bigraph | None:
    """Nudge a random graph onto the condition's boundary (deficiency 0).

    Alternates between repairing a failed clause by adding one helpful edge
    and thinning a comfortably-passing graph by deleting one edge.  Bounded;
    returns None or the last graph that passed the condition, which is why
    the trial does not check it again.

    The drawn graph is checked by ``check_condition``, each later one by
    ``condition._first_failure`` on the edited adjacency masks, with the
    packed counts of the levels it has scanned kept in ``tallies``
    (``condition`` docstring).  Toggling the edge (x, y) changes only the
    column of y, so ``_retally`` adds served(new) - served(old) to each
    level's counts, and a rescan tests O(levels) ints with no walk.  Only a
    graph that passes is built, for ``min_deficiency``.  The benchmark's
    tracer sees ``check_condition`` and ``min_deficiency`` but not the
    rescans.
    """
    nx, ny = g.x_count, g.y_count
    if nx < 3:
        return None
    rep = check_condition(g, "kim")
    witness = rep.size_witness or rep.connectivity_witness
    amask = witness.mask if witness else 0
    x_adj, y_adj = list(g.x_adj), list(g.y_adj)
    tallies: list[list] = []
    last_good = None
    for _ in range(4 * nx * max(1, ny)):
        if not amask:
            g = Bigraph._of_masks(tuple(x_adj), tuple(y_adj))
            if min_deficiency(g)[0] == 0:
                return g
            last_good = g
            edges = [(x, y) for x in range(1, nx + 1)
                     for y in iter_bits(x_adj[x])]
            heavy = [(x, y) for x, y in edges
                     if x_adj[x].bit_count() > 2 and y_adj[y].bit_count() > 2]
            # never empty: the first triple passed, so |N^| >= 3 gives edges
            pool = heavy or edges
            x, y = pool[rng.randrange(len(pool))]
        else:
            members = indices_of(amask)
            once, twice = _cover(x_adj, members)
            if twice.bit_count() < len(members):
                cands = indices_of(once & ~twice) or \
                    indices_of(full_mask(ny) & ~once)
                if not cands:
                    break
                y = cands[rng.randrange(len(cands))]
                # never empty: y sees at most one member of A, and |A| >= 3
                missing = [x for x in members if not y_adj[y] >> x & 1]
                x = missing[rng.randrange(len(missing))]
            else:
                # never empty: else A spans K(3, |N^|), 2-connected as
                # |N^| >= 3
                pairs = [(x, y) for x in members
                         for y in iter_bits(twice & ~x_adj[x])]
                x, y = pairs[rng.randrange(len(pairs))]
        x_adj[x] ^= 1 << y
        old = y_adj[y]
        y_adj[y] ^= 1 << x
        _retally(tallies, old, y_adj[y])
        _, amask = _first_failure(nx, y_adj, tallies)
    return last_good


def _hit_dossier(g: Bigraph, witness: VertexSet) -> Violation:
    """Full workup of a hunt hit: core extraction plus labeled audits."""
    from .classify import find_critical_core
    from .formats import serialize_bigraph
    sections = []
    try:
        core = find_critical_core(g)
        assert core is not None
        sections.append("core graph:\n" + serialize_bigraph(core))
        sections.append("audit[core]:\n" +
                        audit_critical_properties(core).to_machine())
    except SupercyclicError as exc:
        sections.append(f"core extraction inconsistency: {exc}")
    # which graph the audit morally applies to is ambiguous, so label both
    # the hit graph and its reduced form alongside the core
    sections.append("audit[hit graph]:\n" +
                    audit_critical_properties(g).to_machine())
    reduced = reduce_to_superneighborhood(g).graph
    if reduced != g:
        sections.append("audit[reduced hit graph]:\n" +
                        audit_critical_properties(reduced).to_machine())
    return Violation("counterexample", serialize_bigraph(g), str(witness),
                     extra="\n".join(sections))


# -- the lemma audit ---------------------------------------------------------

def audit_critical_properties(g: Bigraph) -> VerificationReport:
    """Check every structural consequence of criticality against ``g``.

    Vacuous (checked = 0) when the graph is not critical.  Otherwise each
    conclusion below must hold, gated on its hypotheses; a violation means
    either a classification bug or a genuine mathematical finding, and the
    report says exactly which conclusion broke.
    """
    from .classify import (YMIN_EDGE_CAP, is_critical, is_saturated,
                           is_y_minimal)
    from .formats import serialize_bigraph
    from .structure import max_fan
    start = time.perf_counter()
    params = (("x_count", str(g.x_count)), ("y_count", str(g.y_count)),
              ("edge_count", str(g.edge_count)))
    crit = is_critical(g)
    if not crit.passed:
        return VerificationReport(
            "audit-critical", params, 1, 0, (), True,
            time.perf_counter() - start,
            notes=(f"vacuous: not critical ({crit.detail})",))

    gtxt = serialize_bigraph(g)
    violations: list[Violation] = []

    def viol(check: str, witness: str) -> None:
        violations.append(Violation(check, gtxt, witness))

    sat = is_saturated(g)
    ym = is_y_minimal(g, "exhaustive" if g.edge_count <= YMIN_EDGE_CAP
                      else "one_deletion")
    notes = [f"gate saturated: {str(sat.passed).lower()}",
             f"gate y_minimal: {str(ym.passed).lower()}"
             + (" (one-deletion scan only)" if ym.approximate else "")]

    nx = g.x_count
    full_x = full_mask(nx)

    # consequences of the condition alone
    for x1 in g.x_indices():
        for x2 in range(x1 + 1, nx + 1):
            if not g.x_adj[x1] & g.x_adj[x2]:
                viol("pairwise_common_neighbor", f"x{x1},x{x2}")
    if not is_two_connected(g):
        viol("two_connected", "whole graph")

    # consequences of criticality, relative to a cycle based on X minus x0
    cycles: dict[int, BaseCycle] = {}
    for x0 in g.x_indices():
        if nx - 1 < 3:
            break
        a = VertexSet(SIDE_X, full_x & ~(1 << x0))
        c = find_based_cycle(g, a)
        if c is None:
            viol("proper_restriction_cycle", f"no cycle based on {a}")
            continue
        cycles[x0] = c
        _audit_detours(g, x0, c, viol)
        fan = max_fan(g, x0, c)
        if fan.size > c.half_length - 2:
            viol("fan_contact_bound",
                 f"x{x0}: fan size {fan.size} > {c.half_length - 2}")

    if sat.passed:
        for j in g.y_indices():
            dj = g.degree(SIDE_Y, j)
            if dj == nx - 1:
                viol("y_degree_not_x_minus_1", f"y{j}")
            if dj == nx - 2:
                viol("y_degree_not_x_minus_2", f"y{j}")
        deg2 = [x for x in g.x_indices() if g.degree(SIDE_X, x) == 2]
        if len(deg2) > 1:
            viol("degree_two_x_unique",
                 ",".join(f"x{x}" for x in deg2))
        for x in deg2:
            for j in iter_bits(g.x_adj[x]):
                if g.y_adj[j] != full_x:
                    viol("degree_two_x_neighbors_complete",
                         f"x{x}: y{j} misses part of X")
            for other in g.x_indices():
                if other != x and g.degree(SIDE_X, other) < 4:
                    viol("degree_two_x_forces_degree_four",
                         f"x{x} has degree 2 but x{other} has degree "
                         f"{g.degree(SIDE_X, other)}")
        if nx == 6 and max(g.degree(SIDE_X, x) for x in g.x_indices()) < 4:
            viol("x_max_degree_at_least_4", "all X-degrees <= 3")

    if sat.passed and ym.passed:
        deg2y = [j for j in g.y_indices() if g.degree(SIDE_Y, j) == 2]
        for i, j1 in enumerate(deg2y):
            for j2 in deg2y[i + 1:]:
                if g.y_adj[j1] == g.y_adj[j2]:
                    viol("degree_two_y_neighborhoods_distinct",
                         f"y{j1},y{j2}")
        for x0, c in cycles.items():
            nonneighbors = sum(1 for y in c.ys if not g.has_edge(x0, y))
            if nonneighbors < 2:
                viol("offcycle_x_two_cycle_nonneighbors",
                     f"x{x0}: only {nonneighbors} non-neighbors on the "
                     f"cycle based on X-{{x{x0}}}")

    return VerificationReport(
        "audit-critical", params, 1, 1, tuple(violations), True,
        time.perf_counter() - start, notes=tuple(notes))


def _audit_detours(g: Bigraph, x0: int, c: BaseCycle,
                   viol: Callable[[str, str], None]) -> None:
    """Shared-neighbor exclusions around a cycle based on X minus x0."""
    l = c.half_length
    y_mask = mask_of(c.ys)
    nbr_pos = [i for i, y in enumerate(c.ys) if g.has_edge(x0, y)]

    if len(nbr_pos) < 2:
        viol("offcycle_x_min_cycle_neighbors",
             f"x{x0} has {len(nbr_pos)} neighbors on the cycle")

    # two cycle neighbors of x0: the flanking xs share no off-cycle y
    for ii, i in enumerate(nbr_pos):
        for j in nbr_pos[ii + 1:]:
            for (xa, xb) in ((c.xs[i], c.xs[j]),
                             (c.xs[(i + 1) % l], c.xs[(j + 1) % l])):
                shared = g.x_adj[xa] & g.x_adj[xb] & ~y_mask
                if shared:
                    viol("cycle_pair_no_shared_offcycle_y",
                         f"x0=x{x0}: x{xa},x{xb} share off-cycle "
                         f"y{next(iter_bits(shared))}")
        # the flanking xs share no off-cycle y with x0 itself
        for xa in (c.xs[i], c.xs[(i + 1) % l]):
            shared = g.x_adj[xa] & g.x_adj[x0] & ~y_mask
            if shared:
                viol("offcycle_x_no_shared_offcycle_y",
                     f"x0=x{x0}: x{xa} shares off-cycle "
                     f"y{next(iter_bits(shared))} with x0")

    # consecutive xs can share at most one common off-cycle y with x0
    for i in range(l):
        out_i = g.x_adj[c.xs[i]] & g.x_adj[x0] & ~y_mask
        out_j = g.x_adj[c.xs[(i + 1) % l]] & g.x_adj[x0] & ~y_mask
        if out_i and out_j and \
                (out_i != out_j or out_i.bit_count() != 1):
            viol("consecutive_xs_shared_y",
                 f"x0=x{x0}: x{c.xs[i]} and x{c.xs[(i + 1) % l]} both "
                 f"share off-cycle ys with x0, not a single common one")
