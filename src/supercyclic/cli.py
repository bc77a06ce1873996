"""Command-line surface.

Graphs stream on stdin/stdout in the plain-text record format, so commands
compose:  ``supercyclic gen g3 --n 2,1,1 --delta 3 | supercyclic check``.

Exit codes are part of the contract for scripting:

* 0: claim confirmed / object found (condition holds, cycle found,
  campaign clean, graph critical);
* 1: claim refuted / object absent (condition fails, no based cycle,
  campaign found violations, not critical);
* 2: usage or format errors, and files that cannot be read or written;
* 3: an internal error (any other exception), reported on one line.

The command line is read against one table, ``_TREE``, by ``_parse``.
Each command imports the modules it runs when it runs, so a call loads only
its own part of the package.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import FormatError, InputError, SupercyclicError, is_number


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (SupercyclicError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, never a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


# -- input helpers -----------------------------------------------------------

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_bigraphs(args) -> list:
    """Parse the input stream into bigraphs, converting hypergraph records
    through their incidence graph when --as-hypergraph is given."""
    from .bigraph import Bigraph, Hypergraph, incidence_graph
    from .formats import iter_records
    want_h = getattr(args, "as_hypergraph", False)
    graphs = []
    for rec in iter_records(_read_text(args.input)):
        if want_h:
            if not isinstance(rec, Hypergraph):
                raise FormatError(
                    "--as-hypergraph expects hgraph records only")
            graphs.append(incidence_graph(rec))
        else:
            if not isinstance(rec, Bigraph):
                raise FormatError(
                    "found a hypergraph record; pass --as-hypergraph to "
                    "analyze it through its incidence bigraph")
            graphs.append(rec)
    if not graphs:
        raise FormatError("no graph records in input")
    return graphs


def _tokens(text: str) -> list[str]:
    """The items of a comma list, each stripped, empty ones dropped."""
    return [t for t in map(str.strip, text.split(",")) if t]


def _parse_index_list(text: str, what: str) -> list[int]:
    toks = _tokens(text)
    if not all(map(is_number, toks)):
        raise InputError(f"{what} must be a comma-separated index list, "
                         f"got {text!r}")
    return [int(t) for t in toks]


def _parse_cycle(text: str):
    """Accept '1,1,2,2' or 'x1,y1,x2,y2' alternating X and Y indices."""
    from .cycles import BaseCycle
    xs: list[int] = []
    ys: list[int] = []
    for pos, tok in enumerate(_tokens(text)):
        side_is_x = pos % 2 == 0
        if tok[0] in "xy":
            if tok[0] != ("x" if side_is_x else "y"):
                raise InputError(
                    f"cycle token {tok!r} out of x,y,x,y,... alternation")
            tok = tok[1:]
        if not is_number(tok):
            raise InputError(f"bad cycle token {tok!r}")
        (xs if side_is_x else ys).append(int(tok))
    return BaseCycle(tuple(xs), tuple(ys))


# -- subcommands -------------------------------------------------------------

def _cmd_check(args) -> int:
    from .condition import check_condition, degree_hypothesis
    from .reports import machine_lines
    graphs = _load_bigraphs(args)
    all_pass = True
    for i, g in enumerate(graphs, start=1):
        rep = check_condition(g, args.mode)
        thr = degree_hypothesis(g)
        all_pass &= rep.passed
        if args.format == "machine":
            pairs = [("graph", str(i)), ("passed", str(rep.passed).lower()),
                     ("mode", rep.mode)]
            if rep.size_witness is not None:
                pairs.append(("size_witness", str(rep.size_witness)))
            if rep.connectivity_witness is not None:
                pairs.append(("connectivity_witness",
                              str(rep.connectivity_witness)))
            pairs += [("min_x_degree", str(thr.min_x_degree)),
                      ("half_bound", str(thr.meets_half_bound).lower()),
                      ("third_bound", str(thr.meets_third_bound).lower()),
                      ("quarter_bound", str(thr.meets_quarter_bound).lower())]
            print(machine_lines(pairs), end="")
            if i < len(graphs):
                print()
        else:
            print(f"graph {i}: {rep.describe()}")
            print(f"graph {i}: degrees: {thr.describe()}")
    return 0 if all_pass else 1


def _cmd_cycle(args) -> int:
    from .bigraph import SIDE_X, VertexSet
    from .cycles import find_based_cycle
    graphs = _load_bigraphs(args)
    base = _parse_index_list(args.base, "--base")
    if len(set(base)) != len(base):
        raise InputError(f"--base must not repeat an index, got {args.base!r}")
    a = VertexSet.of(SIDE_X, base)
    # every graph is searched before the first line, so an error prints none
    found = [find_based_cycle(g, a) for g in graphs]
    for i, c in enumerate(found, start=1):
        print(f"graph {i}: {'ABSENT' if c is None else c}")
    return 0 if all(c is not None for c in found) else 1


def _cmd_classify(args) -> int:
    from .classify import is_critical, is_saturated, is_y_minimal
    from .reports import machine_lines
    graphs = _load_bigraphs(args)
    all_critical = True
    for i, g in enumerate(graphs, start=1):
        crit = is_critical(g)
        rows = [("graph", str(i)),
                ("critical", str(crit.passed).lower())]
        if not crit.passed:
            rows.append(("reason", crit.detail))
            if crit.witness is not None:
                rows.append(("witness", str(crit.witness)))
            all_critical = False
        else:
            sat = is_saturated(g)
            ym = is_y_minimal(g, args.ym_mode)
            rows += [("saturated", str(sat.passed).lower()),
                     ("y_minimal", str(ym.passed).lower()),
                     ("y_minimal_mode", args.ym_mode)]
            if ym.approximate:
                rows.append(("y_minimal_approximate", "true"))
        if args.format == "machine":
            print(machine_lines(rows), end="")
            if i < len(graphs):
                print()
        else:
            print("; ".join(f"{k}={v}" for k, v in rows))
    return 0 if all_critical else 1


def _cmd_analyze(args) -> int:
    from .structure import (crossing_bound_holds, crossings, max_fan,
                            successor_maps)
    graphs = _load_bigraphs(args)
    if len(graphs) != 1:
        raise InputError("analyze expects exactly one graph record")
    g = graphs[0]
    c = _parse_cycle(args.cycle)
    c.validate_in(g)
    # every result is computed before the first line, so an error prints none
    maps = successor_maps(c)
    roots = ([args.fan_root] if args.fan_root is not None
             else [x for x in g.x_indices() if x not in c.xs])
    fans = [(root, max_fan(g, root, c)) for root in roots]
    ok = True
    if args.pair:
        pair = _parse_index_list(args.pair, "--pair")
        if len(pair) != 2:
            raise InputError(f"--pair takes exactly two cycle X-indices, "
                             f"got {args.pair!r}")
        u, v = pair
        rep = crossings(g, c, u, v)
        ok = crossing_bound_holds(g, c, u, v)

    print(f"cycle: {c}")
    print("successors along the orientation:")
    for w in c.sequence():  # w is (side, index), the side "X" or "Y"
        print(f"  {w[0].lower()}{w[1]}: x+ = x{maps.x_plus[w]}  x- = x{maps.x_minus[w]}  "
              f"y+ = y{maps.y_plus[w]}  y- = y{maps.y_minus[w]}")
    for root, fan in fans:
        print(f"fan from x{root}: size {fan.size}, "
              f"{fan.vertex_count} vertices")
        for p in fan.paths:
            print("  path: " + " ".join(f"{s.lower()}{i}" for s, i in p))
    if args.pair:
        crossed = ",".join(f"x{w}" for w in rep.crossed_at) or "none"
        print(f"crossings of (x{u}, x{v}): {rep.count} (at {crossed})")
        print(f"degree-sum bound d_C(u)+d_C(v) <= l+2+crossings: "
              f"{'holds' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    from .formats import serialize
    from .generators import (complete_bipartite, construct_g3,
                             enumerate_bigraphs, random_bigraph)
    if args.generator == "g3":
        sizes = _parse_index_list(args.n, "--n")
        if len(sizes) != 3:
            raise InputError("--n takes exactly three part sizes, e.g. 2,1,1")
        graphs = [construct_g3(sizes[0], sizes[1], sizes[2], args.delta)]
    elif args.generator == "complete":
        graphs = [complete_bipartite(args.nx, args.ny)]
    elif args.generator == "random":
        if args.count < 1:
            raise InputError(f"--count must be >= 1, got {args.count}")
        # lazy: the draws share sizes and floor, so only the first raises
        graphs = (random_bigraph(args.nx, args.ny, args.min_x_degree,
                                 args.seed + i)
                  for i in range(args.count))
    else:  # enum; the walk decides the X-degree floor and cond1 at each node
        if args.min_y_degree < 0:
            raise InputError(
                f"--min-y-degree must be >= 0, got {args.min_y_degree}")
        graphs = (g for g in enumerate_bigraphs(
                      args.nx, args.ny_max, args.min_x_degree,
                      bool(args.filter))
                  if not g.y_count or g.min_y_degree >= args.min_y_degree)
    first = True
    for g in graphs:
        if not first:
            print()
        print(serialize(g), end="")
        first = False
    return 0


def _checkpoint_from(args):
    every = args.checkpoint_every
    if not args.checkpoint:
        if every is not None:
            raise InputError("--checkpoint-every needs --checkpoint")
        return None
    from .verifier_checkpoint import CheckpointConfig
    # join keeps an absolute --checkpoint as it is
    path = os.path.join(os.environ.get("SUPERCYCLIC_CHECKPOINT_DIR", ""),
                        args.checkpoint)
    return CheckpointConfig(path, every=500 if every is None else every)


def _progress_from(args):
    if not args.progress:
        return None
    return lambda msg: print(f"progress: {msg}", file=sys.stderr)


def _emit_report(report, fmt: str) -> int:
    if fmt == "machine":
        print(report.to_machine(), end="")
    else:
        print(report.to_text(), end="")
    return 0 if report.confirmed else 1


def _cmd_verify(args) -> int:
    from .verifier import verify_degree_theorem, verify_k_cyclic
    ckpt = _checkpoint_from(args)
    prog = _progress_from(args)
    if args.claim == "kcyclic":
        report = verify_k_cyclic(args.nx, args.ny_max, args.k,
                                 jobs=args.jobs, checkpoint=ckpt,
                                 progress=prog)
    else:
        report = verify_degree_theorem(args.nx, args.ny_max,
                                       jobs=args.jobs, checkpoint=ckpt,
                                       progress=prog)
    return _emit_report(report, args.format)


def _cmd_hunt(args) -> int:
    from .verifier import HuntConfig, hunt_counterexample
    if not args.random and (args.seed, args.trials,
                            args.min_x_degree) != (None, None, None):
        raise InputError("only --random takes --seed, --trials and "
                         "--min-x-degree")
    config = HuntConfig(
        nx=args.nx, ny_max=args.ny_max,
        mode="random" if args.random else "exhaustive",
        seed=args.seed or 0, trials=args.trials or 0,
        min_x_degree=2 if args.min_x_degree is None else args.min_x_degree)
    report = hunt_counterexample(config, jobs=args.jobs,
                                 checkpoint=_checkpoint_from(args),
                                 progress=_progress_from(args))
    return _emit_report(report, args.format)


# -- the command table -------------------------------------------------------

# A flag is (name, kind, default, help): the kind is "int", "text", "switch"
# or the choices joined by "|", and a required flag's default is ``...``.
# A command is (its handler's name, help, flags); a group is (the attribute
# that names its chosen command, help, {name: command or group}).
_INPUT = ("--input", "text", "-", "graph stream file, or - for stdin")
_HYPER = ("--as-hypergraph", "switch", False,
          "input records are hypergraphs; analyze their incidence bigraphs")
_FORMAT = ("--format", "human|machine", "human", "")
_NX = ("--nx", "int", ..., "|X|")
_NY = ("--ny", "int", ..., "|Y|")
_NY_MAX = ("--ny-max", "int", ..., "largest |Y|")
_CAMPAIGN = (
    ("--jobs", "int", 1,
     "worker processes, at most one per CPU; reports do not depend on this"),
    ("--checkpoint", "text", None, "checkpoint file; a relative path "
     "resolves under SUPERCYCLIC_CHECKPOINT_DIR when that is set"),
    ("--checkpoint-every", "int", None, "items between saves, default 500"),
    _FORMAT,
    ("--progress", "switch", False, "print progress lines to stderr"))

_TREE = ("command", "Based cycles, the neighborhood condition, and "
                    "exhaustive verification for bipartite graphs with an "
                    "ordered bipartition.", {
    "check": ("_cmd_check", "neighborhood condition + degree bounds", (
        _INPUT, _HYPER, _FORMAT,
        ("--mode", "full|kim", "full", "both modes run the same scan; the "
         "mode only labels the report"))),
    "cycle": ("_cmd_cycle", "find a cycle based on given X-indices", (
        _INPUT, ("--base", "text", ..., "e.g. 1,3,4"), _HYPER)),
    "classify": ("_cmd_classify", "critical / saturated / Y-minimal report", (
        _INPUT, _HYPER, _FORMAT,
        ("--ym-mode", "one_deletion|exhaustive", "one_deletion", ""))),
    "analyze": ("_cmd_analyze", "successor maps, fans, crossings for a cycle", (
        _INPUT,
        ("--cycle", "text", ..., "alternating indices x1,y1,x2,y2,... "
         "(x/y prefixes optional)"),
        ("--pair", "text", None, "two cycle X-indices for the crossing count"),
        ("--fan-root", "int", None,
         "off-cycle X-index (default: all off-cycle xs)"))),
    "gen": ("generator", "emit graphs in the text format", {
        "g3": ("_cmd_gen", "three-part extremal construction", (
            ("--n", "text", ..., "part sizes n1,n2,n3"),
            ("--delta", "int", ..., ""))),
        "complete": ("_cmd_gen", "complete bipartite graph", (_NX, _NY)),
        "enum": ("_cmd_gen", "all isomorphism classes within the caps", (
            _NX, _NY_MAX, ("--min-x-degree", "int", 0, ""),
            ("--min-y-degree", "int", 0, ""),
            ("--filter", "cond1", None,
             "cond1: only graphs passing the condition"))),
        "random": ("_cmd_gen", "seeded random bigraphs", (
            _NX, _NY, ("--min-x-degree", "int", 0, ""),
            ("--seed", "int", 0, ""), ("--count", "int", 1, "")))}),
    "verify": ("claim", "exhaustive desk-scale verification", {
        "kcyclic": ("_cmd_verify", "condition implies k-cyclic on the range",
                    (_NX, _NY_MAX, ("--k", "int", ..., "")) + _CAMPAIGN),
        "degree": ("_cmd_verify",
                   "condition + quarter degree bound implies super-cyclic",
                   (_NX, _NY_MAX) + _CAMPAIGN)}),
    "hunt": ("_cmd_hunt", "search for a counterexample graph", (
        _NX, _NY_MAX,
        ("--random", "switch", False,
         "seeded random trials instead of exhaustive enumeration"),
        # --random only; _cmd_hunt defaults them to 0, 0 and 2
        ("--seed", "int", None, ""), ("--trials", "int", None, ""),
        ("--min-x-degree", "int", None, "")) + _CAMPAIGN)})


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` against ``_TREE``: each group's choice, each flag of
    the command under its name with ``_`` for ``-``, and the command's
    handler as ``func``.  The last of a repeated flag wins."""
    node, path, got = _TREE, "supercyclic", {}
    words = iter(argv)
    while type(node[2]) is dict:  # a group: the name of a command, or help
        word = next(words, "")
        if word == "-h" or word[2:] and "--help".startswith(word):
            _help(node, path)
        if word not in node[2]:
            _fail(path, "expected a %s (%s), got %r", node[0],
                  ", ".join(node[2]), word)
        got[node[0]] = word
        node, path = node[2][word], path + " " + word
    kinds = {"-h": "switch", "--help": "switch"}
    for name, kind, default, _ in node[2]:
        kinds[name] = kind
        got[name[2:].replace("-", "_")] = default
    for word in words:
        name, eq, text = word.partition("=")
        # an exact name, or the prefix of one flag: "-" and "--" begin them all
        hits = [name] if name in kinds else [
            k for k in kinds if k.startswith(name)]
        if len(hits) != 1:
            _fail(path, "unrecognized or ambiguous argument %r", word)
        name, kind = hits[0], kinds[hits[0]]
        if kind == "switch":
            if eq:
                _fail(path, "argument %s: takes no value", name)
            if name in ("-h", "--help"):
                _help(node, path)
            text = True
        elif not eq:
            text = next(words, "--")  # none left reads as the next flag
            if text[:2] == "--":
                _fail(path, "argument %s: expected a value", name)
        if kind == "int":
            if not is_number(text.removeprefix("-")):
                _fail(path, "argument %s: invalid integer %r", name, text)
            text = int(text)
        elif kind not in ("text", "switch") and text not in kind.split("|"):
            _fail(path, "argument %s: invalid choice %r", name, text)
        got[name[2:].replace("-", "_")] = text
    missing = ["--" + k.replace("_", "-") for k, v in got.items() if v is ...]
    if missing:
        _fail(path, "missing %s", ", ".join(missing))
    return SimpleNamespace(func=globals()[node[0]], **got)


def _fail(path: str, message: str, *args):
    """A usage line and the error, ``message % args``, on stderr; exit 2."""
    print(f"usage: {path} [-h] ...", f"{path}: error: {message % args}",
          sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _help(node: tuple, path: str):
    """Each command of a group with its help, or each flag of a command
    with its kind, its default and its help, in columns; exit 0."""
    print(f"usage: {path} [-h] ...\n\n{node[1]}\n")
    if type(node[2]) is dict:
        for name, sub in node[2].items():
            print("  %-10s%s" % (name, sub[1]))
    else:  # each column two wider than its widest entry
        for name, kind, default, text in node[2]:
            print(("  %-20s%-25s%-14s%s" % (
                name, kind, "required" if default is ... else default,
                text)).rstrip())
    raise SystemExit(0)


if __name__ == "__main__":
    sys.exit(main())
