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

Each command imports the modules it runs when it runs, so a call compiles
and loads only its own part of the package.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import FormatError, InputError, SupercyclicError


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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


def _digits(tok: str) -> bool:
    """ASCII digits only, the record parser's rule; ``int`` takes more."""
    return tok.isascii() and tok.isdigit()


def _parse_index_list(text: str, what: str) -> list[int]:
    toks = [t for t in text.replace(" ", "").split(",") if t]
    if not all(map(_digits, toks)):
        raise InputError(f"{what} must be a comma-separated index list, "
                         f"got {text!r}")
    return [int(t) for t in toks]


def _parse_cycle(text: str):
    """Accept '1,1,2,2' or 'x1,y1,x2,y2' alternating X and Y indices."""
    from .cycles import BaseCycle
    toks = [t.strip() for t in text.split(",") if t.strip()]
    xs: list[int] = []
    ys: list[int] = []
    for pos, tok in enumerate(toks):
        side_is_x = pos % 2 == 0
        if tok[0] in "xy":
            if tok[0] != ("x" if side_is_x else "y"):
                raise InputError(
                    f"cycle token {tok!r} out of x,y,x,y,... alternation")
            tok = tok[1:]
        if not _digits(tok):
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
    from .bigraph import SIDE_X
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
    for w in c.sequence():
        side, idx = w
        name = f"{'x' if side == SIDE_X else 'y'}{idx}"
        print(f"  {name}: x+ = x{maps.x_plus[w]}  x- = x{maps.x_minus[w]}  "
              f"y+ = y{maps.y_plus[w]}  y- = y{maps.y_minus[w]}")
    for root, fan in fans:
        print(f"fan from x{root}: size {fan.size}, "
              f"{fan.vertex_count} vertices")
        for p in fan.paths:
            print("  path: " + " ".join(
                f"{'x' if s == SIDE_X else 'y'}{i}" for s, i in p))
    if args.pair:
        crossed = ",".join(f"x{w}" for w in rep.crossed_at) or "none"
        print(f"crossings of (x{u}, x{v}): {rep.count} (at {crossed})")
        print(f"degree-sum bound d_C(u)+d_C(v) <= l+2+crossings: "
              f"{'holds' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    from .formats import serialize
    from .generators import (_condition_classes, complete_bipartite,
                             construct_g3, enumerate_bigraphs, random_bigraph)
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
        graphs = [random_bigraph(args.nx, args.ny, args.min_x_degree,
                                 args.seed + i)
                  for i in range(args.count)]
    else:  # enum; cond1 decides the condition at each node of its walk
        if args.min_y_degree < 0:
            raise InputError(
                f"--min-y-degree must be >= 0, got {args.min_y_degree}")
        walk = _condition_classes if args.filter else enumerate_bigraphs
        graphs = (g for g in walk(args.nx, args.ny_max, args.min_x_degree)
                  if g.min_x_degree >= args.min_x_degree
                  and (not g.y_count or g.min_y_degree >= args.min_y_degree))
    first = True
    for g in graphs:
        if not first:
            print()
        print(serialize(g), end="")
        first = False
    return 0


def _checkpoint_from(args):
    if not args.checkpoint:
        return None
    from .verifier_checkpoint import CheckpointConfig
    # join keeps an absolute --checkpoint as it is
    path = os.path.join(os.environ.get("SUPERCYCLIC_CHECKPOINT_DIR", ""),
                        args.checkpoint)
    return CheckpointConfig(path, every=args.checkpoint_every)


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


# -- parser ------------------------------------------------------------------

def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default="-",
                   help="graph stream file, or - for stdin (default)")


def _add_campaign_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (reports do not depend on this)")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint file; relative paths resolve under "
                        "SUPERCYCLIC_CHECKPOINT_DIR when that is set")
    p.add_argument("--checkpoint-every", type=int, default=500)
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--progress", action="store_true",
                   help="print progress lines to stderr")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercyclic",
        description="Based cycles, the neighborhood condition, and "
                    "exhaustive verification for bipartite graphs with an "
                    "ordered bipartition.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="neighborhood condition + degree bounds")
    _add_input(p)
    p.add_argument("--mode", choices=("full", "kim"), default="full",
                   help="both modes run the same scan; the mode only labels "
                        "the report")
    p.add_argument("--as-hypergraph", action="store_true",
                   help="input records are hypergraphs; analyze their "
                        "incidence bigraphs")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("cycle", help="find a cycle based on given X-indices")
    _add_input(p)
    p.add_argument("--base", required=True, help="e.g. 1,3,4")
    p.add_argument("--as-hypergraph", action="store_true")
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("classify",
                       help="critical / saturated / Y-minimal report")
    _add_input(p)
    p.add_argument("--ym-mode", choices=("one_deletion", "exhaustive"),
                   default="one_deletion")
    p.add_argument("--as-hypergraph", action="store_true")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("analyze",
                       help="successor maps, fans, crossings for a cycle")
    _add_input(p)
    p.add_argument("--cycle", required=True,
                   help="alternating indices x1,y1,x2,y2,... "
                        "(x/y prefixes optional)")
    p.add_argument("--pair", default=None,
                   help="two cycle X-indices for the crossing count")
    p.add_argument("--fan-root", type=int, default=None,
                   help="off-cycle X-index (default: all off-cycle xs)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="emit graphs in the text format")
    gsub = p.add_subparsers(dest="generator", required=True)
    pg = gsub.add_parser("g3", help="three-part extremal construction")
    pg.add_argument("--n", required=True, help="part sizes n1,n2,n3")
    pg.add_argument("--delta", type=int, required=True)
    pg.set_defaults(func=_cmd_gen)
    pc = gsub.add_parser("complete", help="complete bipartite graph")
    pc.add_argument("--nx", type=int, required=True)
    pc.add_argument("--ny", type=int, required=True)
    pc.set_defaults(func=_cmd_gen)
    pe = gsub.add_parser("enum",
                         help="all isomorphism classes within the caps")
    pe.add_argument("--nx", type=int, required=True)
    pe.add_argument("--ny-max", type=int, required=True)
    pe.add_argument("--min-x-degree", type=int, default=0)
    pe.add_argument("--min-y-degree", type=int, default=0)
    pe.add_argument("--filter", choices=("cond1",), default=None,
                    help="cond1: only graphs passing the condition")
    pe.set_defaults(func=_cmd_gen)
    pr = gsub.add_parser("random", help="seeded random bigraphs")
    pr.add_argument("--nx", type=int, required=True)
    pr.add_argument("--ny", type=int, required=True)
    pr.add_argument("--min-x-degree", type=int, default=0)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--count", type=int, default=1)
    pr.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="exhaustive desk-scale verification")
    vsub = p.add_subparsers(dest="claim", required=True)
    pk = vsub.add_parser("kcyclic",
                         help="condition implies k-cyclic on the range")
    pk.add_argument("--nx", type=int, required=True)
    pk.add_argument("--ny-max", type=int, required=True)
    pk.add_argument("--k", type=int, required=True)
    _add_campaign_flags(pk)
    pk.set_defaults(func=_cmd_verify)
    pd = vsub.add_parser("degree",
                         help="condition + quarter degree bound implies "
                              "super-cyclic")
    pd.add_argument("--nx", type=int, required=True)
    pd.add_argument("--ny-max", type=int, required=True)
    _add_campaign_flags(pd)
    pd.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hunt", help="search for a counterexample graph")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny-max", type=int, required=True)
    p.add_argument("--random", action="store_true",
                   help="seeded random trials instead of exhaustive "
                        "enumeration")
    # --random only; _cmd_hunt defaults them to 0, 0 and 2
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--min-x-degree", type=int)
    _add_campaign_flags(p)
    p.set_defaults(func=_cmd_hunt)

    return parser


if __name__ == "__main__":
    sys.exit(main())
