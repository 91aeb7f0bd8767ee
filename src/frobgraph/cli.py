"""Command line interface: analyze, scan, table, catalog."""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import (
    CATALOG_SPECS,
    construct,
    expected_order,
    parse_group_spec,
    parse_permutation_spec,
)
from .chartab import character_table, table_stats
from .cyclo import _prime_factors
from .depth import minimal_depth
from .errors import FrobgraphError
from .frobenius import (
    bii_shortcuts,
    frobenius_matrix,
    is_diameter_three,
    is_rich,
    satisfies_bii,
)
from .graph import frobenius_graph
from .group import group_from_generators
from .perm import format_cycles, parse_cycles
from .subgroups import (
    classify_subgroups,
    enumerate_subgroup_classes,
    is_minimal_rich_group,
    prime_order_subgroup_classes,
)

SCHEMA_VERSION = 1


def render_json(payload):
    payload = dict(payload)
    payload["schema"] = SCHEMA_VERSION
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_group(args):
    if getattr(args, "seed_file", None):
        with open(args.seed_file, encoding="utf-8") as fh:
            degree, gens = parse_permutation_spec(fh.read())
        return group_from_generators(degree, gens, order_cap=args.cap), args.seed_file
    if not args.group:
        raise FrobgraphError("no group given; use --group or --seed-file")
    spec = parse_group_spec(args.group)
    return construct(spec, args.cap), spec.label()


def _select_subgroups(G, args):
    """Resolve the subgroup selector to a list of (label, Subgroup).

    Ambiguous selectors report every matching class rather than picking one.
    """
    if args.subgroup:
        gens = [parse_cycles(t.strip(), degree=G.degree) for t in args.subgroup.split(";")]
        H = G.subgroup(gens)
        return [(f"<{args.subgroup}>", H)]
    if args.sylow is not None:
        p = args.sylow
        # never trial-divides p itself, so a huge --sylow cannot stall
        if p not in _prime_factors(G.order):
            raise FrobgraphError(f"--sylow takes a prime dividing {G.order}, not {p}")
        part = 1
        n = G.order
        while n % p == 0:
            part *= p
            n //= p
        chosen = [c for c in enumerate_subgroup_classes(G) if c.order == part]
    elif args.subgroup_order is not None:
        chosen = [c for c in enumerate_subgroup_classes(G) if c.order == args.subgroup_order]
    elif args.prime_order:
        chosen = prime_order_subgroup_classes(G)
    elif args.all_classes:
        chosen = [c for c in enumerate_subgroup_classes(G) if not c.rep.is_whole()]
    else:
        raise FrobgraphError(
            "select subgroups with --subgroup, --subgroup-order, --sylow, "
            "--prime-order or --all-classes"
        )
    if not chosen:
        raise FrobgraphError("no subgroup class matches the selector")
    out = []
    for i, c in enumerate(chosen):
        gens = "; ".join(format_cycles(p) for p in c.rep.generators) or "()"
        out.append((f"class {i + 1} of {len(chosen)}: order {c.order}, <{gens}>", c.rep))
    return out


def _analyze_one(G, label, H, show_tables, fmt, out):
    M = frobenius_matrix(G, H)
    graph = frobenius_graph(M)
    rich = is_rich(G, H) if H.order < G.order else None
    bii = satisfies_bii(G, H)
    d3 = is_diameter_three(G, H)
    shortcuts = bii_shortcuts(G, H)
    depth = minimal_depth(G, H) if H.order < G.order else None
    if fmt == "dot":
        out.write(graph.to_dot() + "\n")
        return None
    if fmt == "json":
        return {
            "subgroup": label,
            "subgroup_order": H.order,
            "frobenius_matrix": M.to_json_dict(),
            "components": graph.n_components,
            "diameter": graph.diameter if graph.diameter != float("inf") else "infinite",
            "rich": None if rich is None else rich.ok,
            "condition_bii": bii.ok,
            "diameter_three": d3.ok,
            "trivial_intersection": shortcuts.trivial_intersection,
            "transitive_normalizer": shortcuts.transitive_normalizer,
            "depth": None if depth is None else depth.to_json_dict(),
        }
    out.write(f"subgroup {label}\n")
    if show_tables:
        out.write("character table of G:\n" + character_table(G).text() + "\n")
        out.write("character table of H:\n" + character_table(H.as_group()).text() + "\n")
    out.write("F(G,H) rows=Irr(H) cols=Irr(G):\n" + M.text() + "\n")
    dia = "infinite" if graph.diameter == float("inf") else str(graph.diameter)
    out.write(f"graph: components {graph.n_components}, diameter {dia}\n")
    if rich is not None:
        w = "" if rich.ok else f" (witness: column {rich.witness})"
        out.write(f"rich: {'yes' if rich.ok else 'no'}{w}\n")
    w = "" if bii.ok else f" (witness: rows {bii.witness})"
    out.write(f"all induced products nonzero: {'yes' if bii.ok else 'no'}{w}\n")
    out.write(
        f"shortcuts: trivial intersection {shortcuts.trivial_intersection}, "
        f"transitive normalizer {shortcuts.transitive_normalizer}\n"
    )
    out.write(f"diameter three: {'yes' if d3.ok else 'no'}\n")
    if depth is not None:
        out.write(
            f"depth: {depth.minimal_depth} (odd m={depth.odd_certificate}, "
            f"even m={depth.even_certificate})\n"
        )
    return None


def cmd_analyze(args, out):
    G, glabel = _load_group(args)
    selected = _select_subgroups(G, args)
    if args.format == "text":
        out.write(f"group {glabel}: order {G.order}, degree {G.degree}\n")
    payloads = []
    for label, H in selected:
        payload = _analyze_one(G, label, H, args.show_tables, args.format, out)
        if payload is not None:
            payloads.append(payload)
    if args.format == "json":
        out.write(render_json({"group": glabel, "group_order": G.order, "analyses": payloads}))
    return 0


def cmd_scan(args, out):
    G, glabel = _load_group(args)
    report = classify_subgroups(G)
    minimal = is_minimal_rich_group(G) if args.check_minimal else None
    if args.format == "json":
        payload = report.to_json_dict()
        payload["group"] = glabel
        if minimal is not None:
            payload["minimal_rich"] = minimal
        out.write(render_json(payload))
        return 0
    out.write(f"group {glabel}: order {G.order}\n")
    out.write("order  length  rich  diam3  depth\n")
    for row in report.rows:
        rich = "-" if row.is_rich is None else ("yes" if row.is_rich else "no")
        d3 = "-" if row.is_diam3 is None else ("yes" if row.is_diam3 else "no")
        depth = "-" if row.depth is None else str(row.depth)
        out.write(f"{row.order:5d}  {row.length:6d}  {rich:>4}  {d3:>5}  {depth:>5}\n")
    out.write(
        f"n={report.n} g={report.g} m={report.m} "
        f"maximal rich orders {report.maximal_rich_orders}\n"
    )
    if minimal is not None:
        out.write(f"minimal with a nontrivial rich subgroup: {minimal}\n")
    return 0


def cmd_table(args, out):
    G, glabel = _load_group(args)
    table = character_table(G)
    if args.format == "json":
        out.write(render_json(table.to_json_dict()))
        return 0
    st = table_stats(table)
    out.write(f"group {glabel}: order {G.order}, T={st.T} k={st.k} b={st.b}\n")
    out.write(table.text() + "\n")
    return 0


def cmd_catalog(args, out):
    rows = [(spec.label(), expected_order(spec)) for spec in CATALOG_SPECS]
    if args.format == "json":
        out.write(render_json({"catalog": [{"spec": s, "order": o} for s, o in rows]}))
        return 0
    for label, order in rows:
        out.write(f"{label:16s} order {order}\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frobgraph",
        description="Frobenius matrices, Frobenius graphs, richness and depth "
        "for subgroups of small permutation groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_group=True):
        if needs_group:
            p.add_argument("--group", help="group spec, e.g. S5, AGL1:9:4, Named:G80")
            p.add_argument("--seed-file", help="generator file (degree N + cycles)")
        p.add_argument("--format", choices=("text", "json", "dot"), default="text")
        p.add_argument("--cap", type=int, default=None, help="override the order cap")

    pa = sub.add_parser("analyze", help="matrix, graph, predicates and depth")
    common(pa)
    pa.add_argument("--subgroup", help="semicolon-separated generator cycles")
    pa.add_argument("--subgroup-order", type=int)
    pa.add_argument("--sylow", type=int, metavar="P")
    pa.add_argument("--prime-order", action="store_true")
    pa.add_argument("--all-classes", action="store_true")
    pa.add_argument("--show-tables", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("scan", help="classify every subgroup class")
    common(ps)
    ps.add_argument("--check-minimal", action="store_true")
    ps.set_defaults(func=cmd_scan)

    pt = sub.add_parser("table", help="character table only")
    common(pt)
    pt.set_defaults(func=cmd_table)

    pc = sub.add_parser("catalog", help="list the built-in group specs")
    common(pc, needs_group=False)
    pc.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except FrobgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
