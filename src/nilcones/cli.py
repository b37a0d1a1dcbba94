"""Command line interface.

Subcommands:
  orbits    table of orbit labels with enhanced/exotic dimensions
  sheets    table of sheets (CSV columns: lambda, choices, dim_enhanced,
            dim_exotic, nilpotent_orbit)
  induce    induce an orbit from Levi data; optionally dump a representative
  identify  orbit or class label of an element document
  hasse     DOT diagram of the orbit, class or sheet poset
  verify    run one verification suite and emit a JSON report

Element documents are JSON:
  {"n": 2, "module": "enhanced", "field": "Q", "v": ["1", "1"],
   "x": [["1", "1"], ["0", "2"]]}
with "field": "Fp" plus "p": 3 for prime fields; exotic documents use
vectors of length 2n and 2n x 2n matrices.  Scalars are strings ("3/4"
over Q, residues over F_p).  Exit codes: 0 success, 1 verification
failure, 2 parse or usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache

from .errors import BudgetExceeded, NilconesError, ParseError
from .fields import GF, QQ
from .linalg import Mat, Vec
from .partitions import (
    Composition,
    enumerate_bipartitions,
    format_bipartition,
    parse_bipartition,
)
from .enhanced import (
    EnhancedElement,
    InductionDatum,
    closure_leq,
    identify_orbit,
    induce,
    induction_representative,
    is_rigid,
    orbit_dim,
)
from .exotic import ExoticElement, exotic_orbit_dim, identify_exotic_orbit
from .jordan_classes import (
    class_closure_leq,
    class_dim_enhanced,
    enumerate_classes,
    format_class_label,
    identify_class,
    identify_exotic_class,
)
from .sheets import (
    VEC,
    enumerate_sheets,
    sheet_dim_enhanced,
    sheet_dim_exotic,
    sheet_nilpotent_orbit,
)
from .verify import DEFAULT_SEED, SUITES, run_suite


# ---------------------------------------------------------------------------
# element documents
# ---------------------------------------------------------------------------


def _integer(doc, key):
    """doc[key], which must be a JSON integer: a float, a bool or text is
    refused, not truncated or converted."""
    value = doc[key]
    if type(value) is not int:
        raise ParseError(f"{key!r} must be an integer, not {value!r}")
    return value


def _scalar(field, s):
    """A v or x entry: JSON text or an integer, never a float or a bool.  Over
    Q int() reads integer text 20 times faster than Fraction; other text, and
    text with "_" (int() reads it, Fraction on Python 3.10 not), is parsed."""
    if type(s) is int:
        return s
    if type(s) is not str:
        raise ParseError(f"entries must be strings or integers, not {s!r}")
    if not field.char and "_" not in s:
        try:
            return int(s)
        except ValueError:
            pass
    return field.parse(s)


def parse_element_document(doc):
    """Dict -> EnhancedElement or ExoticElement; ParseError on bad input."""
    try:
        n = _integer(doc, "n")
        module = doc["module"]
        field_tag = doc["field"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad element document: {exc}") from exc
    if module not in ("enhanced", "exotic"):
        raise ParseError(f"unknown module: {module!r}")
    if field_tag == "Q":
        field = QQ
    elif field_tag == "Fp":
        try:
            field = GF(_integer(doc, "p"))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad prime: {exc}") from exc
    else:
        raise ParseError(f"unknown field tag: {field_tag!r}")
    dim = n if module == "enhanced" else 2 * n
    try:
        # JSON lists only: text would be read one character at a time
        if not all(type(a) is list for a in (doc["v"], doc["x"], *doc["x"])):
            raise ParseError("v, x and the rows of x must be JSON lists")
        ventries = [_scalar(field, s) for s in doc["v"]]
        xrows = [[_scalar(field, s) for s in row] for row in doc["x"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad element document: {exc}") from exc
    if len(ventries) != dim or len(xrows) != dim or any(len(r) != dim for r in xrows):
        raise ParseError(f"element data must have dimension {dim}")
    v = Vec(field, ventries)
    x = Mat(field, xrows)
    try:
        if module == "enhanced":
            return EnhancedElement(n, v, x)
        return ExoticElement(n, v, x)
    except NilconesError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def emit_element_document(e):
    field = e.field
    if field == QQ:
        field_part = {"field": "Q"}
    else:
        field_part = {"field": "Fp", "p": field.p}
    module = "enhanced" if isinstance(e, EnhancedElement) else "exotic"
    return {
        "n": e.n,
        "module": module,
        **field_part,
        "v": [field.format(s) for s in e.v.entries],
        "x": [[field.format(s) for s in row] for row in e.x.rows],
    }


# ---------------------------------------------------------------------------
# Hasse diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HasseDocument:
    """Nodes (label, dimension) plus covering edges (transitive reduction),
    edges pointing from the smaller to the larger node."""

    nodes: tuple
    edges: tuple

    def to_dot(self):
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i, (label, dim) in enumerate(self.nodes):
            text = label.replace('"', r"\"")
            lines.append(f'  n{i} [label="{text}\\n{dim}"];')
        for a, b in self.edges:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines)


def build_hasse(items, leq, label_fn, dim_fn):
    """Covering relation of a finite poset given by a comparison oracle:
    N^2 comparisons and an N^3 reduction, so capped at 1,000 nodes."""
    if len(items) > 1000:
        raise BudgetExceeded(f"hasse diagram capped at 1,000 nodes, not {len(items)}")
    strictly_less = [[leq(a, b) and a != b for b in items] for a in items]
    edges = []
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            if not strictly_less[i][j]:
                continue
            if any(strictly_less[i][k] and strictly_less[k][j]
                   for k in range(len(items))):
                continue
            edges.append((i, j))
    nodes = tuple((label_fn(x), dim_fn(x)) for x in items)
    return HasseDocument(nodes, tuple(edges))


def hasse_for(kind, n):
    if kind == "orbits":
        items = enumerate_bipartitions(n)
        return build_hasse(items, closure_leq,
                           lambda b: format_bipartition(b, exponents=False),
                           orbit_dim)
    if kind == "classes":
        items = enumerate_classes(n)
        return build_hasse(items, class_closure_leq,
                           lambda c: format_class_label(c),
                           class_dim_enhanced)
    if kind == "sheets":
        items = enumerate_sheets(n)
        nodes = tuple((str(s), sheet_dim_enhanced(s)) for s in items)
        return HasseDocument(nodes, ())
    raise ParseError(f"unknown hasse kind: {kind!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _print_table(header, rows, out):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    out.write("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def cmd_orbits(args, out):
    rows = []
    for b in enumerate_bipartitions(args.n):
        rows.append({
            "label": format_bipartition(b),
            "enh_dim": orbit_dim(b),
            "exo_dim": exotic_orbit_dim(b),
            "rigid": is_rigid(b),
        })
    if args.format == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
    else:
        _print_table(["label", "enh_dim", "exo_dim", "rigid"],
                     [[r["label"], r["enh_dim"], r["exo_dim"],
                       "yes" if r["rigid"] else "no"] for r in rows], out)
    return 0


def cmd_sheets(args, out):
    rows = []
    for s in enumerate_sheets(args.n):
        rows.append({
            "lambda": ",".join(str(p) for p in s.lam),
            "choices": "".join("V" if c == VEC else "Z" for c in s.choice),
            "dim_enhanced": sheet_dim_enhanced(s),
            "dim_exotic": sheet_dim_exotic(s),
            "nilpotent_orbit": format_bipartition(sheet_nilpotent_orbit(s)),
        })
    header = ["lambda", "choices", "dim_enhanced", "dim_exotic", "nilpotent_orbit"]
    if args.format == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write(",".join(header) + "\n")
        for r in rows:
            out.write(",".join(f'"{r[h]}"' if "," in str(r[h]) else str(r[h])
                               for h in header) + "\n")
    else:
        _print_table(header, [[r[h] for h in header] for r in rows], out)
    return 0


def cmd_induce(args, out):
    comp_parts = parse_partition_like(args.levi)
    if args.rigid_prefix is not None:
        if not 0 <= args.rigid_prefix <= len(comp_parts):
            raise ParseError("rigid prefix out of range")
        datum = InductionDatum.rigid(Composition(comp_parts, k=args.rigid_prefix))
    elif args.bipartitions is not None:
        blocks = tuple(parse_bipartition(t) for t in args.bipartitions.split("|"))
        datum = InductionDatum(Composition(comp_parts, k=0), blocks)
    else:
        raise ParseError("need --bipartitions or --rigid-prefix")
    label = induce(datum)
    out.write(format_bipartition(label) + "\n")
    if args.representative:
        rep = induction_representative(datum)
        json.dump(emit_element_document(rep), out, indent=2)
        out.write("\n")
    return 0


def parse_partition_like(text):
    """A composition: comma separated positive integers, order kept."""
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad composition: {text!r}") from exc
    if any(p <= 0 for p in parts):
        raise ParseError(f"composition parts must be positive: {parts}")
    return parts


def cmd_identify(args, out):
    try:
        if args.file == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.file) as fh:
                doc = json.load(fh)
    except ValueError as exc:
        # JSONDecodeError, and the int-digit limit of int(), are ValueErrors
        raise ParseError(f"bad JSON: {exc}") from exc
    e = parse_element_document(doc)
    enhanced = isinstance(e, EnhancedElement)
    if args.level == "orbit":
        label = (identify_orbit if enhanced else identify_exotic_orbit)(e)
        text = format_bipartition(label)
        payload = {"level": "orbit", "mu": list(label.mu), "nu": list(label.nu)}
    else:
        label = (identify_class if enhanced else identify_exotic_class)(e)
        text = format_class_label(label)
        payload = {"level": "class", "lambda": list(label.lam),
                   "blocks": [{"mu": list(b.mu), "nu": list(b.nu)} for b in label.blocks]}
    out.write((json.dumps({**payload, "label": text}) if args.format == "json" else text) + "\n")
    return 0


def cmd_hasse(args, out):
    doc = hasse_for(args.kind, args.n)
    text = doc.to_dot()
    if args.out == "-":
        out.write(text + "\n")
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        out.write(f"wrote {args.out}: {len(doc.nodes)} nodes, {len(doc.edges)} edges\n")
    return 0


def cmd_verify(args, out):
    report = run_suite(args.suite, args.n, args.p, seed=args.seed)
    json.dump(report, out, indent=2, default=str)
    out.write("\n")
    return 0 if report["passed"] else 1


def _rank(text):
    """The value of --n: an integer of at least 1 (argparse exits 2 on
    anything else)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _prime(text):
    """The value of --p: a prime that GF accepts (argparse exits 2 on
    anything else)."""
    try:
        return GF(int(text)).p
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps its
    results in a fresh Namespace and leaves the parser as it was, so every
    call of :func:`main` can share it."""
    parser = argparse.ArgumentParser(
        prog="nilcones",
        description="enhanced/exotic nilpotent orbits, induction, Jordan classes and sheets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="orbit table for one rank")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("sheets", help="sheet table for one rank")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_sheets)

    p = sub.add_parser("induce", help="induce an orbit from Levi data")
    p.add_argument("--levi", required=True, help="block sizes, e.g. 3,4,4,2")
    p.add_argument("--bipartitions", help="one label per block, '|' separated, e.g. '1^3;|1^4;|;1^4|;1^2'")
    p.add_argument("--rigid-prefix", type=int, dest="rigid_prefix",
                   help="rigid datum: first K blocks carry the vector")
    p.add_argument("--representative", action="store_true",
                   help="also dump an element document of the induced orbit")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("identify", help="identify the orbit or class of an element document")
    p.add_argument("--file", required=True, help="JSON path, or - for stdin")
    p.add_argument("--level", choices=["orbit", "class"], default="orbit")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("hasse", help="DOT diagram of a closure order")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--kind", choices=["orbits", "classes", "sheets"], default="orbits")
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--n", type=_rank, default=3)
    p.add_argument("--p", type=_prime, default=2)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NilconesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
