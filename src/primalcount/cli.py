"""Command-line front end: count, pcount, chambers, decompose, oracle.

Input files are plain text with integer entries; `|` separators count
as whitespace.  Results go to stdout, diagnostics to stderr, and output
is byte-identical across runs for the same input and flags.  Exit
codes: 0 success, 1 usage, 2 parse error, 3 semantic error, 4 verify
mismatch.
"""

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from . import linalg
from .errors import (
    DegenerateConeError,
    NotFullDimensionalError,
    OracleTooLargeError,
    ParseError,
    SingularMatrixError,
    UnboundedError,
)
from .genfun import DEFAULT_MAX_INDEX, count_polytope
from .halfopen import HalfOpenPolyhedron, signed_decompose
from .oracle import DEFAULT_CAP, brute_count
from .parametric import ParametricPolytope, evaluate_count
from .polytope import HPolytope, enumerate_vertices, vertex_cone

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_VERIFY = 4

SEMANTIC_ERRORS = (
    DegenerateConeError,
    NotFullDimensionalError,
    OracleTooLargeError,
    SingularMatrixError,
    UnboundedError,
)


# ---------------------------------------------------------------------------
# parsing


def _scan(line):
    """Tokens of a line with their 1-based start columns; `|` separates."""
    tokens = []
    start = None
    for i, ch in enumerate(line + " "):
        if ch.isspace() or ch == "|":
            if start is not None:
                tokens.append((start + 1, line[start:i]))
                start = None
        elif start is None:
            start = i
    return tokens


# a decimal integer as int() reads one: a sign, then digits with single
# underscores between them
_DECIMAL = re.compile(r"[+-]?\d+(?:_\d+)*")
# the least limit sys.set_int_max_str_digits accepts, so int() reads a
# chunk this long under any limit
_DIGIT_CHUNK = 640


def _int_token(token, line_no, col):
    """The token as a decimal integer of any length.

    int() refuses more digits than sys.get_int_max_str_digits() where
    Python has that limit; a longer token is read in chunks of
    _DIGIT_CHUNK digits, and the process-wide limit is left as it is.
    """
    try:
        return int(token, 10)
    except ValueError:
        if not _DECIMAL.fullmatch(token):
            raise ParseError(f"not an integer: {token!r}", line_no, col) from None
    digits = token.lstrip("+-").replace("_", "")
    value = 0
    for i in range(0, len(digits), _DIGIT_CHUNK):
        chunk = digits[i:i + _DIGIT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk, 10)
    return -value if token.startswith("-") else value


def _content_lines(text):
    out = []
    for line_no, line in enumerate(text.splitlines(), 1):
        tokens = _scan(line)
        if tokens:
            out.append((line_no, tokens))
    return out


def _int_row(line_no, tokens, expected, what):
    if len(tokens) != expected:
        col = tokens[expected][0] if len(tokens) > expected else tokens[-1][0]
        raise ParseError(
            f"expected {expected} integers for {what}, got {len(tokens)}",
            line_no, col)
    return [_int_token(tok, line_no, col) for col, tok in tokens]


def _missing(lines, what):
    last = lines[-1][0] if lines else 0
    return ParseError(f"missing {what}", last + 1)


def parse_polytope(text) -> HPolytope:
    """Header "d m", then m rows "a_1 ... a_d b" meaning a . x <= b."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("missing header", 1)
    line_no, tokens = lines[0]
    d, m = _int_row(line_no, tokens, 2, "header")
    if d < 1:
        raise ParseError("dimension must be positive", line_no, tokens[0][0])
    if m < 0:
        raise ParseError("row count must be nonnegative", line_no, tokens[1][0])
    rows = lines[1:]
    if len(rows) < m:
        raise _missing(lines, f"constraint row {len(rows) + 1} of {m}")
    if len(rows) > m:
        raise ParseError("unexpected extra line", rows[m][0])
    A, b = [], []
    for line_no, tokens in rows:
        values = _int_row(line_no, tokens, d + 1, "constraint row")
        if all(v == 0 for v in values[:d]):
            raise ParseError("zero constraint row", line_no, tokens[0][0])
        A.append(tuple(values[:d]))
        b.append(values[d])
    return HPolytope(A=tuple(A), b=tuple(b))


def parse_parametric(text) -> ParametricPolytope:
    """Header "d m p", rows "a | e | f", optional "Q:" block of "g | h"."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("missing header", 1)
    line_no, tokens = lines[0]
    d, m, p = _int_row(line_no, tokens, 3, "header")
    if d < 1:
        raise ParseError("dimension must be positive", line_no, tokens[0][0])
    if m < 1:
        raise ParseError("constraint count must be positive", line_no,
                         tokens[1][0])
    if p < 1:
        raise ParseError("parameter count must be positive", line_no,
                         tokens[2][0])
    rest = lines[1:]
    if len(rest) < m:
        raise _missing(lines, f"constraint row {len(rest) + 1} of {m}")
    A, E, f = [], [], []
    for line_no, tokens in rest[:m]:
        values = _int_row(line_no, tokens, d + p + 1, "constraint row")
        if all(v == 0 for v in values[:d]):
            raise ParseError("zero constraint row", line_no, tokens[0][0])
        A.append(tuple(values[:d]))
        E.append(tuple(values[d:d + p]))
        f.append(values[d + p])
    qrows = []
    tail = rest[m:]
    if tail:
        line_no, tokens = tail[0]
        if tokens[0][1] != "Q:" or len(tokens) != 1:
            raise ParseError("expected 'Q:' or end of file", line_no,
                             tokens[0][0])
        for line_no, tokens in tail[1:]:
            values = _int_row(line_no, tokens, p + 1, "parameter row")
            if all(v == 0 for v in values[:p]):
                raise ParseError("zero parameter row", line_no, tokens[0][0])
            qrows.append((tuple(values[:p]), values[p]))
    qset = HalfOpenPolyhedron.from_inequalities(
        [g for g, _ in qrows], [h for _, h in qrows])
    return ParametricPolytope(A=A, E=E, f=f, qset=qset)


# ---------------------------------------------------------------------------
# rendering


def _frac(x) -> str:
    return str(Fraction(x))


def _linear_str(coeffs, const=None) -> str:
    parts = []
    for j, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        name = f"q{j + 1}"
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c} {name}")
    if const is not None and (Fraction(const) != 0 or not parts):
        parts.append(_frac(const))
    if not parts:
        return "0"
    text = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            text += f" - {part[1:]}"
        else:
            text += f" + {part}"
    return text


def _row_str(normal, rhs, strict) -> str:
    rel = "<" if strict else "<="
    return f"{_linear_str(normal)} {rel} {_frac(rhs)}"


def _region_json(region):
    return [{"normal": [str(g) for g in normal],
             "rhs": _frac(rhs),
             "strict": bool(strict)}
            for normal, rhs, strict in region.rows]


def _vertex_json(v):
    return {"M": [[_frac(x) for x in row] for row in v.map_M],
            "c": [_frac(x) for x in v.map_c],
            "basis": [str(i) for i in v.basis]}


def _print_envelope(count, stats):
    payload = {
        "count": str(count),
        "num_vertices": str(stats.get("num_vertices", 0)),
        "num_cones": str(stats.get("num_cones", 0)),
        "max_depth": str(stats.get("max_depth", 0)),
    }
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_count(args):
    P = parse_polytope(_read(args.file))
    stats = {}
    count = count_polytope(P, max_index=args.max_index, stats=stats)
    if args.json:
        _print_envelope(count, stats)
    else:
        print(count)
    if args.verify:
        want = brute_count(P, cap=args.oracle_cap)
        if want != count:
            print(f"verify: mismatch: computed {count}, oracle {want}",
                  file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _parse_at(text, qdim):
    parts = text.split(",")
    try:
        q0 = [Fraction(tok.strip()) for tok in parts]
    except (ValueError, ZeroDivisionError):
        return None
    return q0 if len(q0) == qdim else None


def _cmd_pcount(args):
    pp = parse_parametric(_read(args.file))
    if args.at is None:
        print("error: pcount requires --at v1,...,vp", file=sys.stderr)
        return EXIT_USAGE
    q0 = _parse_at(args.at, pp.qdim)
    if q0 is None:
        print(f"error: --at must hold {pp.qdim} rational values",
              file=sys.stderr)
        return EXIT_USAGE
    stats = {}
    count = evaluate_count(pp, q0, max_index=args.max_index, stats=stats)
    if args.json:
        _print_envelope(count, stats)
    else:
        print(count)
    if stats.get("outside"):
        print("note: parameter lies in no chamber; the polytope is empty "
              "or lower-dimensional there", file=sys.stderr)
    if args.verify:
        b = tuple(sum(Fraction(e) * q for e, q in zip(erow, q0)) + fi
                  for erow, fi in zip(pp.E, pp.f))
        want = brute_count(HPolytope(A=pp.A, b=b), cap=args.oracle_cap)
        if want != count:
            print(f"verify: mismatch: computed {count}, oracle {want}",
                  file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_chambers(args):
    pp = parse_parametric(_read(args.file))
    analysis = pp.analysis(args.max_index)
    vertices = analysis.vertices
    index_of = {id(v): k for k, v in enumerate(vertices)}
    if args.json:
        payload = [{"region": _region_json(ho.region),
                    "vertices": [_vertex_json(v) for v in ho.active]}
                   for ho in analysis.open_chambers]
        print(json.dumps(payload, indent=2))
    else:
        print(f"vertices {len(vertices)}")
        for k, v in enumerate(vertices):
            form = ", ".join(_linear_str(row, const)
                             for row, const in zip(v.map_M, v.map_c))
            rows = ",".join(str(i) for i in v.basis)
            print(f"  {k}: v(q) = ({form})  [rows {rows}]")
        print(f"chambers {len(analysis.open_chambers)}")
        for k, ho in enumerate(analysis.open_chambers):
            rows = ", ".join(_row_str(*row) for row in ho.region.rows)
            active = ",".join(str(index_of[id(v)]) for v in ho.active)
            print(f"  {k}: {{ {rows} }}  active {active}")
    if args.verify:
        return _verify_chambers(pp, analysis, args.seed)
    return EXIT_OK


def _verify_chambers(pp, analysis, seed):
    """Sampled check: each parameter point in the chamber complex lies in
    exactly one half-open chamber, and both evaluation routes agree.

    Every point is scaled to integers once and tested against the rows of
    every open and every closed chamber: a full scan, which the compiled
    route's lookup is checked against.  The chamber samples come first,
    so the compiled route walks the split tree for them and then finds
    the 50 random points with the generated locate of the analysis
    (parametric._locator), which hands points on node hyperplanes back
    to the walk."""
    rng = random.Random(seed)
    spread = 1 + max((abs(x) for ch in analysis.chambers for x in ch.sample),
                     default=0)
    bound = int(spread) + 8
    points = [ch.sample for ch in analysis.chambers]
    for _ in range(50):
        points.append(tuple(Fraction(rng.randint(-bound, bound),
                                     rng.choice([1, 1, 2]))
                            for _ in range(pp.qdim)))
    open_rows = [ho.region.int_rows for ho in analysis.open_chambers]
    closed_rows = [ch.region.int_rows for ch in analysis.chambers]
    for q in points:
        D, z = linalg._int_row(q)
        owners = [rows for rows in open_rows if linalg._rows_hold(rows, D, z)]
        closed = any(linalg._rows_hold(rows, D, z) for rows in closed_rows)
        if closed != (len(owners) == 1) or (not closed and owners):
            print(f"verify: partition violated at q = {q}", file=sys.stderr)
            return EXIT_VERIFY
        via_c = analysis.count_at(q, via="chambers")
        via_a = analysis.count_at(q, via="activities")
        if via_c != via_a:
            print(f"verify: representations disagree at q = {q}: "
                  f"{via_c} vs {via_a}", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_decompose(args):
    P = parse_polytope(_read(args.file))
    vertices = enumerate_vertices(P)
    if not vertices:
        print("error: polytope is empty", file=sys.stderr)
        return EXIT_SEMANTIC
    if not 0 <= args.vertex < len(vertices):
        print(f"error: vertex index {args.vertex} out of range "
              f"(0..{len(vertices) - 1})", file=sys.stderr)
        return EXIT_SEMANTIC
    cone = vertex_cone(P, vertices[args.vertex])
    total = signed_decompose(cone, max_index=args.max_index)
    print(json.dumps(total.to_json(), indent=2))
    if args.verify:
        return _verify_decomposition(cone, total, args.seed)
    return EXIT_OK


def _verify_decomposition(cone, total, seed):
    """Sampled check of the signed identity against the closed cone."""
    rng = random.Random(seed)
    base = [int(a) for a in cone.apex]
    for _ in range(300):
        x = tuple(b + rng.randint(-6, 6) for b in base)
        got = total.evaluate(x)
        want = 1 if cone.contains(x) else 0
        if got != want:
            print(f"verify: signed identity fails at x = {x}: "
                  f"{got} vs {want}", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_oracle(args):
    P = parse_polytope(_read(args.file))
    count = brute_count(P, cap=args.oracle_cap)
    if args.json:
        print(json.dumps({"count": str(count)}, indent=2))
    else:
        print(count)
    if args.verify:
        want = count_polytope(P, max_index=args.max_index)
        if want != count:
            print(f"verify: mismatch: oracle {count}, computed {want}",
                  file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _read(path):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8").split("\n")
        raise ParseError("input is not valid UTF-8", len(head),
                         len(head[-1]) + 1) from None


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("file", help="input file")
    common.add_argument("--max-index", type=int, default=DEFAULT_MAX_INDEX,
                        metavar="L", help="stop decomposing cones at this index")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--verify", action="store_true",
                        help="cross-check the result and exit 4 on mismatch")
    common.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed for randomized verification")
    common.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP,
                        metavar="N", help="enumeration size limit")
    parser = _Parser(prog="primalcount",
                     description="Exact lattice-point counts of rational "
                                 "polytopes and parametric families.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.add_parser("count", parents=[common],
                   help="count integer points of a polytope")
    pcount = sub.add_parser("pcount", parents=[common],
                            help="evaluate the parametric count at one q")
    pcount.add_argument("--at", metavar="v1,...,vp",
                        help="parameter value, comma-separated rationals")
    sub.add_parser("chambers", parents=[common],
                   help="print the half-open chamber decomposition")
    decompose = sub.add_parser("decompose", parents=[common],
                               help="print one vertex cone's signed "
                                    "decomposition into leaves of index "
                                    "at most --max-index")
    decompose.add_argument("--vertex", type=int, default=0, metavar="K",
                           help="vertex index (sorted order)")
    sub.add_parser("oracle", parents=[common],
                   help="count by brute-force enumeration")
    return parser


_COMMANDS = {
    "count": _cmd_count,
    "pcount": _cmd_pcount,
    "chambers": _cmd_chambers,
    "decompose": _cmd_decompose,
    "oracle": _cmd_oracle,
}


def _attach_negative_at(argv):
    """Write `--at -1/2` as `--at=-1/2`.

    argparse takes a token that starts with '-' and is not a plain
    negative number, such as -1/2 or -1,2, for an option.  Joined to --at
    with '=', it is read as the value.
    """
    out = list(argv)
    i = 0
    while i < len(out) - 1 and out[i] != "--":
        if out[i] == "--at" and re.match(r"-[0-9.]", out[i + 1]):
            out[i:i + 2] = [f"--at={out[i + 1]}"]
        i += 1
    return out


# The parser main builds on its first call and reuses.  Parsing leaves
# it unchanged, prog is fixed, and _Parser.error and argparse's printers
# look up sys.stderr and sys.stdout when they print, so each call gives
# the bytes a fresh parser would.
_parser = None


def main(argv=None) -> int:
    global _parser
    # exact counts and input integers may have any number of digits;
    # Pythons before 3.10.7 have no such limit and no setter for it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    argv = _attach_negative_at(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE
    if args.max_index < 1:
        print("error: --max-index must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.oracle_cap < 0:
        print("error: --oracle-cap must be at least 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SEMANTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
