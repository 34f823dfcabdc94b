"""File-driven command line front end.

Matroid files are line oriented; ``#`` starts a comment and blank lines are
skipped.  The first meaningful line must be ``n: <int>``, followed by
exactly one generator clause::

    bases: 1,2 1,3 2,3        # space-separated bases, comma-separated labels
    uniform: <k> <n>
    graph: 1-2 2-3 3-1        # edges become ground set 1..m in listed order

and an optional ``rank: <int>`` that is validated against the computed rank.
Files are UTF-8, and one leading byte-order mark is ignored.

Reports are line oriented and byte-stable: subsets print sorted by
cardinality then numeric value, and the command echo omits anything (thread
counts, file paths) that does not affect the result.  Exit codes: 0 on
success, 1 on a verification mismatch, 2 on parse or validation errors.

Engines load through the package's lazy modules: ``cli`` binds them at
import without running them, and each runs on the first call a command
makes into it, so a process loads only the parser, the matroid layer and
the one engine its command needs.  ``invariants`` and ``catalog`` are lazy
in the same way; ``full_catalog`` stays importable from here.

The input digest comes from CPython's builtin SHA-256 module (``_sha2``;
``_sha256`` before 3.12), the lean module ``random`` also prefers:
``hashlib`` loads OpenSSL, which takes a fresh process 3-5 ms, longer than
a small job.  The digest is the same, and ``hashlib`` is the fallback where
the builtin module is not built.  The builtin hashes about five times
slower per byte, which only files of megabytes notice.
"""

from __future__ import annotations

import argparse
import sys

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import catalog, decomposition, invariants, pyramid, verify
from .bitset import elements_of, mask_of, subset_formatter
from .errors import GroundSetTooLarge, MatvolError, ParseError, RankMismatch, WorkBudgetExceeded
from .matroid import (
    MAX_GROUND_SET, Graph, Matroid, coconnected_flats, from_bases, graphic, is_connected, uniform
)


class Report:
    """A command's output lines and exit status, rendered below a header."""

    def __init__(self, command: str, digest: str | None):
        self.command = command
        self.digest = digest
        self.lines: list[str] = []
        self.status = 0

    def render(self) -> str:
        header = [f"# command: {self.command}"]
        if self.digest is not None:
            header.append(f"# input: sha256:{self.digest}")
        return "\n".join(header + self.lines)


# ---------------------------------------------------------------------------
# matroid file grammar
# ---------------------------------------------------------------------------

def parse_matroid_file(text: str) -> Matroid:
    n: int | None = None
    generator: tuple[str, str, int] | None = None
    declared_rank: tuple[int, int] | None = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("expected 'key: value'", lineno)
        key = key.strip()
        rest = rest.strip()
        if key == "n":
            if n is not None:
                raise ParseError("duplicate 'n' line", lineno)
            n = _parse_int(rest, "ground set size", lineno)
            if n > MAX_GROUND_SET:
                raise GroundSetTooLarge(f"n={n} exceeds the hard limit of {MAX_GROUND_SET} elements")
        elif key in _GENERATORS:
            if n is None:
                raise ParseError("'n: <int>' must come first", lineno)
            if generator is not None:
                raise ParseError("only one generator clause is allowed", lineno)
            generator = (key, rest, lineno)
        elif key == "rank":
            if n is None:
                raise ParseError("'n: <int>' must come first", lineno)
            if declared_rank is not None:
                raise ParseError("duplicate 'rank' line", lineno)
            declared_rank = (_parse_int(rest, "rank", lineno), lineno)
        else:
            raise ParseError(f"unknown key {key!r}", lineno)

    if n is None:
        raise ParseError("missing 'n: <int>' line")
    if generator is None:
        raise ParseError("missing generator clause (bases / uniform / graph)")

    kind, rest, lineno = generator
    m = _GENERATORS[kind](n, rest, lineno)

    if declared_rank is not None and declared_rank[0] != m.rank_value:
        raise RankMismatch(
            f"declared rank {declared_rank[0]} but computed rank {m.rank_value}"
        )
    return m


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", lineno) from None


def _parse_bases(n: int, rest: str, lineno: int) -> Matroid:
    """A token of distinct labels spelled as ``str(e)`` is read by one sum
    over a label table; a repeated label carries and lowers the popcount
    below the count of pieces.  Any other token takes the per-piece loop,
    which accepts the other spellings ``int`` reads and words each error."""
    tokens = rest.split()
    if not tokens:
        raise ParseError("bases clause needs at least one basis", lineno)
    bit = {str(e): 1 << (e - 1) for e in range(1, n + 1)}
    masks = []
    for token in tokens:
        pieces = token.split(",")
        try:
            mask = sum(map(bit.__getitem__, pieces))
        except KeyError:
            mask = 0
        if mask.bit_count() == len(pieces):
            masks.append(mask)
            continue
        elements = []
        for piece in pieces:
            e = _parse_int(piece, "element label", lineno)
            if not 1 <= e <= n:
                raise ParseError(f"element {e} outside 1..{n}", lineno)
            elements.append(e)
        if len(set(elements)) != len(elements):
            raise ParseError(f"repeated element in basis {token!r}", lineno)
        masks.append(mask_of(elements))
    return from_bases(n, masks)


def _parse_uniform(n: int, rest: str, lineno: int) -> Matroid:
    tokens = rest.split()
    if len(tokens) != 2:
        raise ParseError("uniform clause needs '<k> <n>'", lineno)
    k = _parse_int(tokens[0], "uniform rank", lineno)
    n2 = _parse_int(tokens[1], "uniform size", lineno)
    if n2 != n:
        raise ParseError(f"uniform size {n2} disagrees with n = {n}", lineno)
    return uniform(k, n)


def _parse_graph(n: int, rest: str, lineno: int) -> Matroid:
    tokens = rest.split()
    if not tokens:
        raise ParseError("graph clause needs at least one edge", lineno)
    if len(tokens) != n:
        raise ParseError(f"{len(tokens)} edges disagree with n = {n}", lineno)
    edges = []
    for token in tokens:
        parts = token.split("-")
        if len(parts) != 2:
            raise ParseError(f"edge {token!r} must look like 'u-v'", lineno)
        u = _parse_int(parts[0], "vertex", lineno)
        v = _parse_int(parts[1], "vertex", lineno)
        if u < 1 or v < 1:
            raise ParseError("vertices are positive integers", lineno)
        edges.append((u, v))
    vertices = max(max(u, v) for u, v in edges)
    return graphic(Graph(vertices, tuple(edges)))


_GENERATORS = {"bases": _parse_bases, "uniform": _parse_uniform, "graph": _parse_graph}


def serialize_matroid(m: Matroid) -> str:
    """Canonical file form; parse(serialize(M)) reproduces M."""
    if m.rank_value == 0:
        return f"n: {m.n}\nuniform: 0 {m.n}\n"
    tokens = [",".join(str(e) for e in elements_of(b)) for b in sorted(m.bases)]
    return f"n: {m.n}\nbases: {' '.join(tokens)}\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load(path: str) -> tuple[Matroid, str]:
    """The matroid in a file and the SHA-256 of its raw bytes.  One leading
    byte-order mark is dropped after decoding; error offsets count raw bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {data[exc.start]:#04x} at offset {exc.start}") from None
    return parse_matroid_file(text.removeprefix("\ufeff")), digest


def cmd_decompose(args) -> Report:
    m, digest = _load(args.file)
    maker = {
        "base": decomposition.decompose_base_polytope,
        "indep": decomposition.decompose_independent_polytope,
        "flag": decomposition.decompose_truncation_flag,
    }[args.polytope]
    d = maker(m)
    report = Report(f"decompose --polytope {args.polytope}", digest)
    report.lines.append(f"family: {d.family}")
    render = subset_formatter(m.n)
    for mask, c in d.sorted_items():
        report.lines.append(f"y[{render(mask)}] = {c}")
    return report


def cmd_volume(args) -> Report:
    m, digest = _load(args.file)
    if args.degree:  # base polytope only; orbit_degree computes its volume once
        vol, normalized = pyramid.orbit_degree(m)
    else:
        compute = {
            "base": pyramid.pyramid_volume_base,
            "indep": pyramid.pyramid_volume_independent,
            "flag": pyramid.pyramid_volume_flag,
        }[args.polytope]
        vol = compute(m)
    command = f"volume --polytope {args.polytope}" + (" --degree" if args.degree else "")
    report = Report(command, digest)
    report.lines.append(f"volume = {vol}")
    if args.degree:
        report.lines.append(f"normalized_volume = {normalized}")
    return report


def cmd_invariants(args) -> Report:
    m, digest = _load(args.file)
    report = Report("invariants", digest)
    t = invariants.tutte(m)
    report.lines.append(f"n = {m.n}")
    report.lines.append(f"rank = {m.rank_value}")
    report.lines.append(f"bases = {len(m.bases)}")
    report.lines.append(f"connected = {'true' if is_connected(m) else 'false'}")
    for (i, j), c in sorted(t.coeffs):
        report.lines.append(f"tutte b[{i},{j}] = {c}")
    b = t.coefficient(1, 0)  # Crapo's beta, b10 of the expansion
    report.lines.append(f"beta = {b}")
    report.lines.append(f"signed_beta = {-b if m.rank_value % 2 == 0 else b}")
    g = t.gamma()
    report.lines.append(f"gamma = {g}")
    report.lines.append(f"signed_gamma = {g if m.rank_value % 2 == 0 else -g}")
    flats = " ".join(map(subset_formatter(m.n), coconnected_flats(m)))
    report.lines.append(f"coconnected_flats = {flats}")
    return report


def cmd_verify(args) -> Report:
    if args.catalog:
        if args.file is not None:
            raise ParseError("verify takes a matroid file or --catalog, not both")
        max_n = args.max_n or 5
        if max_n > verify.VERIFY_MAX_N:
            raise WorkBudgetExceeded(
                f"verify takes ground sets of at most {verify.VERIFY_MAX_N} elements, "
                f"and the catalog up to --max-n {max_n} holds larger ones"
            )
        command = f"verify --catalog --max-n {max_n}"
        targets = [(e.name, e.matroid) for e in catalog.full_catalog(max_n)]
        digest = None
    else:
        if args.file is None:
            raise ParseError("verify needs a matroid file unless --catalog is given")
        if args.max_n is not None:
            raise ParseError("--max-n applies to --catalog only")
        m, digest = _load(args.file)
        command = "verify"
        targets = [("input", m)]
    report = Report(command, digest)
    total = 0
    for name, m in targets:
        checks, mismatches = verify.verify_matroid(m, name)
        total += checks
        if mismatches:
            first = mismatches[0]
            report.lines.append(f"FAIL {first.matroid_name}: {first.check}")
            report.lines.append(f"  {first.detail}")
            report.lines.append("  reproduce with:")
            for line in serialize_matroid(m).strip().splitlines():
                report.lines.append(f"    {line}")
            report.status = 1
            return report
    report.lines.append(f"OK ({total} checks)")
    return report


def __getattr__(name: str):
    """``full_catalog`` resolves on first use, so ``catalog`` runs only then."""
    if name == "full_catalog":
        return catalog.full_catalog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matvol",
        description="Exact decompositions and volumes of matroid polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="signed simplex decomposition of a polytope")
    p.add_argument("file")
    p.add_argument("--polytope", choices=["base", "indep", "flag"], default="base")
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("volume", help="lattice-normalized volume")
    p.add_argument("file")
    p.add_argument("--polytope", choices=["base", "indep", "flag"], default="base")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted for compatibility; has no effect on results")
    p.add_argument("--degree", action="store_true",
                   help="also print (n-1)! times the base polytope volume")
    p.set_defaults(run=cmd_volume)

    p = sub.add_parser("invariants", help="rank, connectivity, Tutte and friends")
    p.add_argument("file")
    p.set_defaults(run=cmd_invariants)

    p = sub.add_parser("verify", help="formula engines against the geometric oracle")
    p.add_argument("file", nargs="?")
    p.add_argument("--catalog", action="store_true")
    p.add_argument("--max-n", type=_positive_int, dest="max_n", help="with --catalog; default 5")
    p.set_defaults(run=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "degree", False) and args.polytope != "base":
        parser.error("--degree applies to the base polytope only")
    try:
        report = args.run(args)
    except (MatvolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return report.status


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
