import contextlib
import hashlib
import resource
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matvol.cli import main, parse_matroid_file, serialize_matroid
from matvol.errors import MatvolError, ParseError, RankMismatch, UnequalCardinality
from matvol.matroid import Matroid, from_bases, uniform

U23_TEXT = "n: 3\nbases: 1,2 1,3 2,3\n"
PYRAMID_TEXT = "n: 4\nbases: 1,2 1,3 1,4 2,3 2,4\n"
FLAG_TEXT = "n: 3\nbases: 1,2 1,3\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_parse_u23():
    assert parse_matroid_file(U23_TEXT) == uniform(2, 3)


def test_labels_in_other_integer_spellings_still_parse():
    """Leading zeros and signs are not the labels' canonical spelling, so
    these tokens take the per-piece reading, which accepts them as before."""
    assert parse_matroid_file("n: 3\nbases: 01,2 +1,3 2,3\n").bases == {3, 5, 6}


def test_parse_pyramid():
    m = parse_matroid_file(PYRAMID_TEXT)
    assert m == from_bases(4, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010])


def test_parse_comments_and_blanks():
    text = "# a matroid\n\nn: 3  # ground set\nbases: 1,2 1,3 2,3\n"
    assert parse_matroid_file(text) == uniform(2, 3)


def test_parse_uniform_clause():
    assert parse_matroid_file("n: 4\nuniform: 2 4\n") == uniform(2, 4)
    with pytest.raises(ParseError):
        parse_matroid_file("n: 4\nuniform: 2 5\n")


def test_parse_graph_clause():
    m = parse_matroid_file("n: 3\ngraph: 1-2 2-3 3-1\n")
    assert m == uniform(2, 3)
    with pytest.raises(ParseError):
        parse_matroid_file("n: 4\ngraph: 1-2 2-3 3-1\n")


def test_parse_cardinality_error():
    with pytest.raises(UnequalCardinality):
        parse_matroid_file("n: 3\nbases: 1,2 3\n")


def test_parse_rank_clause():
    assert parse_matroid_file(U23_TEXT + "rank: 2\n") == uniform(2, 3)
    with pytest.raises(RankMismatch):
        parse_matroid_file(U23_TEXT + "rank: 1\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_matroid_file("n: 3\nwhat: ever\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_matroid_file("bases: 1,2\n")  # n must come first
    with pytest.raises(ParseError):
        parse_matroid_file("n: 3\n")  # missing generator
    with pytest.raises(ParseError):
        parse_matroid_file("n: 3\nbases: 1,2 1,3\nuniform: 2 3\n")


def test_serialize_roundtrip(catalog5):
    for entry in catalog5:
        text = serialize_matroid(entry.matroid)
        assert parse_matroid_file(text) == entry.matroid, entry.name
        assert serialize_matroid(parse_matroid_file(text)) == text, entry.name


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_decompose_pyramid_golden(tmp_path, capsys):
    path = write(tmp_path, "pyramid.matroid", PYRAMID_TEXT)
    code, out, _ = run(capsys, ["decompose", path, "--polytope", "base"])
    assert code == 0
    assert out == (
        f"# command: decompose --polytope base\n"
        f"# input: sha256:{digest(PYRAMID_TEXT)}\n"
        "family: Delta\n"
        "y[{1,2}] = 1\n"
        "y[{1,3,4}] = 1\n"
        "y[{2,3,4}] = 1\n"
        "y[{1,2,3,4}] = -1\n"
    )


def test_decompose_u23_indep_golden(tmp_path, capsys):
    path = write(tmp_path, "u23.matroid", U23_TEXT)
    code, out, _ = run(capsys, ["decompose", path, "--polytope", "indep"])
    assert code == 0
    assert out == (
        f"# command: decompose --polytope indep\n"
        f"# input: sha256:{digest(U23_TEXT)}\n"
        "family: D\n"
        "y[{1,2}] = 1\n"
        "y[{1,3}] = 1\n"
        "y[{2,3}] = 1\n"
        "y[{1,2,3}] = -1\n"
    )


def test_decompose_u13_golden(tmp_path, capsys):
    text = "n: 3\nuniform: 1 3\n"
    path = write(tmp_path, "u13.matroid", text)
    code, out, _ = run(capsys, ["decompose", path])
    assert code == 0
    assert out.endswith("family: Delta\ny[{1,2,3}] = 1\n")


def test_volume_u23_indep_golden(tmp_path, capsys):
    path = write(tmp_path, "u23.matroid", U23_TEXT)
    code, out, _ = run(capsys, ["volume", path, "--polytope", "indep"])
    assert code == 0
    assert out.endswith("volume = 5/6\n")


def test_volume_flag_golden(tmp_path, capsys):
    path = write(tmp_path, "flag.matroid", FLAG_TEXT)
    code, out, _ = run(capsys, ["volume", path, "--polytope", "flag"])
    assert code == 0
    assert out.endswith("volume = 3/2\n")


def test_volume_degree_golden(tmp_path, capsys):
    text = "n: 3\nuniform: 1 3\n"
    path = write(tmp_path, "u13.matroid", text)
    code, out, _ = run(capsys, ["volume", path, "--degree"])
    assert code == 0
    assert out == (
        f"# command: volume --polytope base --degree\n"
        f"# input: sha256:{digest(text)}\n"
        "volume = 1/2\n"
        "normalized_volume = 1\n"
    )


def test_volume_thread_bytes_identical(tmp_path, capsys):
    path = write(tmp_path, "u23.matroid", U23_TEXT)
    outputs = set()
    for threads in ("1", "2", "8"):
        code, out, _ = run(capsys, ["volume", path, "--polytope", "indep", "--threads", threads])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_invariants_golden(tmp_path, capsys):
    path = write(tmp_path, "u23.matroid", U23_TEXT)
    code, out, _ = run(capsys, ["invariants", path])
    assert code == 0
    lines = out.splitlines()
    assert "rank = 2" in lines
    assert "connected = true" in lines
    assert "tutte b[0,1] = 1" in lines
    assert "tutte b[1,0] = 1" in lines
    assert "tutte b[2,0] = 1" in lines
    assert "beta = 1" in lines
    assert "signed_beta = -1" in lines
    assert "gamma = 0" in lines
    assert "coconnected_flats = {} {1} {2} {3}" in lines


def test_invariants_single_coloop(tmp_path, capsys):
    path = write(tmp_path, "u11.matroid", "n: 1\nbases: 1\n")
    code, out, _ = run(capsys, ["invariants", path])
    assert code == 0
    assert "beta = 1" in out.splitlines()
    assert "connected = true" in out.splitlines()


def test_invariants_disconnected_beta_zero(tmp_path, capsys):
    text = "n: 2\nbases: 1,2\n"
    path = write(tmp_path, "coloops.matroid", text)
    code, out, _ = run(capsys, ["invariants", path])
    assert code == 0
    assert "beta = 0" in out.splitlines()
    assert "connected = false" in out.splitlines()


def test_verify_single_file(tmp_path, capsys):
    path = write(tmp_path, "u23.matroid", U23_TEXT)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert out.endswith("OK (3 checks)\n")


def test_verify_catalog_small(capsys):
    code, out, _ = run(capsys, ["verify", "--catalog", "--max-n", "3"])
    assert code == 0
    assert "OK (" in out


def test_verify_catalog_default_depth(capsys):
    code, out, _ = run(capsys, ["verify", "--catalog", "--max-n", "5"])
    assert code == 0
    assert out.splitlines()[-1].startswith("OK (")


def test_verify_detects_corrupted_oracle(tmp_path, capsys, monkeypatch):
    import matvol.verify as verify_mod

    def wrong_volume(v, frame):
        return Fraction(99)

    monkeypatch.setattr(verify_mod, "volume_exact", wrong_volume)
    path = write(tmp_path, "u23.matroid", U23_TEXT)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 1
    assert "FAIL" in out
    assert "reproduce with:" in out
    assert "bases: 1,2 1,3 2,3" in out


def test_exit_code_on_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.matroid", "n: 3\nbases: 1,2 3\n")
    code, _, err = run(capsys, ["decompose", path])
    assert code == 2
    assert "error:" in err


def test_non_utf8_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.matroid"
    path.write_bytes(b"n: 3\nbases: 1,2 \xff\n")
    for argv in (["decompose", str(path)], ["verify", str(path)]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: not UTF-8 text: byte 0xff at offset 16\n"


def test_byte_order_mark_parses_like_the_file_without_it(tmp_path, capsys):
    """One leading U+FEFF is dropped after decoding, and the digest is still
    taken over the raw bytes; a second mark is an ordinary character."""
    bom = "\ufeff"
    plain = write(tmp_path, "plain.matroid", PYRAMID_TEXT)
    marked = tmp_path / "marked.matroid"
    marked.write_bytes((bom + PYRAMID_TEXT).encode())
    marked = str(marked)
    for argv in (["decompose"], ["volume", "--polytope", "indep"], ["invariants"], ["verify"]):
        code, expected, _ = run(capsys, [argv[0], plain, *argv[1:]])
        assert code == 0
        code, out, err = run(capsys, [argv[0], marked, *argv[1:]])
        assert (code, err) == (0, "")
        assert out == expected.replace(digest(PYRAMID_TEXT), digest(bom + PYRAMID_TEXT))
    twice = tmp_path / "twice.matroid"
    twice.write_bytes((2 * bom + PYRAMID_TEXT).encode())
    code, _, err = run(capsys, ["decompose", str(twice)])
    assert code == 2
    assert err == "error: line 1: unknown key '\\ufeffn'\n"
    latin1 = tmp_path / "marked-latin1.matroid"
    latin1.write_bytes(bom.encode() + b"n: 3\nbases: 1,2 \xff\n")
    code, _, err = run(capsys, ["decompose", str(latin1)])
    assert err == "error: not UTF-8 text: byte 0xff at offset 19\n"


def test_exit_code_on_flag_volume_of_loopy_matroid(tmp_path, capsys):
    path = write(tmp_path, "loopy.matroid", "n: 2\nbases: 1\n")
    code, _, err = run(capsys, ["volume", path, "--polytope", "flag"])
    assert code == 2
    assert "error:" in err


def test_degree_flag_requires_base(tmp_path, capsys):
    path = write(tmp_path, "u23.matroid", U23_TEXT)
    with pytest.raises(SystemExit) as excinfo:
        main(["volume", path, "--polytope", "indep", "--degree"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_degree_guard_comes_before_the_file_read(capsys):
    """A --degree with another polytope is a usage error even when the file
    is missing: the guard runs before any file is read."""
    with pytest.raises(SystemExit) as excinfo:
        main(["volume", "/no/such/file", "--polytope", "flag", "--degree"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "--degree applies to the base polytope only" in captured.err
    assert "No such file" not in captured.err
    assert captured.out == ""


def test_threads_below_one_rejected(tmp_path, capsys):
    path = write(tmp_path, "u23.matroid", U23_TEXT)
    for threads in ("0", "-1"):
        with pytest.raises(SystemExit) as excinfo:
            main(["volume", path, "--threads", threads])
        assert excinfo.value.code == 2
        assert "at least 1" in capsys.readouterr().err


def test_verify_catalog_max_n_below_one_rejected(capsys):
    for max_n in ("0", "-2"):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--catalog", "--max-n", max_n])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "at least 1" in captured.err
        assert captured.out == ""


def test_volume_degree_of_disconnected_matroid(tmp_path, capsys):
    path = write(tmp_path, "loop.matroid", "n: 2\nbases: 1\n")
    code, out, err = run(capsys, ["volume", path, "--degree"])
    assert code == 2
    assert out == ""
    assert err == "error: degree is defined here for connected matroids only\n"


def test_missing_file_is_validation_error(capsys):
    code, _, err = run(capsys, ["invariants", "/nonexistent/file.matroid"])
    assert code == 2
    assert "error:" in err


def test_graph_vertex_labels_do_not_size_the_work(tmp_path):
    """A huge vertex label costs nothing: the union-find is keyed by the
    vertices present.  The CLI runs in a child whose address space is capped
    at 1 GiB, so a table sized by the label fails there instead of paging."""
    import resource
    import subprocess
    import sys

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    outputs = []
    for edges in ("1-1000000000000 1000000000000-2 2-1", "1-3 3-2 2-1"):
        path = write(tmp_path, "g.matroid", f"n: 3\ngraph: {edges}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "matvol.cli", "invariants", path],
            capture_output=True, text=True, preexec_fn=capped, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines()[2:])  # past the command and digest lines
    assert outputs[0] == outputs[1]
    assert "rank = 2" in outputs[0]


# ---------------------------------------------------------------------------
# inputs that must fail fast
# ---------------------------------------------------------------------------

HUGE_N_BASES_TEXT = "n: 100000000000\nbases: 100000000000\n"


@contextlib.contextmanager
def _address_space_headroom(extra=1 << 30):
    """Cap this process's address space at its current size plus ``extra``
    while the block runs, so an input that sizes an integer by a huge label
    raises MemoryError here instead of paging."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        cap = int(fh.read().split()[0]) * resource.getpagesize() + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


_FUZZ_INTS = st.one_of(st.integers(-3, 6), st.sampled_from([21, 10**11, -(10**11)]))
_FUZZ_LINES = st.one_of(
    _FUZZ_INTS.map("n: {}".format),
    _FUZZ_INTS.map("rank: {}".format),
    st.lists(st.lists(_FUZZ_INTS, min_size=1, max_size=3).map(lambda b: ",".join(map(str, b))), max_size=4)
    .map(lambda bs: "bases: " + " ".join(bs)),
    st.tuples(_FUZZ_INTS, _FUZZ_INTS).map(lambda kn: f"uniform: {kn[0]} {kn[1]}"),
    st.lists(st.tuples(_FUZZ_INTS, _FUZZ_INTS).map(lambda uv: f"{uv[0]}-{uv[1]}"), max_size=5)
    .map(lambda es: "graph: " + " ".join(es)),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@example(HUGE_N_BASES_TEXT)
@given(
    st.one_of(
        st.lists(_FUZZ_LINES, max_size=5),
        st.tuples(_FUZZ_INTS, st.lists(_FUZZ_LINES, max_size=4)).map(lambda t: [f"n: {t[0]}", *t[1]]),
    ).map("\n".join)
)
def test_grammar_fuzz_gives_a_matroid_or_a_matvol_error(text):
    with _address_space_headroom():
        try:
            m = parse_matroid_file(text)
        except MatvolError:
            return
    assert isinstance(m, Matroid)


@pytest.mark.parametrize(
    "argv, text", [(["invariants"], HUGE_N_BASES_TEXT), (["verify", "--catalog", "--max-n", "10"], None)]
)
def test_inputs_past_the_caps_exit_2_at_once(tmp_path, argv, text):
    """A huge ``n:`` and a catalog past ``VERIFY_MAX_N`` are refused before
    any table or catalog is built.  The child's address space is capped at
    1 GiB and its wall time at 5 s."""
    import subprocess
    import sys

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    files = [write(tmp_path, "huge.matroid", text)] if text else []
    proc = subprocess.run(
        [sys.executable, "-m", "matvol.cli", *argv, *files],
        capture_output=True, text=True, preexec_fn=capped, timeout=5,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_verify_catalog_past_the_cap_is_refused_before_the_catalog_is_built(capsys, monkeypatch):
    import matvol.catalog
    from matvol.verify import VERIFY_MAX_N

    def refuse(max_n):
        raise AssertionError(f"full_catalog({max_n}) was built")

    monkeypatch.setattr(matvol.catalog, "full_catalog", refuse)
    code, out, err = run(capsys, ["verify", "--catalog", "--max-n", str(VERIFY_MAX_N + 1)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: verify takes ground sets of at most {VERIFY_MAX_N} elements, "
        f"and the catalog up to --max-n {VERIFY_MAX_N + 1} holds larger ones\n"
    )


def test_invariants_report_matches_the_library(tmp_path, capsys, catalog5):
    """The report reads beta off the Tutte expansion; the library sums it
    over the rank table.  They agree on every catalog(5) matroid, loops and
    coloops (n = 1) included."""
    from matvol.invariants import beta, gamma, signed_beta, signed_gamma
    from matvol.matroid import is_connected

    path = tmp_path / "m.matroid"
    for entry in catalog5:
        m = entry.matroid
        path.write_text(serialize_matroid(m))
        code, out, _ = run(capsys, ["invariants", str(path)])
        assert code == 0
        report = dict(line.split(" = ", 1) for line in out.splitlines()[2:])
        assert report["connected"] == str(is_connected(m)).lower(), entry.name
        for name, invariant in (("beta", beta), ("signed_beta", signed_beta),
                                ("gamma", gamma), ("signed_gamma", signed_gamma)):
            assert report[name] == str(invariant(m)), (entry.name, name)
    assert any(entry.matroid.n == 1 for entry in catalog5)


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("n: three\nuniform: 1 3\n", [], "line 1: ground set size must be an integer, got 'three'"),
        ("n: 3\nbases: 1,2,1\n", [], "line 2: repeated element in basis '1,2,1'"),
        ("n: 3\nuniform: 2\n", [], "line 2: uniform clause needs '<k> <n>'"),
        ("n: 3\ngraph:\n", [], "line 2: graph clause needs at least one edge"),
        ("n: 1\ngraph: 1-2-3\n", [], "line 2: edge '1-2-3' must look like 'u-v'"),
        ("n: 1\ngraph: 0-1\n", [], "line 2: vertices are positive integers"),
        (U23_TEXT, ["--threads", "x"], "argument --threads: expected an integer, got 'x'"),
        ("n: 3\nbases: 1,,2\n", [], "line 2: element label must be an integer, got ''"),
        ("n: 3\nbases: x\n", [], "line 2: element label must be an integer, got 'x'"),
        ("n: 3\nbases: 0,1\n", [], "line 2: element 0 outside 1..3"),
        ("n: 3\nbases: -1,2\n", [], "line 2: element -1 outside 1..3"),
        ("n: 3\nbases: 1,4\n", [], "line 2: element 4 outside 1..3"),
        ("n: 3\nbases: 1,1\n", [], "line 2: repeated element in basis '1,1'"),
        ("n: 3\nbases:\n", [], "line 2: bases clause needs at least one basis"),
        ("what: 1\nn: 3\n", [], "line 1: unknown key 'what'"),
        ("rank: 2\nn: 3\n", [], "line 1: 'n: <int>' must come first"),
        ("uniform: 2 3\nn: 3\n", [], "line 1: 'n: <int>' must come first"),
        ("n: 3\nn: 3\n", [], "line 2: duplicate 'n' line"),
        ("n: 3\nrank: 2\nrank: 2\nuniform: 2 3\n", [], "line 3: duplicate 'rank' line"),
        ("n: 3\nuniform: 2 3\nbases: 1,2\n", [], "line 3: only one generator clause is allowed"),
        ("n: 3\nbases: 1,01\n", [], "line 2: repeated element in basis '1,01'"),
        ("n: 3\nbases: 1,1,9\n", [], "line 2: element 9 outside 1..3"),
    ],
    ids=["non-integer", "repeated-element", "uniform-arity", "empty-graph", "edge-shape", "vertex-zero",
         "threads", "empty-label", "lone-label", "label-zero", "label-negative", "label-past-n",
         "label-twice", "empty-bases", "unknown-key-first", "rank-before-n", "generator-before-n",
         "n-twice", "rank-twice", "generator-twice", "label-twice-spelled-two-ways",
         "label-past-n-after-a-repeat"],
)
def test_grammar_and_option_refusals_exit_2(tmp_path, capsys, text, argv, message):
    """Each malformed file or option value exits 2 with empty stdout, and
    stderr ends with its message (a usage line comes first from argparse)."""
    try:
        code = main(["volume", write(tmp_path, "m.matroid", text), *argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "/no/such/file", "--catalog"], "verify takes a matroid file or --catalog, not both"),
        (["verify", "/no/such/file", "--max-n", "9"], "--max-n applies to --catalog only"),
    ],
)
def test_verify_refuses_arguments_it_would_ignore(capsys, argv, message):
    """A file with --catalog, or --max-n without it, is refused before the
    file is read, so a missing file is not what the error names."""
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_catalog_header_names_the_default_depth(capsys):
    code, out, _ = run(capsys, ["verify", "--catalog", "--max-n", "2"])
    assert code == 0 and out.startswith("# command: verify --catalog --max-n 2\n")
    code, out, _ = run(capsys, ["verify", "--catalog"])
    assert code == 0 and out.splitlines() == ["# command: verify --catalog --max-n 5", "OK (368 checks)"]


def test_verify_without_a_file_or_catalog_exits_2(capsys):
    code, out, err = run(capsys, ["verify"])
    assert code == 2
    assert out == ""
    assert err == "error: verify needs a matroid file unless --catalog is given\n"
