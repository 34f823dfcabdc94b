"""The pyramid recursion against the tuple formula, the geometry oracle and
closed forms past the reach of both."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest

import matvol
from matvol.cli import main
from matvol.errors import DimensionMismatch, DisconnectedMatroid, MatvolError
from matvol.matroid import (
    Graph,
    components,
    contract,
    direct_sum,
    from_bases,
    graphic,
    is_connected,
    restriction,
    uniform,
)
from matvol.oracle import LatticeFrame, VertexSet, vertices_base, vertices_indep, volume_exact
from matvol.pyramid import (
    pyramid_normalized_volume,
    pyramid_volume_base,
    pyramid_volume_flag,
    pyramid_volume_independent,
)
from matvol.verify import verify_matroid
from matvol.volume import (
    flag_volume_ordered_terms,
    orbit_degree,
    volume_base_polytope,
    volume_independent_polytope,
    volume_truncation_flag,
)

SRC = os.path.dirname(os.path.dirname(matvol.__file__))
TUPLE_FORMULA = {"base": volume_base_polytope, "indep": volume_independent_polytope, "flag": volume_truncation_flag}


def eulerian(n: int, m: int) -> int:
    """Permutations of [n] with m descents."""
    row = [1]
    for size in range(2, n + 1):
        row = [
            (size - j) * (row[j - 1] if j else 0) + (j + 1) * (row[j] if j < len(row) else 0)
            for j in range(size)
        ]
    return row[m] if 0 <= m < len(row) else 0


def permutohedron_volume(x: list[int]) -> Fraction:
    """Postnikov's formula for the volume of conv{permutations of x}:
    sum over w of (l_w(1) x_1 + ... + l_w(n) x_n)^(n-1) over the product of
    l_w(i) - l_w(i+1), divided by (n-1)!, for any distinct l (here 0..n-1)."""
    n = len(x)
    total = Fraction(0)
    for w in permutations(range(n)):
        denominator = 1
        for i in range(n - 1):
            denominator *= w[i] - w[i + 1]
        total += Fraction(sum(l * xi for l, xi in zip(w, x)) ** (n - 1), denominator)
    return total / factorial(n - 1)


def greedy_vertex_set(t: bytes) -> VertexSet:
    """Every vertex of P(g): the greedy vertex of each order of [k]."""
    k = len(t).bit_length() - 1
    points = set()
    for order in permutations(range(k)):
        x, done = [0] * k, 0
        for e in order:
            x[e] = t[done | 1 << e] - t[done]
            done |= 1 << e
        points.add(tuple(x))
    return VertexSet(k, tuple(sorted(points)))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_generic_recursion_matches_oracle_on_coverage_functions(k):
    """Weighted coverage functions g(A) = w(union of the sets of A) are
    monotone and submodular, and most are not matroid ranks."""
    rng = random.Random(k)
    for _ in range(60 if k < 5 else 25):
        sets = [rng.getrandbits(5) for _ in range(k)]
        weights = [rng.randint(1, 3) for _ in range(5)]
        t = bytes(
            sum(w for j, w in enumerate(weights) if any(a >> i & 1 and s >> j & 1 for i, s in enumerate(sets)))
            for a in range(1 << k)
        )
        vertices = greedy_vertex_set(t)
        normalized = pyramid_normalized_volume(t)
        if vertices.affine_dim < k - 1:
            assert normalized == 0, list(t)
        else:
            assert Fraction(normalized, factorial(k - 1)) == volume_exact(vertices, LatticeFrame.ROOT), list(t)


def test_recursion_matches_tuple_formula_on_catalog5(catalog5):
    for entry in catalog5:
        m = entry.matroid
        assert pyramid_volume_base(m) == volume_base_polytope(m), entry.name
        assert pyramid_volume_independent(m) == volume_independent_polytope(m), entry.name
        if not m.has_loops():
            assert pyramid_volume_flag(m) == volume_truncation_flag(m), entry.name


def test_recursion_matches_oracle_on_catalog6(catalog6):
    connected = [e for e in catalog6 if is_connected(e.matroid)]
    loopless = [e for e in catalog6 if not e.matroid.has_loops()]
    assert len(connected) == 48 and len(loopless) == 154
    for entry in connected:
        m = entry.matroid
        assert pyramid_volume_base(m) == volume_exact(vertices_base(m), LatticeFrame.ROOT), entry.name
    for entry in loopless:
        m = entry.matroid
        assert pyramid_volume_independent(m) == volume_exact(vertices_indep(m), LatticeFrame.STANDARD), entry.name


def test_recursion_expands_only_connected_minors(catalog6, monkeypatch):
    """A minor that splits is recognized before it is expanded or memoized."""
    import matvol.pyramid as pyramid

    expanded = []
    facets = pyramid._facets

    def recording(t, *args):
        expanded.append(t)
        return facets(t, *args)

    monkeypatch.setattr(pyramid, "_facets", recording)
    for entry in catalog6:
        m = entry.matroid
        pyramid_volume_base(m)
        pyramid_volume_independent(m)
        if not m.has_loops():
            pyramid_volume_flag(m)
    assert len(expanded) > 1000
    for t in expanded:
        full = len(t) - 1
        assert all(t[a] + t[full ^ a] != t[full] for a in range(1, full)), t


def test_three_element_closed_form_matches_oracle(catalog5):
    """``_small_volume`` on every monotone submodular g on three elements
    with values up to 3, and on three-element minors g(X + C) - g(C) read
    in place from the rank tables of catalog(5)."""
    from itertools import product

    from matvol.matroid import minor_table
    from matvol.pyramid import _small_volume

    def oracle(t: bytes) -> Fraction:
        vertices = greedy_vertex_set(t)
        if vertices.affine_dim < 2:
            return Fraction(0)
        return volume_exact(vertices, LatticeFrame.ROOT)

    count = 0
    for values in product(range(4), repeat=7):
        t = bytes((0, *values))
        monotone = all(t[a] <= t[a | 1 << e] for a in range(8) for e in range(3))
        submodular = all(t[a] + t[b] >= t[a | b] + t[a & b] for a in range(8) for b in range(8))
        if monotone and submodular:
            count += 1
            assert Fraction(_small_volume(t, 7, 0), 2) == oracle(t), list(t)
    assert count > 100
    rng = random.Random(3)
    for entry in catalog5:
        t = entry.matroid.rank_table
        n = entry.matroid.n
        if n < 3:
            continue
        for _ in range(3):
            ground = sum(1 << e for e in rng.sample(range(n), 3))
            rest = [e for e in range(n) if not ground >> e & 1]
            contracted = sum(1 << e for e in rest if rng.random() < 0.5)
            minor = minor_table(t, ground, contracted)
            assert Fraction(_small_volume(t, ground, contracted), 2) == oracle(minor), (entry.name, ground)


def facets_by_definition(t: bytes) -> tuple[list[int], bytes]:
    """``_facets`` one subset at a time: the heights of the greedy vertex
    along 1, ..., k, and the S with h_S > 0 where neither g|S (|S| >= 2)
    nor g/S (|G - S| >= 2) has a one-element separator."""
    k = len(t).bit_length() - 1
    full = len(t) - 1
    v = [t[(2 << e) - 1] - t[(1 << e) - 1] for e in range(k)]
    heights = [t[s] - sum(v[e] for e in range(k) if s >> e & 1) for s in range(full + 1)]
    kept = []
    for s in range(1, full):
        rest = full ^ s
        if heights[s] == 0:
            continue
        if rest & (rest - 1) and any(
            rest >> e & 1 and t[s | 1 << e] - t[s] == t[full] - t[full ^ 1 << e] for e in range(k)
        ):
            continue
        if s & (s - 1) and any(s >> e & 1 and t[s] - t[s ^ 1 << e] == t[1 << e] for e in range(k)):
            continue
        kept.append(s)
    return kept, bytes(heights)


def test_facet_candidates_match_their_definition():
    """The bit-parallel candidate filter, on small tables and on ones past
    ``_LANE_CACHE_SIZE`` (whose lane masks are built one element at a
    time), including the independent-set lift of U(6,12) on 13 elements."""
    from matvol.pyramid import _LANE_CACHE_SIZE, _facets

    rng = random.Random(5)
    tables = []
    for k in (2, 3, 4, 5, 6):
        for _ in range(10):
            sets = [rng.getrandbits(5) for _ in range(k)]
            tables.append(bytes(
                sum(1 for j in range(5) if any(a >> i & 1 and s >> j & 1 for i, s in enumerate(sets)))
                for a in range(1 << k)
            ))
    for m in (uniform(5, 10), uniform(6, 12), uniform(4, 13)):
        tables.append(m.rank_table)
    lifted = bytearray(2 << 12)
    lifted[0::2] = uniform(6, 12).rank_table
    lifted[1::2] = bytes((6,)) * (1 << 12)
    tables.append(bytes(lifted))
    assert max(map(len, tables)) > _LANE_CACHE_SIZE
    cache: dict = {}
    for t in tables:
        candidates, heights = _facets(t, cache)
        assert (candidates, heights) == facets_by_definition(t), list(t)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
def test_uniform_closed_forms(n):
    """Hypersimplex slices: A(n-1, k-1)/(n-1)! for the base polytope and
    sum over j < k of A(n, j)/n! for the independent set polytope."""
    for k in range(1, n):
        m = uniform(k, n)
        assert pyramid_volume_base(m) == Fraction(eulerian(n - 1, k - 1), factorial(n - 1)), (k, n)
        expected = Fraction(sum(eulerian(n, j) for j in range(k)), factorial(n))
        assert pyramid_volume_independent(m) == expected, (k, n)


def test_uniform_degree_at_n12():
    assert orbit_degree(uniform(6, 12))[1] == eulerian(11, 5) == 15724248


def test_uniform_flag_is_a_permutohedron():
    """The flag polytope of U(k, n) is the permutohedron of (k, k-1, ..., 1, 0, ..., 0)."""
    for n in range(2, 8):
        for k in range(1, n + 1):
            x = list(range(k, 0, -1)) + [0] * (n - k)
            assert pyramid_volume_flag(uniform(k, n)) == permutohedron_volume(x), (k, n)


@pytest.mark.parametrize("polytope", ["base", "indep", "flag"])
def test_verify_compares_the_recursion(polytope, monkeypatch):
    """verify reports a recursion that disagrees with the formula and the oracle."""
    import matvol.verify as verify

    name = f"pyramid_volume_{'independent' if polytope == 'indep' else polytope}"
    monkeypatch.setattr(verify, name, lambda m: Fraction(99))
    checks, mismatches = verify.verify_matroid(uniform(2, 4), "u24")
    assert checks == 3
    assert [(x.check, x.detail) for x in mismatches] == [
        (f"{polytope}-volume", f"recursion 99 vs formula {TUPLE_FORMULA[polytope](uniform(2, 4))}")
    ]


def test_cli_import_loads_no_dataclasses():
    code = "import sys, matvol.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oversized_volume_exits_within_the_work_budget(tmp_path):
    path = tmp_path / "u1020.matroid"
    path.write_text("n: 20\nuniform: 10 20\n")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "matvol.cli", "volume", str(path), "--polytope", "indep"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert time.perf_counter() - start < 60
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: the volume recursion needs more than")


def sparse_paving(k: int, n: int, hyperplanes: int, seed: int):
    """U(k, n) less up to ``hyperplanes`` bases, picked greedily from the
    k-subsets in a seeded order so that any two meet in at most k - 2
    elements; the picked sets are then circuit-hyperplanes.  Returns the
    matroid, built through the exchange check, and the number picked."""
    subsets = [sum(1 << e for e in c) for c in combinations(range(n), k)]
    random.Random(seed).shuffle(subsets)
    picked: list[int] = []
    for h in subsets:
        if len(picked) < hyperplanes and all((h & g).bit_count() <= k - 2 for g in picked):
            picked.append(h)
    return from_bases(n, set(subsets) - set(picked)), len(picked)


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6), (3, 7), (4, 8), (4, 9), (5, 10), (6, 12)])
def test_sparse_paving_closed_forms(k, n):
    """Relaxing a circuit-hyperplane adds a pyramid to each polytope
    (Ferroni 2022), so a sparse paving matroid with lam circuit-hyperplanes
    has (n-1)! Vol_base = A(n-1, k-1) - lam C(n-2, k-1) and
    n! Vol_indep = sum over j < k of A(n, j) - lam C(n-1, k-1): the first
    non-uniform closed forms past the oracle's reach, and at n <= 6 also a
    check of the tuple formula."""
    for target in (1, 3, 10):
        m, lam = sparse_paving(k, n, target, seed=1000 * n + target)
        assert lam == 1 if target == 1 else lam >= 2, (k, n, target)
        base = Fraction(eulerian(n - 1, k - 1) - lam * comb(n - 2, k - 1), factorial(n - 1))
        indep = Fraction(sum(eulerian(n, j) for j in range(k)) - lam * comb(n - 1, k - 1), factorial(n))
        assert pyramid_volume_base(m) == base, (k, n, lam)
        assert pyramid_volume_independent(m) == indep, (k, n, lam)
        if n <= 6:
            assert volume_base_polytope(m) == base, (k, n, lam)
            assert volume_independent_polytope(m) == indep, (k, n, lam)


def minimal_matroid(k: int, n: int):
    """T(k, n): the graphic matroid of a (k+1)-cycle with one edge replaced
    by n - k parallel edges, the connected matroid of rank k on n elements
    with the fewest bases."""
    edges = [(i, i + 1) for i in range(1, k + 1)] + [(k + 1, 1)] * (n - k)
    return graphic(Graph(k + 1, tuple(edges)))


@pytest.mark.parametrize("k, n", [(1, 16), (5, 16), (8, 17), (12, 18), (6, 19), (4, 20), (10, 20)])
def test_minimal_matroid_closed_form_at_the_cap(k, n):
    """(n-1)! Vol of the base polytope of T(k, n) is C(n-2, k-1) (Ferroni
    2022): a non-uniform closed form at the ground-set cap."""
    m = minimal_matroid(k, n)
    assert (m.n, m.rank_value) == (n, k)
    assert orbit_degree(m) == (Fraction(comb(n - 2, k - 1), factorial(n - 1)), comb(n - 2, k - 1))


def test_empty_matroid_gets_the_tuple_routes_answers():
    """The contraction of the whole ground set is the empty matroid: one
    empty basis, rank 0 and no loops.  Its base and independent set
    polytopes are the point of R^0 (volume 1); its flag polytope, a sum of
    no truncations, is refused by both routes; verify runs the other two
    checks."""
    m = contract(uniform(2, 3), uniform(2, 3).full_mask)
    assert (m.n, m.rank_value, m.has_loops()) == (0, 0, False)
    assert pyramid_volume_base(m) == volume_base_polytope(m) == 1
    assert pyramid_volume_independent(m) == volume_independent_polytope(m) == 1
    for route in (pyramid_volume_flag, volume_truncation_flag):
        with pytest.raises(DimensionMismatch):
            route(m)
    assert verify_matroid(m, "empty") == (2, [])


@pytest.mark.parametrize(
    "m",
    [contract(uniform(2, 3), 0b111), uniform(0, 1), uniform(0, 2), direct_sum(uniform(1, 1), uniform(0, 1))],
    ids=["empty", "U(0,1)", "U(0,2)", "U(1,1)+U(0,1)"],
)
def test_flag_entry_points_refuse_alike(m):
    """The tuple formula, its term list and the recursion refuse a matroid
    without a full-dimensional flag polytope with the same typed error."""
    raised = set()
    for route in (volume_truncation_flag, flag_volume_ordered_terms, pyramid_volume_flag):
        with pytest.raises(MatvolError) as info:
            route(m)
        raised.add(type(info.value))
    assert len(raised) == 1, raised


def test_independent_recursion_splits_over_components(tmp_path, capsys):
    """The independent set polytope of a direct sum is the product of the
    summands' polytopes, so the recursion runs on each component: unsplit,
    U(5,10) + U(5,10) is past the work budget, and U(20,20), the unit cube,
    far past it.  U(5,10) has volume 1/2, as x -> 1 - x swaps its two
    halves of the unit cube."""
    assert pyramid_volume_independent(direct_sum(uniform(5, 10), uniform(5, 10))) == Fraction(1, 4)
    m = direct_sum(uniform(1, 3), uniform(2, 3))
    assert pyramid_volume_independent(m) == volume_independent_polytope(m)
    path = tmp_path / "u2020.matroid"
    path.write_text("n: 20\nuniform: 20 20\n")
    assert main(["volume", str(path), "--polytope", "indep"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "volume = 1"


@pytest.mark.parametrize("table", [b"", b"\x00\x01\x01", b"\x00\x01\x01\x02\x01"], ids=["empty", "3", "5"])
def test_tables_of_other_lengths_than_a_power_of_two_are_refused(table):
    with pytest.raises(ValueError, match="2\\^k values"):
        pyramid_normalized_volume(table)


def test_flag_and_lifted_tables_of_loopless_matroids_never_split():
    """The recursion does not test the top tables of the flag and the
    independent set routes, as neither splits for a loopless M: the rank-1
    truncation's summand is the whole simplex, and a split S of the lift
    with p in S would need r(E - S) = 0."""
    from matvol.catalog import full_catalog
    from matvol.matroid import splits
    from matvol.pyramid import _flag_table, _lifted_table

    loopless = [entry.matroid for entry in full_catalog(7) if not entry.matroid.has_loops()]
    assert len(loopless) == 438
    for m in loopless:
        assert not splits(_flag_table(m)), m
        assert not splits(_lifted_table(m)), m


def record_connectivity_calls(monkeypatch) -> dict[str, list]:
    """The tables and matroids passed to ``components``, ``splits`` and
    ``is_connected`` as ``pyramid`` and ``volume`` bind them."""
    import matvol.pyramid as pyramid
    import matvol.volume as volume

    calls: dict[str, list] = {"components": [], "splits": [], "is_connected": []}
    for module in (pyramid, volume):
        for name, log in calls.items():
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda arg, f=original, log=log: log.append(arg) or f(arg))
    return calls


@pytest.mark.parametrize(
    "m, tuple_routes",
    [
        (uniform(3, 6), True),
        (direct_sum(uniform(2, 4), uniform(2, 4)), True),
        (direct_sum(uniform(5, 10), uniform(5, 10)), False),  # past the tuple sums' budget
    ],
    ids=["U(3,6)", "U(2,4)+U(2,4)", "U(5,10)+U(5,10)"],
)
def test_base_and_independent_volumes_decide_connectivity_once(m, tuple_routes, monkeypatch):
    """One ``components`` call per volume: a connected M is measured as it
    is, and each component of a disconnected one without a second test, so
    no table of M or of a component is scanned by ``splits`` and nothing
    runs ``is_connected``."""
    calls = record_connectivity_calls(monkeypatch)
    largest = max(len(restriction(m, part).rank_table) for part in components(m))
    routes = [(pyramid_volume_base, largest), (pyramid_volume_independent, 2 * largest)]
    if tuple_routes:
        routes += [(volume_base_polytope, 1), (volume_independent_polytope, 1)]
    for route, top in routes:
        for log in calls.values():
            log.clear()
        route(m)
        assert calls["components"] == [m], route.__name__
        assert not calls["is_connected"], route.__name__
        assert all(len(t) < top for t in calls["splits"]), route.__name__


def test_flag_recursion_does_not_test_its_top_table(monkeypatch):
    calls = record_connectivity_calls(monkeypatch)
    m = uniform(3, 6)
    assert pyramid_volume_flag(m) == volume_truncation_flag(m)
    assert calls["splits"] and all(len(t) < len(m.rank_table) for t in calls["splits"])


@pytest.mark.parametrize(
    "m",
    [uniform(0, 1), contract(uniform(2, 3), 0b111), direct_sum(uniform(1, 1), uniform(1, 1))],
    ids=["loop", "empty", "U(1,1)+U(1,1)"],
)
def test_degree_is_refused_off_connected_matroids(m):
    with pytest.raises(DisconnectedMatroid, match="connected matroids only"):
        orbit_degree(m)


def test_degree_of_a_coloop():
    assert orbit_degree(uniform(1, 1)) == (Fraction(1), 1)


@pytest.mark.parametrize("n", range(8, 21))
def test_permutohedron_flag_volume_past_the_oracle(n):
    """Pi_n, the flag polytope of U(n-1, n), has normalized volume n^(n-2)
    (Cayley's formula)."""
    assert pyramid_volume_flag(uniform(n - 1, n)) == n ** (n - 2)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_independent_volume_of_the_middle_hypersimplex_slab(k):
    """U(k, 2k) indep is the half x(E) <= k of the unit cube: x -> 1 - x
    swaps it with the other half."""
    assert pyramid_volume_independent(uniform(k, 2 * k)) == Fraction(1, 2)


@pytest.mark.parametrize("n", [16, 20])
def test_uniform_base_volumes_at_the_cap(n):
    """U(k, n) base is the hypersimplex slice A(n-1, k-1)/(n-1)!, through
    the one-face-per-size sum that a table depending on |S| alone takes."""
    for k in range(1, n):
        assert pyramid_volume_base(uniform(k, n)) == Fraction(eulerian(n - 1, k - 1), factorial(n - 1)), (k, n)


def test_uniform_degree_at_the_cap():
    assert orbit_degree(uniform(10, 20))[1] == eulerian(19, 9) == 37307713155613000


def test_flag_volume_of_the_boolean_matroid_at_the_cap():
    """U(20, 20) flag is the permutohedron of (20, 19, ..., 1), a translate of Pi_20."""
    assert pyramid_volume_flag(uniform(20, 20)) == 20**18


@pytest.mark.parametrize("k", range(1, 9))
def test_uniform_flag_at_n8_is_a_permutohedron(k):
    x = list(range(k, 0, -1)) + [0] * (8 - k)
    assert pyramid_volume_flag(uniform(k, 8)) == permutohedron_volume(x)


def record_facet_tables(monkeypatch) -> list[bytes]:
    """The tables whose facets the general path filters, bit-parallel."""
    import matvol.pyramid as pyramid

    tables: list[bytes] = []
    facets = pyramid._facets
    monkeypatch.setattr(pyramid, "_facets", lambda t, cache: tables.append(t) or facets(t, cache))
    return tables


@pytest.mark.parametrize("n", range(2, 13))
def test_symmetric_and_general_paths_agree_on_uniform_tables(n, monkeypatch):
    """The sum over one face per size gives the general path's values on
    every uniform base and flag table with n <= 12, and filters no facets."""
    import matvol.pyramid as pyramid

    tables = record_facet_tables(monkeypatch)
    symmetric = {(k, route): route(uniform(k, n)) for k in range(1, n) for route in (pyramid_volume_base, pyramid_volume_flag)}
    symmetric[n, pyramid_volume_flag] = pyramid_volume_flag(uniform(n, n))
    assert not tables
    monkeypatch.setattr(pyramid, "_size_profile", lambda table: None)
    general = {(k, route): route(uniform(k, n)) for k, route in symmetric}
    assert general == symmetric
    assert bool(tables) == (n > 3)


@pytest.mark.parametrize(
    "m, degree",
    [
        (sparse_paving(4, 8, 1, seed=1)[0], eulerian(7, 3) - comb(6, 3)),
        (sparse_paving(6, 12, 1, seed=1)[0], eulerian(11, 5) - comb(10, 5)),
        (minimal_matroid(5, 12), comb(10, 4)),
        (graphic(Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))), None),
    ],
    ids=["SP(4,8,1)", "SP(6,12,1)", "T(5,12)", "M(K4)"],
)
def test_nearly_symmetric_tables_take_the_general_path(m, degree, monkeypatch):
    """One circuit-hyperplane, or a graph, breaks the |S|-symmetry of the
    top table, so the recursion filters facets from the top table down, and
    its values are the general path's: the closed forms of sparse paving
    and minimal matroids (Ferroni 2022), and the tuple formula on M(K4)."""
    import matvol.pyramid as pyramid

    tables = record_facet_tables(monkeypatch)
    flag_table = pyramid._flag_table(m)
    assert pyramid._size_profile(m.rank_table) is None and pyramid._size_profile(flag_table) is None
    values = pyramid_volume_base(m), pyramid_volume_flag(m)
    assert m.rank_table in tables and flag_table in tables
    if degree is None:
        assert values == (volume_base_polytope(m), volume_truncation_flag(m))
    else:
        assert values[0] == Fraction(degree, factorial(m.n - 1))
    monkeypatch.setattr(pyramid, "_size_profile", lambda table: None)
    assert (pyramid_volume_base(m), pyramid_volume_flag(m)) == values


def test_symmetric_recursion_builds_few_minors(monkeypatch):
    """A symmetric table's minors are again symmetric, and one of them per
    interval of sizes is built: U(8,16) flag splits-tests at most n^2
    distinct minors, where the general path goes over the work budget."""
    calls = record_connectivity_calls(monkeypatch)
    assert pyramid_volume_flag(uniform(8, 16)) > 0
    assert 0 < len(calls["splits"]) == len(set(calls["splits"])) <= 16**2


def test_symmetric_path_builds_its_minors_by_minor_table(monkeypatch):
    """``matroid.minor_table`` is the one builder of a minor's table: on
    U(8,16) flag every minor the recursion builds comes from it, as a
    strided slice (its ground set one run of bits above the contracted
    set), and the value is unchanged."""
    import matvol.pyramid as pyramid

    expected = pyramid_volume_flag(uniform(8, 16))
    built: list[tuple[int, int]] = []
    minor_table = pyramid.minor_table

    def recording(t: bytes, ground: int, contracted: int) -> bytes:
        built.append((ground, contracted))
        return minor_table(t, ground, contracted)

    monkeypatch.setattr(pyramid, "minor_table", recording)
    calls = record_connectivity_calls(monkeypatch)
    assert pyramid_volume_flag(uniform(8, 16)) == expected
    assert len(built) >= len(calls["splits"]) > 0
    for ground, contracted in built:
        low = ground & -ground
        assert not (ground + low) & ground and contracted < low, (ground, contracted)


@pytest.mark.parametrize(
    "route, m",
    [
        (pyramid_volume_base, uniform(5, 12)),
        (pyramid_volume_flag, uniform(5, 12)),
        (pyramid_volume_base, graphic(Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (2, 4), (3, 5))))),
    ],
    ids=["U(5,12) base", "U(5,12) flag", "graphic 5/8 base"],
)
def test_recursion_refusal_wording(route, m, monkeypatch):
    """The symmetric and the general path refuse past a lowered budget with
    the same message."""
    import matvol.pyramid as pyramid

    monkeypatch.setattr(pyramid, "PYRAMID_WORK_BUDGET", 1 << 12)
    with pytest.raises(matvol.WorkBudgetExceeded) as refused:
        route(m)
    assert str(refused.value) == (
        "the volume recursion needs more than 4096 subset-table entries; this input is too large for it"
    )
