import os
import subprocess
import sys
import time
from fractions import Fraction

import matvol
from matvol.decomposition import decompose_base_polytope
from matvol.matroid import direct_sum, from_bases, uniform
from matvol.oracle import VertexSet, hull_facets
from matvol.verify import verify_matroid
from matvol.volume import volume_signed_sum


def test_verify_passes_on_small_catalog(catalog5):
    for entry in catalog5:
        if entry.matroid.n > 4:
            continue
        checks, mismatches = verify_matroid(entry.matroid, entry.name)
        assert checks >= 2
        assert mismatches == [], entry.name


def test_signed_sum_of_disconnected_decomposition_is_flat():
    # a disconnected base polytope has lower dimension, so the mixed-volume
    # expansion of its decomposition measures 0 while the product rule does not
    m = direct_sum(uniform(1, 2), uniform(1, 1))
    assert volume_signed_sum(decompose_base_polytope(m)) == 0


def test_hull_facets_with_two_sum_constraints():
    # base polytope of U11 (+) U23: a triangle inside two fixed-sum planes
    m = direct_sum(uniform(1, 1), uniform(2, 3))
    points = VertexSet(4, tuple(sorted(
        tuple((b >> i) & 1 for i in range(4)) for b in m.bases
    )))
    assert points.affine_dim == 2
    assert len(hull_facets(points)) == 3


def test_flag_check_covers_disconnected_loopless():
    m = from_bases(3, [0b011, 0b101])  # disconnected, loopless
    checks, mismatches = verify_matroid(m, "chain")
    assert checks == 3
    assert mismatches == []


def test_support_directions_are_the_per_direction_draws():
    import random

    from matvol.verify import SUPPORT_DIRECTIONS, _support_directions

    for seed in (0, 1, 12345, 2**40 + 7):
        for n in range(1, 9):
            rng = random.Random(seed)
            one_by_one = [rng.choices(range(-9, 10), k=n) for _ in range(SUPPORT_DIRECTIONS)]
            assert _support_directions(seed, n) == one_by_one


def test_verify_refuses_ground_sets_past_its_reach(tmp_path):
    """U(10, 20) is past VERIFY_MAX_N: the CLI exits 2 before any check runs."""
    path = tmp_path / "u1020.matroid"
    path.write_text("n: 20\nuniform: 10 20\n")
    src = os.path.dirname(os.path.dirname(matvol.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "matvol.cli", "verify", str(path)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: verify walks all n! coordinate orderings")
