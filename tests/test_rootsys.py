import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from tauforge import oracle
from tauforge.cli import SYSTEMS
from tauforge.rootsys import (
    _orbit_walk,
    _orbits,
    build_system,
    characteristic_vector,
    deformed_weyl_vector,
    dominance_leq,
    highest_root,
    integer_weight_coords,
    orbit_rows,
    simple_root_coords,
    weyl_orbit,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

E7_SIZES = (56, 126, 576, 756, 2016, 4032, 10080)
E7_LENGTHS = (
    Fraction(3, 2),
    Fraction(2),
    Fraction(7, 2),
    Fraction(4),
    Fraction(6),
    Fraction(15, 2),
    Fraction(12),
)


def test_e7_orbit_sizes():
    sysr = build_system("E7")
    assert tuple(weyl_orbit(sysr, a + 1).size for a in range(7)) == E7_SIZES


# sha256 of each E7 orbit's little-endian int64 rows: the double and hp orbit
# sums add the rows in this order, so a reordered walk moves report bits
E7_ORBIT_DIGESTS = (
    "c072d515360fd147b3ce693be7a18243da3b98fda201052592e261a50200c727",
    "01e250343ddf7c33e9323e0acd2c64d6a90959c8fa3eda0b5da4e51ac59c5506",
    "1d674b1d36693e3899da9acef57f8cf18a68f504781a74cc5c19550c919cb8aa",
    "bfc009a221cf4b03355bf2474b85f904efa05a6694d2a35c0a2025d7cbe29a1a",
    "c2aea40c287178b356ffc2f8933920ea561a2af8cd7f6118998dabcf468202d7",
    "72f04764cf393c2e1d8ed9c02cf847f28aba3b8c324f7fc87d6e11d32469127d",
    "c44856cfa99b4fa1482f3a279e035029a8ab07d6cad606a52738b3101319bc59",
)


def test_e7_orbit_rows_match_their_golden_digests():
    sysr = build_system("E7")
    for a, (size, digest) in enumerate(zip(E7_SIZES, E7_ORBIT_DIGESTS)):
        orbit = weyl_orbit(sysr, a + 1)
        assert orbit.ints.shape == (size, 7) and orbit.scale == 2
        assert hashlib.sha256(orbit.ints.astype("<i8").tobytes()).hexdigest() == digest


def test_e7_weight_lengths():
    sysr = build_system("E7")
    assert sysr.weight_lengths_sq == E7_LENGTHS


def test_e7_charvec():
    sysr = build_system("E7")
    assert characteristic_vector(sysr) == (1, 2, 2, 2, 3, 3, 4)


def test_e7_highest_root_is_the_adjoint_weight():
    sysr = build_system("E7")
    theta = highest_root(sysr)
    assert sysr.dot_y(sysr.y_rep(theta), sysr.y_rep(theta)) == 2
    # the orbit of the length^2 = 2 weight is the root system itself
    assert theta == sysr.fundamental_weights[1]
    assert weyl_orbit(sysr, 2).size == 126


def test_deformed_weyl_vector():
    rho = deformed_weyl_vector(build_system("E7"))
    assert rho.rho_sq_over_nu_sq == 798


def test_orbits_closed_under_negation():
    sysr = build_system("E7")
    for a in (1, 2, 7):
        rows = {tuple(u) for u in weyl_orbit(sysr, a).ints.tolist()}
        assert {tuple(-c for c in u) for u in rows} == rows


def test_orbit_elements_unique_and_contain_generator():
    sysr = build_system("E7")
    orb = weyl_orbit(sysr, 3)
    rows = [tuple(u) for u in orb.ints.tolist()]
    assert len(set(rows)) == orb.size
    generator = sysr.y_rep(orb.generator_weight)
    assert tuple(int(c * orb.scale) for c in generator) in rows


@pytest.mark.parametrize(
    "kind,sizes,lengths",
    [
        ("A1", (2,), (Fraction(1, 2),)),
        ("A2", (3, 3), (Fraction(2, 3), Fraction(2, 3))),
        ("G2", (6, 6), (Fraction(2), Fraction(6))),
    ],
)
def test_small_systems(kind, sizes, lengths):
    sysr = build_system(kind)
    assert tuple(weyl_orbit(sysr, a + 1).size for a in range(sysr.rank)) == sizes
    assert sysr.weight_lengths_sq == lengths


def test_small_charvecs():
    assert characteristic_vector(build_system("A1")) == (1,)
    assert characteristic_vector(build_system("A2")) == (1, 1)
    assert characteristic_vector(build_system("G2")) == (1, 2)


def test_dominance_is_a_partial_order_on_an_orbit():
    sysr = build_system("E7")
    els = _reference_orbit_elements(sysr.fundamental_weights[0], sysr.simple_roots)[:20]
    for u in els:
        assert dominance_leq(sysr, u, u)
        for v in els:
            if dominance_leq(sysr, u, v) and dominance_leq(sysr, v, u):
                assert u == v


def test_y_rep_rejects_off_hyperplane_vectors():
    sysr = build_system("E7")
    with pytest.raises(ValueError):
        sysr.y_rep((0,) * 6 + (1, 1))


def test_unknown_system():
    with pytest.raises(ValueError):
        build_system("F4")


def _reference_orbit_elements(weight, simple):
    """The Fraction breadth-first closure the integer walk replaced."""
    scale = math.lcm(*(c.denominator for v in (weight,) + simple for c in v))
    w0 = tuple(int(c * scale) for c in weight)
    gens = []
    for s in simple:
        si = tuple(int(c * scale) for c in s)
        gens.append((si, sum(x * x for x in si)))
    seen = {w0}
    frontier = [w0]
    while frontier:
        nxt = []
        for v in frontier:
            for s, ss in gens:
                num = 2 * sum(a * b for a, b in zip(v, s))
                m, rem = divmod(num, ss)
                assert rem == 0
                img = tuple(a - m * b for a, b in zip(v, s))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return [tuple(Fraction(c, scale) for c in v) for v in sorted(seen)]


@pytest.mark.parametrize("kind", ["E7", "A1", "A2", "G2"])
def test_orbit_walk_matches_the_fraction_closure(kind):
    sysr = build_system(kind)
    for a, w in enumerate(sysr.fundamental_weights):
        ref = _reference_orbit_elements(w, sysr.simple_roots)
        orbit = weyl_orbit(sysr, a + 1)
        assert orbit.size == len(ref)
        # the integer rows are the y representatives, in the same order
        assert [
            tuple(Fraction(c, orbit.scale) for c in u) for u in orbit.ints.tolist()
        ] == [sysr.y_rep(v) for v in ref]


def _weight(sysr, coords):
    return tuple(
        sum(p * w[k] for p, w in zip(coords, sysr.fundamental_weights))
        for k in range(sysr.ambient_dim)
    )


@pytest.mark.parametrize(
    "kind,coords,flip",
    [("A2", (2, 1), False), ("G2", (1, 1), False), ("G2", (2, 1), True)],
)
def test_orbit_walk_matches_the_fraction_closure_off_the_fundamentals(
    kind, coords, flip
):
    sysr = build_system(kind)
    lam = _weight(sysr, coords)
    if flip:
        # s_1 lam = lam - 2 alpha_1 for coords (2, 1): a start that is not dominant
        lam = tuple(c - 2 * a for c, a in zip(lam, sysr.simple_roots[0]))
    ref = _reference_orbit_elements(lam, sysr.simple_roots)
    scale, (rows,) = _orbit_walk((lam,), sysr.simple_roots, sysr.y_rep)
    assert [tuple(Fraction(c, scale) for c in u) for u in rows] == ref


@pytest.mark.parametrize(
    "kind,starts",
    [
        ("A2", [((2, 1), False), ((1, 0), False)]),
        ("G2", [((2, 1), True), ((1, 1), False), ((2, 1), False), ((0, 1), False)]),
    ],
)
def test_one_walk_of_several_weights_equals_separate_walks(kind, starts):
    sysr = build_system(kind)
    lams = []
    for coords, flip in starts:
        lam = _weight(sysr, coords)
        if flip:
            lam = tuple(c - 2 * a for c, a in zip(lam, sysr.simple_roots[0]))
        lams.append(lam)
    scale, rows = _orbit_walk(tuple(lams), sysr.simple_roots, sysr.y_rep)
    assert len(rows) == len(lams)
    for lam, got in zip(lams, rows):
        alone_scale, (alone,) = _orbit_walk((lam,), sysr.simple_roots, sysr.y_rep)
        assert alone_scale == scale
        assert got.dtype == np.int64 and np.array_equal(got, alone)


def test_orbit_walk_rejects_rows_too_large_for_int64_codes():
    sysr = build_system("E7")
    lam = tuple(10**5 * c for c in sysr.fundamental_weights[0])
    with pytest.raises(ValueError, match="int64"):
        _orbit_walk((lam,), sysr.simple_roots, sysr.y_rep)


def test_one_orbit_walk_per_system():
    _orbits.cache_clear()
    orbit_rows.cache_clear()
    kinds = ("E7", "A1", "A2", "G2")
    for kind in kinds:
        orbit_rows(kind)
        orbit_rows(kind)
    info = _orbits.cache_info()
    assert info.misses == len(kinds) and info.currsize == len(kinds)


def test_characteristic_vector_is_computed_once_per_system():
    sysr = build_system("E7")
    first = characteristic_vector(sysr)
    hits = characteristic_vector.cache_info().hits
    assert characteristic_vector(sysr) == first
    assert characteristic_vector.cache_info().hits == hits + 1


@pytest.mark.parametrize("kind", ["E7", "A1", "A2", "G2"])
def test_cached_arrays_are_read_only(kind):
    sysr = build_system(kind)
    cached = [weyl_orbit(sysr, a + 1).ints for a in range(sysr.rank)]
    cached += list(oracle._orbit_arrays(kind)) + list(oracle._orbit_w2(kind))
    cached += [oracle._root_array(kind), sysr.root_halves]
    plan = oracle._hp_plan(kind)
    arrays = [plan.group_u1, plan.u1s, plan.group_set, plan.rows_u2, plan.set_starts,
              plan.orbit_starts]
    for firsts, steps, leaves in plan.tries:
        arrays += [firsts, leaves] + [arr for step in steps for arr in step]
    arrays += [arr for group in plan.grads for arr in group]
    assert not any(arr.flags.writeable for arr in arrays)
    # A1's u1s, of its empty first half, has no [0]
    cached += [arr for arr in arrays if arr.size]
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] += 1


@pytest.mark.parametrize("kind", SYSTEMS)
def test_every_y_coordinate_has_one_metric_weight(kind):
    sysr = build_system(kind)
    assert len(sysr.metric_weights) == sysr.y_dim


@pytest.mark.parametrize("kind", SYSTEMS)
def test_integer_roots_are_the_exact_vectors_times_their_scale(kind):
    sysr = build_system(kind)
    ints = sysr.ints
    assert ints.scale == orbit_rows(kind)[0]
    for rows, exact in [
        (ints.positive_roots, sysr.positive_roots),
        (ints.simple_roots, sysr.simple_roots),
        (ints.weights, sysr.fundamental_weights),
    ]:
        assert [tuple(Fraction(c, ints.scale) for c in u) for u in rows] == [
            sysr.y_rep(v) for v in exact]
    for u, v in zip(ints.weights, sysr.fundamental_weights):
        for s, a in zip(ints.simple_roots, sysr.simple_roots):
            assert Fraction(ints.dot(u, s), ints.scale**2) == sysr.dot_y(
                sysr.y_rep(v), sysr.y_rep(a))


@pytest.mark.parametrize("kind", SYSTEMS)
def test_integer_weight_coords_scale_the_simple_root_coords(kind):
    sysr = build_system(kind)
    coords = [simple_root_coords(sysr, w) for w in sysr.fundamental_weights]
    scale = math.lcm(*(x.denominator for c in coords for x in c))
    got = integer_weight_coords(sysr)
    assert got == tuple(tuple(x * scale for x in c) for c in coords)
    assert all(type(x) is int for row in got for x in row)


def test_orbit_walk_rejects_a_weight_off_the_weight_lattice():
    sysr = build_system("A1")
    third = (Fraction(1, 3), Fraction(-1, 3))
    with pytest.raises(ValueError, match="not in the weight lattice"):
        _orbit_walk((third,), sysr.simple_roots, sysr.y_rep)


def test_a_corrupted_table_weight_fails_the_certificate_under_python_O():
    # doubling w_1 halves its dual vector, which is then no root; -O strips
    # asserts, so the certificate must raise on its own
    script = (
        "import sys\n"
        "from tauforge import rootsys\n"
        "w = rootsys._E7_TABLE_WEIGHTS\n"
        "rootsys._E7_TABLE_WEIGHTS = (tuple(2 * c for c in w[0]),) + w[1:]\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        "    rootsys.build_system('E7')\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1", "the E7 table weights are not a system of fundamental weights"]
