from fractions import Fraction

import pytest

from tauforge.rootsys import (
    build_system,
    characteristic_vector,
    deformed_weyl_vector,
    dominance_leq,
    highest_root,
    vec,
    weight_exponents,
    weyl_orbit,
)

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
    assert weight_exponents(sysr, theta) == (0, 1, 0, 0, 0, 0, 0)
    assert weyl_orbit(sysr, 2).size == 126


def test_weight_exponents_reject_a_weight_off_the_weight_span():
    # e7 + e8 pairs to zero with every simple root, so only the span check
    # tells it apart from the zero weight
    with pytest.raises(ValueError, match="not in the span of the fundamental weights"):
        weight_exponents(build_system("E7"), vec(0, 0, 0, 0, 0, 0, 1, 1))


def test_deformed_weyl_vector():
    rho = deformed_weyl_vector(build_system("E7"))
    assert rho.rho_sq_over_nu_sq == 798


def test_orbits_closed_under_negation():
    sysr = build_system("E7")
    for a in (1, 2, 7):
        els = set(weyl_orbit(sysr, a).elements)
        assert {tuple(-c for c in v) for v in els} == els


def test_orbit_elements_unique_and_contain_generator():
    sysr = build_system("E7")
    orb = weyl_orbit(sysr, 3)
    assert len(set(orb.elements)) == orb.size
    assert orb.generator_weight in orb.elements


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
    els = weyl_orbit(sysr, 1).elements[:20]
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
