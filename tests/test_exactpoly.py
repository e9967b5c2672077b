from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import raises

from tauforge.exactpoly import MultiPoly, NuDegreeError, NuLinear

RANK = 3
CV = (1, 2, 3)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nu_linears = st.builds(NuLinear.of, rationals, rationals)
exponent_keys = st.tuples(*(st.integers(0, 3) for _ in range(RANK)))
polys = st.dictionaries(exponent_keys, nu_linears, max_size=4).map(
    lambda d: MultiPoly(RANK, d)
)
# products of two nu-linear polynomials would leave the truncated ring,
# so multiplication tests keep one factor nu-free
nu_free_polys = st.dictionaries(
    exponent_keys, st.builds(NuLinear.of, rationals), max_size=4
).map(lambda d: MultiPoly(RANK, d))


def test_nu_linear_arithmetic():
    a = NuLinear.of(1, 2)
    b = NuLinear.of(Fraction(1, 2))
    assert (a + b).eval(3) == a.eval(3) + b.eval(3)
    assert (a * b).eval(Fraction(1, 7)) == a.eval(Fraction(1, 7)) * b.eval(
        Fraction(1, 7)
    )


def test_a_float_nu_evaluates_the_slope_with_its_sign():
    # c0 + c1 * nu in floats: a flipped slope would read 1 - 2 * 0.25 = 0.5
    assert NuLinear.of(1, 2).eval(0.25) == 1.5
    assert NuLinear.of(Fraction(-3, 2), -27).eval(0.5) == -15.0
    assert type(NuLinear.of(1, 2).eval(0.25)) is float


def test_nu_defaults_to_zero():
    assert NuLinear.of() == NuLinear(Fraction(0), Fraction(0)) == NuLinear()
    assert NuLinear.of(3) == NuLinear(Fraction(3), Fraction(0))
    # MultiPoly.evaluate's nu is 0 unless given: 2 tau_1 here, not (2 + 5 nu) tau_1
    f = MultiPoly(RANK, {(1, 0, 0): NuLinear.of(2, 5), (0, 0, 0): NuLinear.of(0, 1)})
    assert f.evaluate((3, 7, 11)) == 6
    assert f.evaluate((3, 7, 11), 1) == 22


def test_nu_degree_guard():
    a = NuLinear.of(0, 1)
    with raises(NuDegreeError):
        a * a  # nu^2 has no representation here
    t = MultiPoly.constant(RANK, a)
    with raises(NuDegreeError):
        t * t


def test_constant_and_variable_builders():
    one = MultiPoly.constant(RANK, 1)
    t2 = MultiPoly.variable(RANK, 2)
    assert (one * t2) == t2
    assert t2.evaluate((5, 7, 11)) == 7


@given(polys, polys, nu_free_polys)
@settings(max_examples=30, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * h == h * f
    assert (f + g) * h == f * h + g * h
    assert f - f == MultiPoly.zero(RANK)


@given(nu_free_polys, nu_free_polys, nu_free_polys)
@settings(max_examples=30, deadline=None)
def test_product_is_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(polys, nu_free_polys, st.integers(1, RANK))
@settings(max_examples=30, deadline=None)
def test_derivative_leibniz_rule(f, g, i):
    lhs = (f * g).partial_derivative(i)
    rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
    assert lhs == rhs


@given(polys, nu_free_polys)
@settings(max_examples=30, deadline=None)
def test_weighted_degree_is_additive(f, g):
    if f.is_zero() or g.is_zero():
        assert (f * g).weighted_degree(CV) == float("-inf")
    else:
        assert (f * g).weighted_degree(CV) == f.weighted_degree(
            CV
        ) + g.weighted_degree(CV)


@given(polys, nu_free_polys, st.tuples(*(rationals for _ in range(RANK))), rationals)
@settings(max_examples=30, deadline=None)
def test_evaluation_is_a_ring_map(f, g, point, nu):
    assert (f + g).evaluate(point, nu) == f.evaluate(point, nu) + g.evaluate(
        point, nu
    )
    assert (f * g).evaluate(point, nu) == f.evaluate(point, nu) * g.evaluate(
        point, nu
    )


@given(polys)
@settings(max_examples=30, deadline=None)
def test_canonical_terms_roundtrip(f):
    back = MultiPoly.from_terms(RANK, f.canonical_terms(CV))
    assert back == f
    assert back.checksum(CV) == f.checksum(CV)


@given(polys, st.tuples(*(rationals for _ in range(RANK))), rationals)
@settings(max_examples=20, deadline=None)
def test_substitution_commutes_with_evaluation(f, point, nu):
    images = [
        MultiPoly.variable(RANK, 2),
        MultiPoly.variable(RANK, 1) + MultiPoly.constant(RANK, 2),
        MultiPoly.variable(RANK, 3) * MultiPoly.variable(RANK, 1),
    ]
    sub = f.substitute(images)
    image_values = [p.evaluate(point) for p in images]
    assert sub.evaluate(point, nu) == f.evaluate(image_values, nu)


def test_float_evaluation_matches_exact():
    f = MultiPoly(
        RANK,
        {
            (2, 0, 1): NuLinear.of(Fraction(3, 2), -1),
            (0, 1, 0): NuLinear.of(-2, Fraction(5, 3)),
        },
    )
    exact = f.evaluate((Fraction(1, 4), 3, Fraction(-2, 7)), Fraction(1, 2))
    approx = f.evaluate((0.25, 3.0, -2 / 7), 0.5)
    assert abs(approx - float(exact)) < 1e-15


def test_power():
    t1 = MultiPoly.variable(RANK, 1)
    f = t1 + MultiPoly.constant(RANK, 1)
    assert f**3 == f * f * f
    assert f**0 == MultiPoly.constant(RANK, 1)


def test_rank_mismatch_is_rejected():
    with raises(ValueError):
        MultiPoly.variable(2, 1) + MultiPoly.variable(3, 1)


def test_nu_free_predicate():
    t1 = MultiPoly.variable(RANK, 1)
    assert t1.is_nu_free()
    assert not (t1 * MultiPoly.constant(RANK, NuLinear.of(0, 1))).is_nu_free()


@given(rationals, rationals, rationals)
@settings(max_examples=30, deadline=None)
def test_a_nu_free_product_matches_the_general_formula(a, b, c):
    x, y = NuLinear.of(a), NuLinear.of(b)
    assert x * y == NuLinear(x.c0 * y.c0, x.c0 * y.c1 + x.c1 * y.c0)
    # one nu-linear factor still takes the general formula
    z = NuLinear.of(c, 1)
    assert x * z == z * x == NuLinear(a * c, a)


def test_a_cancelled_product_term_is_dropped():
    t1 = MultiPoly.variable(RANK, 1)
    one = MultiPoly.constant(RANK, 1)
    square = (t1 + one) * (t1 - one)
    assert square.terms == {(2, 0, 0): NuLinear.of(1), (0, 0, 0): NuLinear.of(-1)}
    assert (1, 0, 0) not in square.terms


def test_ring_operations_keep_the_storage_order():
    # double evaluation sums in storage order, so the order is part of
    # what a ring operation returns; a cancelled term leaves its place
    f = MultiPoly(RANK, {(1, 0, 0): NuLinear.of(1), (0, 1, 0): NuLinear.of(2, 1),
                         (0, 0, 0): NuLinear.of(3)})
    g = MultiPoly(RANK, {(0, 0, 1): NuLinear.of(1), (1, 0, 0): NuLinear.of(-1),
                         (0, 0, 0): NuLinear.of(3)})
    h = MultiPoly(RANK, {(0, 1, 0): NuLinear.of(-2, -1), (2, 0, 0): NuLinear.of(1),
                         (0, 0, 0): NuLinear.of(-3)})
    assert list((f * g).terms) == [
        (1, 0, 1), (2, 0, 0), (0, 1, 1), (1, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
    ]
    assert list((g * f).terms) == [
        (1, 0, 1), (0, 1, 1), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0),
    ]
    assert list((f + h).terms) == [(1, 0, 0), (2, 0, 0)]
    assert list((h + f).terms) == [(2, 0, 0), (1, 0, 0)]
    assert list((f - g).terms) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert list((-h).terms) == [(0, 1, 0), (2, 0, 0), (0, 0, 0)]


def test_a_negative_exponent_is_rejected():
    one = NuLinear.of(1)
    with raises(ValueError, match="bad exponent tuple"):
        MultiPoly(7, {(-1, 0, 0, 0, 0, 0, 0): one})
    with raises(ValueError, match="bad exponent tuple"):
        MultiPoly(RANK, {(1, 0): one})
