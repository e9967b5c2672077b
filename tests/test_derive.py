from fractions import Fraction

import pytest

from tauforge import derive
from tauforge.derive import derive_operator
from tauforge.exactpoly import MultiPoly, NuLinear
from tauforge.operator import build_operator, e7_operator, operator_to_json
from tauforge.oracle import verify_tables
from tauforge.rootsys import build_system

A1 = build_system("A1")
A2 = build_system("A2")
G2 = build_system("G2")


def test_rank_limit():
    with pytest.raises(ValueError):
        derive_operator(build_system("E7"))


def test_derived_a1_closed_form():
    op = derive_operator(A1)
    t = MultiPoly.variable(1, 1)
    assert op.a_entry(1, 1) == MultiPoly.constant(1, 2) - t * t.scale(Fraction(1, 2))
    assert op.b_entry(1) == t * MultiPoly.constant(
        1, NuLinear.of(Fraction(-1, 2), -1)
    )
    assert op.variant == "derived"
    assert op.violations == ()


def test_derived_a2_leading_terms():
    op = derive_operator(A2)
    t1 = MultiPoly.variable(2, 1)
    t2 = MultiPoly.variable(2, 2)
    assert op.a_entry(1, 1) == t2.scale(2) - (t1 * t1).scale(Fraction(2, 3))
    assert op.a_entry(1, 2) == MultiPoly.constant(2, 3) - (t1 * t2).scale(
        Fraction(1, 3)
    )
    assert op.b_entry(1) == t1 * MultiPoly.constant(
        2, NuLinear.of(Fraction(-2, 3), -2)
    )


@pytest.mark.parametrize("sysr", [A2, G2])
def test_derived_tables_match_the_oracle(sysr):
    op = derive_operator(sysr)
    assert op.violations == ()
    rep = verify_tables(op, samples=6, seed=7, tol=1e-10, precision="hp")
    assert rep["all_pass"]


def test_derived_a_entries_are_symmetric_and_nu_free():
    op = derive_operator(G2)
    for i in range(1, 3):
        for j in range(1, 3):
            assert op.a_entry(i, j) == op.a_entry(j, i)
            assert op.a_entry(i, j).is_nu_free()


# operator_to_json checksums of the tables the Fraction exponential-sum
# reducer derived; they do not depend on the order of the terms
DERIVED_CHECKSUMS = {
    "A1": "b1f63d238176159f4bd73e3ba4505166bcf0e1a25aadf904f4f9ca8c120ac4ea",
    "A2": "e1965a11edbb118e94faa32497acfafc457acf07763bdfd4177e9e9ce6abc61a",
    "G2": "c2c5138220d733c00b6244a11500be722290aec1970f3fe4bcd0c12e929b719d",
}


@pytest.mark.parametrize("kind", sorted(DERIVED_CHECKSUMS))
def test_derived_tables_keep_their_checksums(kind):
    op = derive_operator(build_system(kind))
    assert operator_to_json(op)["checksum"] == DERIVED_CHECKSUMS[kind]


def _reloaded(op):
    """op written out by operator_to_json and read back by MultiPoly.from_terms."""
    body = operator_to_json(op)
    entries = {
        f"A{i + 1}{i + j + 1}": MultiPoly.from_terms(op.rank, rows)
        for i, row in enumerate(body["A"])
        for j, rows in enumerate(row)
    } | {f"B{i + 1}": MultiPoly.from_terms(op.rank, rows) for i, rows in enumerate(body["B"])}
    return build_operator(op.system, entries, op.variant)


@pytest.mark.parametrize("precision", ["double", "hp"])
@pytest.mark.parametrize("kind", ["A1", "A2", "G2"])
def test_reloaded_tables_give_the_same_report_bits(kind, precision):
    # the report must not depend on how the operator was built: its terms
    # are stored in the order in which the table files list them
    op = derive_operator(build_system(kind))
    again = _reloaded(op)
    assert again == op
    assert [list(p.terms) for row in again.A for p in row] + [
        list(p.terms) for p in again.B
    ] == [list(p.terms) for row in op.A for p in row] + [list(p.terms) for p in op.B]
    assert verify_tables(op, samples=20, seed=77, precision=precision) == verify_tables(
        again, samples=20, seed=77, precision=precision
    )


@pytest.mark.parametrize("kind", ["A1", "A2", "G2"])
def test_a_basis_one_grade_too_small_is_refused(kind, monkeypatch):
    slots = derive.table_slots
    monkeypatch.setattr(
        derive, "table_slots", lambda cv: [(n, i, j, b - 1) for n, i, j, b in slots(cv)]
    )
    with pytest.raises(ValueError, match="^A11: no polynomial of weighted degree <= 1"):
        derive_operator(build_system(kind))


def test_e7_leading_a_entries_are_canonical():
    # past the rank guard.  A1, A2 and G2 list roots that are positive for
    # their simple roots, E7 does not: only E7 tells a height read off the
    # listed roots apart from the pairing with rho = sum_a w_a
    e7 = build_system("E7")
    canonical = e7_operator("canonical")
    algebra = derive._OrbitAlgebra(e7)
    for name, i, j, bound in derive.table_slots(algebra.cv)[:2]:
        assert list(algebra.a_entry(name, i, j, bound).terms.items()) == list(
            canonical.a_entry(i + 1, j + 1).terms.items()
        )


def _nu_parts(poly):
    """poly's nu^0 and nu^1 coefficients, each a map exponent -> value."""
    return (
        {e: c.c0 for e, c in poly.terms.items() if c.c0},
        {e: c.c1 for e, c in poly.terms.items() if c.c1},
    )


def test_e7_b_is_the_gauge_of_a_and_the_raw_slip_fails_it():
    e7 = build_system("E7")
    canonical, raw = e7_operator("canonical"), e7_operator("raw")
    gauge = derive._gauge(e7, canonical.A)
    # term for term, in the table files' order
    assert [list(b.terms.items()) for b in gauge] == [
        list(b.terms.items()) for b in canonical.B
    ]
    # README's B slip: every raw nu^1 slope is -1/2 of the gauge's, while
    # the nu^0 parts agree
    raw_gauge = derive._gauge(e7, raw.A)
    assert [i for i in range(7) if raw_gauge[i] != raw.B[i]] == list(range(7))
    for b, want, published in zip(raw_gauge, gauge, raw.B):
        assert _nu_parts(published)[0] == _nu_parts(b)[0]
        assert _nu_parts(published)[1] == {
            e: c * Fraction(-1, 2) for e, c in _nu_parts(want)[1].items()
        }
    # raw A17 alone moves the gauge of the two rows that hold it
    mixed = build_operator(e7, {"A17": raw.a_entry(1, 7)}, "mixed", base=canonical)
    mixed_gauge = derive._gauge(e7, mixed.A)
    assert [i + 1 for i in range(7) if mixed_gauge[i] != mixed.B[i]] == [1, 7]
    assert [i + 1 for i in range(7) if raw_gauge[i] != gauge[i]] == [1, 7]
