import json
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauforge import operator
from tauforge.cli import main
from tauforge.exactpoly import ONE, MultiPoly, NuDegreeError, NuLinear, weighted_monomials
from tauforge.operator import (
    E7_CV,
    WP_PARAM_NAMES,
    _dense,
    _flag_columns,
    _flag_images,
    _graded_det,
    _line_matrix,
    _unit_triangular_in_order,
    apply,
    e7_operator,
    enumerate_flag_basis,
    exact_det,
    flag_degree_check,
    flag_matrix,
    operator_to_json,
    spectrum,
    stored_data_report,
    table_entries,
    table_slots,
    weighted_projective_check,
)
from tauforge.oracle import verify_tables
from tauforge.rootsys import (
    build_system,
    characteristic_vector,
    dominance_leq,
    vadd,
    vscale,
)


def test_variants_load_and_are_checksummed():
    raw = e7_operator("raw")
    can = e7_operator("canonical")
    assert raw.variant == "raw" and can.variant == "canonical"
    assert raw.cv == E7_CV == can.cv


def test_a_is_symmetric_and_nu_free():
    for variant in ("raw", "canonical"):
        op = e7_operator(variant)
        for i in range(1, 8):
            for j in range(1, 8):
                assert op.a_entry(i, j) == op.a_entry(j, i)
                assert op.a_entry(i, j).is_nu_free()


def test_leading_law_report():
    # the stored tables violate the leading law in exactly one place
    assert stored_data_report(e7_operator("raw")) == (
        "A17: coefficient of tau_1tau_7 is 0, leading law needs -3",
    )
    assert stored_data_report(e7_operator("canonical")) == ()


def test_leading_coefficients_match_weight_products():
    op = e7_operator("canonical")
    sysr = build_system("E7")
    w = [sysr.y_rep(v) for v in sysr.fundamental_weights]
    for i in range(1, 8):
        for j in range(i, 8):
            exp = tuple(
                (1 if k in (i - 1, j - 1) else 0) + (1 if i == j == k + 1 else 0)
                for k in range(7)
            )
            coef = op.a_entry(i, j).terms.get(exp, NuLinear())
            assert coef.c1 == 0
            assert coef.c0 == -sysr.dot_y(w[i - 1], w[j - 1])


def test_apply_to_constants_and_tau1():
    raw = e7_operator("raw")
    one = MultiPoly.constant(7, 1)
    assert apply(raw, one).is_zero()
    t1 = MultiPoly.variable(7, 1)
    assert apply(raw, t1) == t1 * MultiPoly.constant(
        7, NuLinear.of(Fraction(-3, 2), Fraction(27, 2))
    )
    can = e7_operator("canonical")
    assert apply(can, t1) == t1 * MultiPoly.constant(
        7, NuLinear.of(Fraction(-3, 2), Fraction(-27))
    )


def test_flag_dimensions():
    dims = [enumerate_flag_basis("E7", n).dim for n in range(7)]
    assert dims == [1, 2, 6, 12, 25, 44, 79]


def test_flag_basis_grades_are_sorted_and_bounded():
    basis = enumerate_flag_basis("E7", 4)
    assert list(basis.grades) == sorted(basis.grades)
    assert all(g <= 4 for g in basis.grades)
    for mono, grade in zip(basis.monomials, basis.grades):
        assert sum(c * p for c, p in zip(E7_CV, mono)) == grade


def test_flag_degree_bounds_hold_for_both_variants():
    assert flag_degree_check(e7_operator("raw"))["ok"]
    assert flag_degree_check(e7_operator("canonical"))["ok"]


def test_degree_violations_name_each_entry_at_its_top_degree():
    can = e7_operator("canonical")
    t5, t6, t7 = (MultiPoly.variable(7, k) for k in (5, 6, 7))
    # A12 (bound 3) gains terms of weighted degree 8 and 6; B1 (bound 1) a
    # nu-only term of degree 4, which leaves its nu = 0 part intact
    a12 = can.A[0][1] + t7 * t7 + t5 * t6
    rows = [list(r) for r in can.A]
    rows[0][1] = rows[1][0] = a12
    b1 = can.B[0] + MultiPoly(7, {(0,) * 6 + (1,): NuLinear(0, 1)})
    broken = replace(can, A=tuple(map(tuple, rows)), B=(b1,) + can.B[1:])
    assert stored_data_report(broken) == (
        "A12: weighted degree 8 > 3",
        "B1: weighted degree 4 > 1",
    )
    assert broken.violations == stored_data_report(broken)
    over = flag_degree_check(broken)["violations"]
    assert sorted((v["entry"], v["wdeg"]) for v in over) == [
        ("A12", 6), ("A12", 8), ("B1", 4),
    ]


def test_violations_follow_the_table_order_all_of_a_then_b():
    # B1 comes after every A entry, so A22 is listed first
    can = e7_operator("canonical")
    a22 = can.A[1][1] + MultiPoly.variable(7, 7) ** 2
    rows = [list(r) for r in can.A]
    rows[1][1] = a22
    b1 = can.B[0] + MultiPoly(7, {(0,) * 6 + (1,): NuLinear(0, 1)})
    broken = replace(can, A=tuple(map(tuple, rows)), B=(b1,) + can.B[1:])
    assert stored_data_report(broken) == (
        "A22: weighted degree 8 > 4",
        "B1: weighted degree 4 > 1",
    )
    over = flag_degree_check(broken)["violations"]
    assert [(v["entry"], v["wdeg"], v["bound"]) for v in over] == [("A22", 8, 4), ("B1", 4, 1)]


def test_e7_table_slots_are_a_row_by_row_then_b_with_their_bounds():
    slots = table_slots(E7_CV)
    want = [
        (f"A{i + 1}{j + 1}", i, j, E7_CV[i] + E7_CV[j]) for i in range(7) for j in range(i, 7)
    ] + [(f"B{i + 1}", i, None, E7_CV[i]) for i in range(7)]
    assert len(slots) == 35 and slots == want
    assert slots[:8] == [
        ("A11", 0, 0, 2), ("A12", 0, 1, 3), ("A13", 0, 2, 3), ("A14", 0, 3, 3),
        ("A15", 0, 4, 4), ("A16", 0, 5, 4), ("A17", 0, 6, 5), ("A22", 1, 1, 4),
    ]
    assert slots[27:] == [
        ("A77", 6, 6, 8), ("B1", 0, None, 1), ("B2", 1, None, 2), ("B3", 2, None, 2),
        ("B4", 3, None, 2), ("B5", 4, None, 3), ("B6", 5, None, 3), ("B7", 6, None, 4),
    ]
    ids = [name for name, *_ in slots]
    raw = json.loads(operator._data_text("e7_operator_raw.json"))
    assert [name for name, _ in table_entries(raw)] == ids
    rep = verify_tables(e7_operator("raw"), samples=1)
    assert [row["entry"] for row in rep["entries"]] == ids


@pytest.mark.parametrize("which", ["raw", "canonical", "A2", "G2"])
def test_flag_images_equal_apply_on_every_basis_monomial(which):
    from tauforge.derive import derive_operator

    op = e7_operator(which) if which in ("raw", "canonical") else derive_operator(
        build_system(which))
    kind = op.system.kind
    ref = {p: apply(op, MultiPoly(op.rank, {p: ONE}))
           for p in enumerate_flag_basis(kind, 10).monomials}
    for n in range(11):
        basis = enumerate_flag_basis(kind, n)
        assert _flag_images(op, basis) == [ref[p] for p in basis.monomials]


def test_flag_matrix_small():
    mat = flag_matrix(e7_operator("raw"), 1, Fraction(1, 3))
    assert mat == [[0, 0], [0, 3]]


def test_spectrum_on_the_two_smallest_flags():
    s = spectrum(e7_operator("raw"), 1)
    assert s.certificate == "dominance-triangular"
    assert s.eigenvalues == (
        NuLinear.of(0),
        NuLinear.of(Fraction(-3, 2), Fraction(27, 2)),
    )
    c = spectrum(e7_operator("canonical"), 1)
    assert c.eigenvalues == (
        NuLinear.of(0),
        NuLinear.of(Fraction(-3, 2), Fraction(-27)),
    )
    assert c.at(Fraction(1, 2)) == [0, Fraction(-3, 2) - Fraction(27, 2)]
    # a float nu evaluates each eigenvalue in floats, slope sign included
    assert c.at(0.5) == [0.0, -15.0] and all(type(v) is float for v in c.at(0.5))


def _unit(k):
    return tuple(1 if a == k else 0 for a in range(7))


def test_a_matrix_below_the_diagonal_names_its_first_entry():
    # B2 += tau_3 sends tau_2 to tau_3, which follows it in the dominance order
    can = e7_operator("canonical")
    broken = replace(can, B=(can.B[0], can.B[1] + MultiPoly.variable(7, 3)) + can.B[2:])
    s = spectrum(broken, 2)
    assert s.certificate == "not-triangular"
    assert s.eigenvalues is None
    assert s.below_diagonal == (_unit(2), _unit(1), NuLinear.of(1))
    with pytest.raises(ValueError):
        s.at(0)


def test_an_image_outside_the_flag_is_named():
    # B1 += tau_7 sends tau_1 to a term of weighted degree 4, outside P_1
    can = e7_operator("canonical")
    broken = replace(can, B=(can.B[0] + MultiPoly.variable(7, 7),) + can.B[1:])
    message = r"image term \(0, 0, 0, 0, 0, 0, 1\) leaves P_1"
    with pytest.raises(ValueError, match=message):
        spectrum(broken, 1)
    with pytest.raises(ValueError, match=message):
        flag_matrix(broken, 1, 0)


def _free_spectrum(monomials):
    """-(lambda, lambda) for the weight lambda of each monomial, in order."""
    sysr = build_system("E7")
    w = [sysr.y_rep(v) for v in sysr.fundamental_weights]
    out = []
    for mono in monomials:
        lam = tuple(
            sum(p * w[a][k] for a, p in enumerate(mono)) for k in range(7)
        )
        out.append(-sysr.dot_y(lam, lam))
    return out


def test_free_spectrum_matches_weight_norms():
    # at nu = 0 the eigenvalue on the monomial lambda-flag is -(lambda, lambda)
    s = spectrum(e7_operator("raw"), 3)
    assert sorted(s.at(0)) == sorted(_free_spectrum(s.basis.monomials))


def test_canonical_spectrum_stays_triangular_at_n9():
    s = spectrum(e7_operator("canonical"), 9)
    assert s.basis.dim == 318
    assert s.certificate == "dominance-triangular"
    assert s.at(0) == _free_spectrum(s.basis.monomials)


def _ready_set_order(sysr, cv, n):
    """Reference flag order: the quadratic ready-set loop on dominance_leq."""
    fw = sysr.fundamental_weights

    def weight(p):
        lam = vscale(0, fw[0])
        for a, e in enumerate(p):
            lam = vadd(lam, vscale(e, fw[a]))
        return lam

    by_grade = {}
    for p in product(*[range(n // c + 1) for c in cv]):
        g = sum(c * e for c, e in zip(cv, p))
        if g <= n:
            by_grade.setdefault(g, []).append(p)
    ordered = []
    for g in sorted(by_grade):
        remaining = sorted(by_grade[g])
        while remaining:
            ready = [
                p
                for p in remaining
                if not any(
                    q != p and dominance_leq(sysr, weight(q), weight(p))
                    for q in remaining
                )
            ]
            pick = min(ready)
            ordered.append(pick)
            remaining.remove(pick)
    return tuple(ordered)


@pytest.mark.parametrize("kind, top", [("E7", 5), ("A1", 10), ("A2", 10), ("G2", 10)])
def test_flag_order_matches_the_ready_set_reference(kind, top):
    sysr = build_system(kind)
    cv = characteristic_vector(sysr)
    for n in range(top + 1):
        basis = enumerate_flag_basis(kind, n)
        assert basis.monomials == _ready_set_order(sysr, cv, n)


def test_wp_invariance_sequential_round_trip():
    params = {k: Fraction(0) for k in WP_PARAM_NAMES}
    params.update(
        {"a2": Fraction(3, 2), "b3_2": Fraction(-1), "c7_1": Fraction(2, 5)}
    )
    rep = weighted_projective_check(params, 5, mode="sequential")
    assert rep["ok"]
    assert rep["det"] == "1"
    assert rep["unit_triangular_lines"]


def test_unit_triangularity_needs_the_line_order_and_a_unit_diagonal():
    basis = enumerate_flag_basis("E7", 4)
    t = [MultiPoly.variable(7, k) for k in range(1, 8)]
    by_tau2 = sorted(range(basis.dim), key=lambda k: (basis.monomials[k][1], basis.monomials[k]))
    shear = _line_matrix(basis, [t[0], t[1] + t[2]] + t[2:])
    assert _unit_triangular_in_order(shear, by_tau2)
    assert not _unit_triangular_in_order(shear, by_tau2[::-1])
    double = _line_matrix(basis, [t[0], t[1] + t[1]] + t[2:])
    assert not _unit_triangular_in_order(double, by_tau2)


def test_line_matrix_rejects_a_nu_dependent_image():
    # a substitution is nu-free, as MultiPoly.substitute requires
    basis = enumerate_flag_basis("E7", 2)
    t = [MultiPoly.variable(7, k) for k in range(1, 8)]
    with pytest.raises(NuDegreeError):
        _line_matrix(basis, [t[0] * MultiPoly.constant(7, NuLinear.of(1, 1))] + t[1:])


def test_wp_simultaneous_can_be_singular():
    # applying all lines at once is not a composition of transvections
    params = {k: Fraction(0) for k in WP_PARAM_NAMES}
    params["b2_1"] = Fraction(1)
    params["b3_1"] = Fraction(1)
    rep = weighted_projective_check(params, 6, mode="simultaneous")
    assert rep["det"] == "0"
    assert not rep["ok"]
    assert rep["unit_triangular_lines"] is None


def test_wp_rejects_bad_input():
    with pytest.raises(ValueError):
        weighted_projective_check({"a2": 1}, 3)
    with pytest.raises(ValueError):
        weighted_projective_check([0] * 30, 3)
    params = {k: Fraction(0) for k in WP_PARAM_NAMES}
    with pytest.raises(ValueError):
        weighted_projective_check(params, 3, mode="diagonal")


def test_exact_det():
    assert exact_det([[Fraction(2), Fraction(1)], [Fraction(4), Fraction(3)]]) == 2
    assert exact_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0


def _fraction_det(mat):
    """Reference for exact_det: Fraction Gaussian elimination with partial
    pivoting, the elimination exact_det ran before it moved to integers."""
    m = [row[:] for row in mat]
    dim = len(m)
    det = Fraction(1)
    for col in range(dim):
        piv = next((r for r in range(col, dim) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, dim):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


_small = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def _rational_matrices(draw):
    dim = draw(st.integers(0, 6))
    rows = [draw(st.lists(_small, min_size=dim, max_size=dim)) for _ in range(dim)]
    if dim > 1 and draw(st.booleans()):
        # a row that is a multiple of another makes the matrix singular
        i, j = draw(st.permutations(range(dim)))[:2]
        rows[i] = [draw(_small) * v for v in rows[j]]
    return rows


F = Fraction


@given(_rational_matrices())
@example([])
@example([[F(0), F(1)], [F(1), F(0)]])  # zero leading pivot: one swap
@example([[F(0), F(2, 3), F(1)], [F(0), F(1, 2), F(5)], [F(3, 4), F(1), F(-1, 5)]])
@example([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]])  # singular
@example([[F(0), F(1)], [F(0), F(1, 7)]])  # a zero column
@settings(max_examples=200, deadline=None)
def test_exact_det_matches_fraction_elimination(mat):
    assert exact_det(mat) == _fraction_det(mat)


def _images(draw, n, leave):
    """Nu-free images of tau_1..tau_7, each inside its grade (not always
    homogeneous); with leave, one image gains a term above its grade."""
    images = []
    for k, c in enumerate(E7_CV):
        terms = draw(st.dictionaries(
            st.sampled_from(weighted_monomials(E7_CV, c)), _small, max_size=3))
        images.append(MultiPoly(7, {e: NuLinear(v) for e, v in terms.items()}))
    if leave:
        k = draw(st.integers(0, 6))
        over = [e for e in weighted_monomials(E7_CV, E7_CV[k] + 2)
                if sum(a * b for a, b in zip(E7_CV, e)) > E7_CV[k]]
        images[k] = images[k] + MultiPoly(7, {draw(st.sampled_from(over)): ONE})
    return images


@given(st.data(), st.integers(0, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_line_matrix_matches_per_monomial_substitution(data, n, leave):
    basis = enumerate_flag_basis("E7", n)
    images = _images(data.draw, n, leave)
    reference = [MultiPoly(7, {p: ONE}).substitute(images) for p in basis.monomials]
    outside = next(
        ([e for e in img.terms if e not in basis.monomials] for img in reference
         if any(e not in basis.monomials for e in img.terms)),
        None,
    )
    if outside is None:
        assert _line_matrix(basis, images) == _flag_columns(basis, reference)
        return
    # both raise on the first image that leaves P_n, naming one of its terms
    with pytest.raises(ValueError) as want:
        _flag_columns(basis, reference)
    with pytest.raises(ValueError) as got:
        _line_matrix(basis, images)
    messages = {f"image term {e} leaves P_{n}" for e in outside}
    assert str(want.value) in messages and str(got.value) in messages


@pytest.mark.parametrize("mode", ["sequential", "simultaneous"])
@pytest.mark.parametrize("seed", [5, 9])
def test_graded_det_matches_the_whole_matrix(capsys, monkeypatch, mode, seed):
    dets = []

    def whole(basis, columns):
        det = _graded_det(basis, columns)
        assert det == exact_det(_dense(columns, lambda coef: coef.c0))
        dets.append(det)
        return det

    monkeypatch.setattr(operator, "_graded_det", whole)
    argv = ["invariance", "--n", "6", "--sets", "2", "--seed", str(seed), "--mode", mode]
    assert main(argv) in (0, 1)
    assert len(dets) == 2
    sets = json.loads(capsys.readouterr().out)["result"]["sets"]
    assert [entry["det"] for entry in sets] == [str(det) for det in dets]


def test_a_grade_raising_entry_is_named():
    basis = enumerate_flag_basis("E7", 4)
    columns = [{k: ONE} for k in range(basis.dim)]
    pos = {p: k for k, p in enumerate(basis.monomials)}
    t1, t2, t3, t7 = _unit(0), _unit(1), _unit(2), _unit(6)
    # tau_1 -> tau_1 + 2 tau_3 + tau_7 raises tau_1's grade 1 to 2 and 4;
    # tau_2 -> tau_2 + tau_7 raises grade 2 to 4 in a later column
    columns[pos[t1]] |= {pos[t7]: ONE, pos[t3]: NuLinear.of(2)}
    columns[pos[t2]] |= {pos[t7]: ONE}
    with pytest.raises(ValueError) as exc:
        _graded_det(basis, columns)
    assert str(exc.value) == f"grade block violated at row {t3}, column {t1}"
    # within its grade the same map has determinant 1
    columns[pos[t1]] = {pos[t1]: ONE}
    columns[pos[t2]] = {pos[t2]: ONE, pos[t3]: NuLinear.of(Fraction(-1, 2))}
    assert _graded_det(basis, columns) == 1


def test_operator_json_round_trip():
    op = e7_operator("raw")
    payload = operator_to_json(op)
    assert payload["system"] == "E7"
    rebuilt = MultiPoly.from_terms(7, payload["A"][0][0])
    assert rebuilt == op.a_entry(1, 1)
    rebuilt_b = MultiPoly.from_terms(7, payload["B"][6])
    assert rebuilt_b == op.b_entry(7)
    assert len(payload["checksum"]) == 64
    assert operator_to_json(op) == payload
