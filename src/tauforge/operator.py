"""The E7 Hamiltonian in orbit invariants: tables, flag machinery, spectra.

The operator acts on polynomials f(tau_1..tau_7) as

    h f = sum_{i,j} A_ij d2f/dtau_i dtau_j + sum_i B_i df/dtau_i

with A symmetric and nu-free and B affine in nu.  The tables ship as data
in two variants: "raw" is the verbatim transcription of the published
tables, "canonical" replaces the entries that fail the numeric oracle with
refitted ones (see data/e7_operator_corrections.json and the README).
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import groupby
from math import lcm, prod
from operator import add, le
from typing import Mapping

from .exactpoly import ZERO, MultiPoly, NuDegreeError, NuLinear, grade, weighted_monomials
from .rootsys import RootSystem, build_system, characteristic_vector, integer_weight_coords

E7_CV = (1, 2, 2, 2, 3, 3, 4)


@dataclass(frozen=True)
class AlgebraicOperator:
    system: RootSystem
    cv: tuple[int, ...]
    A: tuple[tuple[MultiPoly, ...], ...]
    B: tuple[MultiPoly, ...]
    variant: str = "raw"
    # the structural check of these very tables (stored_data_report), so a
    # modified copy never carries the violations of the operator it came from
    violations: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", stored_data_report(self))

    @property
    def rank(self) -> int:
        return len(self.B)

    def a_entry(self, i: int, j: int) -> MultiPoly:
        """A_ij with 1-based indices."""
        return self.A[i - 1][j - 1]

    def b_entry(self, i: int) -> MultiPoly:
        return self.B[i - 1]


def table_slots(cv) -> list[tuple[str, int, int | None, int]]:
    """Each table entry as (id, i, j, bound), in table order: A's upper
    triangle row by row, then B, with zero-based i, j and j None for B.
    bound is the entry's weighted-degree bound, cv_i + cv_j for A_ij and
    cv_i for B_i."""
    rank = len(cv)
    return [
        (f"A{i + 1}{j + 1}", i, j, cv[i] + cv[j]) for i in range(rank) for j in range(i, rank)
    ] + [(f"B{i + 1}", i, None, cv[i]) for i in range(rank)]


def _entry_indices(which: str, rank: int) -> tuple[str, int, int | None]:
    """Zero-based ("A", i, j) or ("B", i, None) for an id such as A17 or B3."""
    key = which.strip().upper()
    digits = key[1:]
    if digits.isdecimal():
        if key[0] == "A" and len(digits) == 2:
            i, j = int(digits[0]) - 1, int(digits[1]) - 1
            if 0 <= i < rank and 0 <= j < rank:
                return "A", i, j
        if key[0] == "B" and 0 < int(digits) <= rank:
            return "B", int(digits) - 1, None
    raise ValueError(f"bad entry id {which!r} for rank {rank}")


def build_operator(
    sysr: RootSystem,
    entries: Mapping[str, MultiPoly],
    variant: str,
    base: AlgebraicOperator | None = None,
) -> AlgebraicOperator:
    """The operator with the named entries (A17, B3, ...), the rest from base.

    A_ij and A_ji are one entry, so A is symmetric.  Raises ValueError on
    a bad id, or when an entry is neither named nor in base.
    """
    rank = sysr.rank
    A = [list(row) for row in base.A] if base else [[None] * rank for _ in range(rank)]
    B = list(base.B) if base else [None] * rank
    for which, poly in entries.items():
        kind_, i, j = _entry_indices(which, rank)
        if kind_ == "A":
            A[i][j] = A[j][i] = poly
        else:
            B[i] = poly
    if None in B or any(None in row for row in A):
        raise ValueError(f"{variant} operator is missing a table entry")
    return AlgebraicOperator(
        system=sysr,
        cv=characteristic_vector(sysr),
        A=tuple(map(tuple, A)),
        B=tuple(B),
        variant=variant,
    )


@dataclass(frozen=True)
class FlagBasis:
    n: int
    cv: tuple[int, ...]
    monomials: tuple[tuple[int, ...], ...]
    grades: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class SpectrumResult:
    basis: FlagBasis
    eigenvalues: tuple[NuLinear, ...] | None
    certificate: str
    # for a "not-triangular" matrix: the first nonzero entry below the
    # diagonal (lowest column, then lowest row) as row monomial, column
    # monomial and coefficient
    below_diagonal: tuple[tuple[int, ...], tuple[int, ...], NuLinear] | None = None

    def at(self, nu) -> list:
        if self.eigenvalues is None:
            raise ValueError("a matrix that is not triangular has no diagonal spectrum")
        return [e.eval(nu) for e in self.eigenvalues]


# ---------------------------------------------------------------------------
# table data


def _data_text(name: str) -> str:
    return resources.files("tauforge").joinpath("data").joinpath(name).read_text()


def _verify_checksum(body: dict, label: str) -> None:
    payload = {k: v for k, v in body.items() if k != "checksum"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    if hashlib.sha256(blob).hexdigest() != body["checksum"]:
        raise ValueError(f"checksum mismatch in {label}")


def stored_data_report(op: AlgebraicOperator) -> tuple[str, ...]:
    """Check the structural invariants of the tables; return violations.

    Checked: nu-free A, weighted degree bounds, the leading tau_i tau_j
    coefficient law A_ij -> -(w_i . w_j), and B_i(nu=0) = -d_i^2 tau_i.
    """
    sysr = op.system
    ints = sysr.ints
    rank = op.rank
    out: list[str] = []
    for name, i, j, bound in table_slots(op.cv):
        p = op.B[i] if j is None else op.A[i][j]
        if j is not None and not p.is_nu_free():
            out.append(f"{name}: nu-dependent coefficient")
        top = p.weighted_degree(op.cv)
        if top > bound:
            out.append(f"{name}: weighted degree {top} > {bound}")
        if j is None:
            nu0 = {e: c.c0 for e, c in p.terms.items() if c.c0 != 0}
            unit = tuple(1 if k == i else 0 for k in range(rank))
            if nu0 != {unit: -sysr.weight_lengths_sq[i]}:
                out.append(f"{name}: nu=0 part is not -d_{i+1}^2 tau_{i+1}")
            continue
        lead_exp = tuple(
            (2 if i == j else 1) if k in (i, j) else 0 for k in range(rank)
        )
        got = p.terms.get(lead_exp, NuLinear()).c0
        want = -Fraction(ints.dot(ints.weights[i], ints.weights[j]), ints.scale**2)
        if got != want:
            out.append(
                f"{name}: coefficient of tau_{i+1}tau_{j+1} is {got}, "
                f"leading law needs {want}"
            )
    return tuple(out)


def table_entries(body: dict):
    """(entry id, term rows) of a table-file body, in table order; each
    row of the file's A holds A's upper triangle from the diagonal on."""
    for name, i, j, _ in table_slots(body["charvec"]):
        yield name, body["B"][i] if j is None else body["A"][i][j - i]


@lru_cache(maxsize=None)
def e7_operator(variant: str = "raw") -> AlgebraicOperator:
    """Load the E7 tables.

    variant "raw" is the verbatim transcription; "canonical" applies the
    refitted replacement entries.  Structural violations are recorded on
    the returned operator, never silently fixed.
    """
    if variant not in ("raw", "canonical"):
        raise ValueError(f"unknown variant {variant!r}")
    body = json.loads(_data_text("e7_operator_raw.json"))
    _verify_checksum(body, "e7_operator_raw.json")
    if body["system"] != "E7" or tuple(body["charvec"]) != E7_CV:
        raise ValueError("unexpected raw table header")
    entries = {key: MultiPoly.from_terms(7, rows) for key, rows in table_entries(body)}
    if variant == "canonical":
        corr = json.loads(_data_text("e7_operator_corrections.json"))
        _verify_checksum(corr, "e7_operator_corrections.json")
        if corr["base_checksum"] != body["checksum"]:
            raise ValueError("corrections were built against different raw tables")
        entries |= {
            key: MultiPoly.from_terms(7, rows) for key, rows in corr["entries"].items()
        }
    return build_operator(build_system("E7"), entries, variant)


# ---------------------------------------------------------------------------
# action on polynomials


def apply(op: AlgebraicOperator, f: MultiPoly) -> MultiPoly:
    """h f, exactly."""
    rank = op.rank
    if f.rank != rank:
        raise ValueError("rank mismatch")
    firsts = [f.partial_derivative(i + 1) for i in range(rank)]
    out = MultiPoly.zero(rank)
    for i in range(rank):
        if firsts[i].is_zero():
            continue
        out = out + op.B[i] * firsts[i]
        for j in range(i, rank):
            second = firsts[i].partial_derivative(j + 1)
            if second.is_zero():
                continue
            term = op.A[i][j] * second
            out = out + (term + term if j > i else term)
    return out


def flag_degree_check(op: AlgebraicOperator) -> dict:
    """Weighted-degree bounds on every table entry; equivalent to h(P_n) in P_n.

    Each term above its entry's bound is a violation, in table order.
    """
    bad = [
        {"entry": name, "exp": list(exp), "wdeg": wd, "bound": bound}
        for name, i, j, bound in table_slots(op.cv)
        for exp in (op.B[i] if j is None else op.A[i][j]).terms
        if (wd := grade(op.cv, exp)) > bound
    ]
    return {"ok": not bad, "violations": bad}


# ---------------------------------------------------------------------------
# flag basis


def _dominance_sorted(block: list, heights: dict) -> list:
    """Kahn's algorithm over one grade, smallest ready monomial first.

    q sits below p when heights[q] <= heights[p] componentwise.  The heap
    always yields the lexicographically least monomial with nothing below
    it among those not yet placed.  Distinct monomials have distinct
    integer heights, so q below p forces sum(heights[q]) < sum(heights[p]),
    and only such pairs are compared.
    """
    above: dict = {p: [] for p in block}
    indegree = dict.fromkeys(block, 0)
    by_sum = sorted(block, key=lambda p: sum(heights[p]))
    sums = [sum(heights[p]) for p in by_sum]
    for q, total in zip(by_sum, sums):
        hq = heights[q]
        for p in by_sum[bisect_right(sums, total):]:
            if all(map(le, hq, heights[p])):
                above[q].append(p)
                indegree[p] += 1
    ready = [p for p in block if not indegree[p]]
    heapq.heapify(ready)
    placed = []
    while ready:
        q = heapq.heappop(ready)
        placed.append(q)
        for p in above[q]:
            indegree[p] -= 1
            if not indegree[p]:
                heapq.heappush(ready, p)
    if len(placed) != len(block):
        raise RuntimeError("dominance order has a cycle")
    return placed


@lru_cache(maxsize=None)
def enumerate_flag_basis(kind: str, n: int) -> FlagBasis:
    """All monomials with sum(cv_i p_i) <= n, graded, dominance-refined.

    cv is the characteristic vector of the root system `kind`.  Within a
    grade the monomials are topologically sorted so that a monomial whose
    weight is dominated comes first (deterministic lexicographic
    tie-break).  This makes the operator's matrix on the basis upper
    triangular.  Dominance is compared on the integer simple-root
    coordinates of the weights (integer_weight_coords).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    sysr = build_system(kind)
    cv = characteristic_vector(sysr)
    coords = integer_weight_coords(sysr)
    heights = {
        p: tuple(sum(e * c[k] for e, c in zip(p, coords)) for k in range(sysr.rank))
        for p in weighted_monomials(cv, n)
    }

    ordered: list[tuple[int, ...]] = []
    by_grade: dict[int, list] = {}
    for p in heights:
        by_grade.setdefault(grade(cv, p), []).append(p)
    for g in sorted(by_grade):
        ordered.extend(_dominance_sorted(sorted(by_grade[g]), heights))
    return FlagBasis(
        n=n,
        cv=cv,
        monomials=tuple(ordered),
        grades=tuple(grade(cv, p) for p in ordered),
    )


def _flag_images(op: AlgebraicOperator, basis: FlagBasis) -> list[MultiPoly]:
    """h applied to each basis monomial, in basis order: apply's results in integers.

    A term of entry (i, j) becomes (shift, a0, a1): its exponent minus 1_i
    and 1_j, and D times its nu^0 and nu^1 coefficients, D the lcm of all
    their denominators.  The image of tau^p gains m (a0, a1) at p + shift,
    m = p_i for B_i, p_i (p_i - 1) for A_ii and 2 p_i p_j for A_ij, i < j;
    each sum is divided by D once.  An image may leave P_n; _flag_columns
    rejects a term outside the basis, and flag-check reports the degrees.
    """
    slots = [(i, j, op.B[i] if j is None else op.A[i][j]) for _, i, j, _ in table_slots(op.cv)]
    den = lcm(*(c.denominator for *_, p in slots for t in p.terms.values() for c in (t.c0, t.c1)))
    entries = [(i, j, [
        (tuple(e - (k == i) - (k == j) for k, e in enumerate(x)), int(t.c0 * den), int(t.c1 * den))
        for x, t in p.terms.items()
    ]) for i, j, p in slots]

    # NuLinear is immutable, so one object serves every equal coefficient
    @lru_cache(maxsize=None)
    def coef(s0: int, s1: int) -> NuLinear:
        return NuLinear(Fraction(s0, den), Fraction(s1, den))

    images = []
    for p in basis.monomials:
        acc: dict[tuple[int, ...], list[int]] = {}
        for i, j, terms in entries:
            m = p[i] if j is None else p[i] * (p[i] - 1) if i == j else 2 * p[i] * p[j]
            for shift, a0, a1 in terms if m else ():
                s = acc.setdefault(tuple(map(add, p, shift)), [0, 0])
                s[0] += m * a0
                s[1] += m * a1
        images.append(MultiPoly._of(op.rank, {e: coef(*s) for e, s in acc.items()}))
    return images


def _flag_columns(basis: FlagBasis, images: list[MultiPoly]) -> list[dict[int, NuLinear]]:
    """The sparse matrix of a map of P_n: per column, row index -> coefficient.

    images[k] is the image of basis monomial k.  Raises if an image has a
    term outside the basis, i.e. leaves P_n.
    """
    pos = {p: k for k, p in enumerate(basis.monomials)}
    columns = []
    for img in images:
        column = {}
        for exp, coef in img.terms.items():
            row = pos.get(exp)
            if row is None:
                raise ValueError(f"image term {exp} leaves P_{basis.n}")
            column[row] = coef
        columns.append(column)
    return columns


def _dense(columns: list[dict[int, NuLinear]], value) -> list[list[Fraction]]:
    """The dense matrix with entry value(coefficient) at each stored entry."""
    dim = len(columns)
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for col, column in enumerate(columns):
        for row, coef in column.items():
            mat[row][col] = value(coef)
    return mat


def _check_grades(basis: FlagBasis, columns: list[dict[int, NuLinear]], value) -> None:
    """Raise on the first nonzero value(coef) above its column's grade, by column then row."""
    for col, column in enumerate(columns):
        g = basis.grades[col]
        high = [r for r, coef in column.items() if basis.grades[r] > g and value(coef)]
        if high:
            mono = basis.monomials
            raise ValueError(f"grade block violated at row {mono[min(high)]}, column {mono[col]}")


def flag_matrix(op: AlgebraicOperator, n: int, nu) -> list[list[Fraction]]:
    """Exact matrix of the operator on FlagBasis(n) at rational nu.

    Raises if an image has a term outside the basis, i.e. leaves P_n, or
    breaks the block triangularity of the weighted-degree grading.
    """
    nu = Fraction(nu)
    basis = enumerate_flag_basis(op.system.kind, n)
    columns = _flag_columns(basis, _flag_images(op, basis))
    _check_grades(basis, columns, lambda coef: coef.eval(nu))
    return _dense(columns, lambda coef: coef.eval(nu))


def spectrum(op: AlgebraicOperator, n: int) -> SpectrumResult:
    """Eigenvalues of the operator on FlagBasis(n), affine in nu.

    One pass over the sparse nu-symbolic columns: if no nonzero entry lies
    below the diagonal, the matrix is upper triangular for every nu and
    the eigenvalues are its diagonal coefficients.  Otherwise the result
    is a failed check naming the first entry below the diagonal.
    """
    basis = enumerate_flag_basis(op.system.kind, n)
    columns = _flag_columns(basis, _flag_images(op, basis))
    for col, column in enumerate(columns):
        below = [row for row in column if row > col]
        if below:
            row = min(below)
            return SpectrumResult(
                basis=basis,
                eigenvalues=None,
                certificate="not-triangular",
                below_diagonal=(basis.monomials[row], basis.monomials[col], column[row]),
            )
    return SpectrumResult(
        basis=basis,
        eigenvalues=tuple(column.get(k, ZERO) for k, column in enumerate(columns)),
        certificate="dominance-triangular",
    )


# ---------------------------------------------------------------------------
# weighted projective invariance


WP_PARAM_NAMES = (
    "a2", "b2_1", "b2_2",
    "a3", "b3_1", "b3_2",
    "a4", "b4_1", "b4_2",
    "a5", "b5_1", "b5_2", "b5_3", "c5",
    "a6", "b6_1", "b6_2", "b6_3", "c6",
    "a7", "b7_1", "b7_2", "b7_3", "c7_1", "c7_2",
    "d7_1", "d7_2", "d7_3", "d7_4", "d7_5", "d7_6",
)


def _wp_lines(params: dict[str, Fraction]) -> list[tuple[int, MultiPoly]]:
    """The correction polynomial added to each tau_a, a = 2..7.

    Every correction is weighted-homogeneous of the variable's own grade
    and never involves the variable itself, so each line is a transvection
    of the flag.
    """
    t = [MultiPoly.variable(7, a) for a in range(1, 8)]

    def c(name):
        return MultiPoly.constant(7, params[name])

    lines = [
        (2, c("a2") * t[0] ** 2 + c("b2_1") * t[2] + c("b2_2") * t[3]),
        (3, c("a3") * t[0] ** 2 + c("b3_1") * t[1] + c("b3_2") * t[3]),
        (4, c("a4") * t[0] ** 2 + c("b4_1") * t[1] + c("b4_2") * t[2]),
        (
            5,
            c("a5") * t[0] ** 3
            + (c("b5_1") * t[1] + c("b5_2") * t[2] + c("b5_3") * t[3]) * t[0]
            + c("c5") * t[5],
        ),
        (
            6,
            c("a6") * t[0] ** 3
            + (c("b6_1") * t[1] + c("b6_2") * t[2] + c("b6_3") * t[3]) * t[0]
            + c("c6") * t[4],
        ),
        (
            7,
            c("a7") * t[0] ** 4
            + (c("b7_1") * t[1] + c("b7_2") * t[2] + c("b7_3") * t[3]) * t[0] ** 2
            + (c("c7_1") * t[4] + c("c7_2") * t[5]) * t[0]
            + c("d7_1") * t[1] ** 2
            + c("d7_2") * t[2] ** 2
            + c("d7_3") * t[3] ** 2
            + c("d7_4") * t[1] * t[2]
            + c("d7_5") * t[1] * t[3]
            + c("d7_6") * t[2] * t[3],
        ),
    ]
    for a, g in lines:
        for exp in g.terms:
            if grade(E7_CV, exp) != E7_CV[a - 1]:
                raise ValueError(f"line {a} correction is not grade homogeneous")
            if exp[a - 1]:
                raise ValueError(f"line {a} correction involves tau_{a}")
    return lines


def _line_matrix(basis: FlagBasis, images: list[MultiPoly]) -> list[dict[int, NuLinear]]:
    """The substitution tau_k -> images[k-1] on P_n, as sparse columns.

    The image of p is the image of p / tau_k times images[k-1], tau_k the
    last variable in p: p / tau_k is in P_n and of lower grade, so it comes
    earlier in the basis.  Each image is held as integer numerators over
    one denominator, the product of its factors' lcms, and is reduced
    once.  Raises if an image leaves P_n, NuDegreeError if one has nu.
    """
    if not all(img.is_nu_free() for img in images):
        raise NuDegreeError("substitution images must be nu-free")
    dens = [lcm(*(t.c0.denominator for t in img.terms.values())) for img in images]
    factors = [({e: int(t.c0 * d) for e, t in g.terms.items()}, d) for g, d in zip(images, dens)]
    one, *rest = basis.monomials
    image = {one: ({one: 1}, 1)}
    for p in rest:
        k = max(i for i, e in enumerate(p) if e)
        (f, fd), (g, gd) = image[p[:k] + (p[k] - 1,) + p[k + 1:]], factors[k]
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        image[p] = ({e: c for e, c in acc.items() if c}, fd * gd)
    return _flag_columns(basis, [
        MultiPoly._of(len(one), {e: NuLinear(Fraction(c, d)) for e, c in f.items()})
        for f, d in image.values()
    ])


def exact_det(mat: list[list[Fraction]]) -> Fraction:
    """Determinant by Bareiss' fraction-free elimination in integers.

    Each row is scaled by the lcm of its denominators, every division by the
    previous pivot is exact, and the last pivot over those lcms is the result.
    """
    dens = [lcm(*(v.denominator for v in row)) for row in mat]
    m = [[v.numerator * (d // v.denominator) for v in row] for row, d in zip(mat, dens)]
    sign, prev = 1, 1
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv], sign = m[piv], m[col], -sign
        last, prev = prev, m[col][col]
        for r in range(col + 1, len(m)):
            m[r] = [(prev * a - m[r][col] * b) // last for a, b in zip(m[r], m[col])]
    return Fraction(sign * prev, prod(dens))


def _graded_det(basis: FlagBasis, columns: list[dict[int, NuLinear]]) -> Fraction:
    """Determinant of a nu-free map of P_n that keeps the grade flag.

    The map is block upper triangular by grade, so its determinant is the
    product of exact_det over the diagonal grade blocks.  Raises on an
    entry that raises the grade: the map does not keep the flag.
    """
    _check_grades(basis, columns, lambda coef: coef.c0)
    det = Fraction(1)
    for g, members in groupby(range(basis.dim), key=basis.grades.__getitem__):
        lo = basis.grades.index(g)
        block = [{r - lo: c for r, c in columns[k].items() if basis.grades[r] == g} for k in members]
        det *= exact_det(_dense(block, lambda coef: coef.c0))
    return det


def _unit_triangular_in_order(columns: list[dict[int, NuLinear]], order) -> bool:
    """Is the matrix upper triangular with unit diagonal after permuting by order?

    The substitution matrices are nu-free, so each entry is its c0.
    """
    place = {k: i for i, k in enumerate(order)}
    return all(
        column.get(col, ZERO).c0 == 1
        and all(place[row] <= place[col] or not coef.c0 for row, coef in column.items())
        for col, column in enumerate(columns)
    )


def weighted_projective_check(params, n: int, mode: str = "sequential") -> dict:
    """Invariance of the flag under the weighted-projective substitution.

    params: 31 rationals in WP_PARAM_NAMES order (or a name->value dict).
    mode "sequential" composes the seven displayed lines one after another
    (each line is unit triangular, so the composite has determinant 1);
    mode "simultaneous" applies the whole display as a single substitution,
    which still preserves the flag but need not have determinant 1.  The
    determinant is taken per grade block, after checking that no entry
    raises the grade; that check backs containment_ok.
    """
    if isinstance(params, dict):
        pd = {k: Fraction(v) for k, v in params.items()}
        missing = set(WP_PARAM_NAMES) - set(pd)
        if missing:
            raise ValueError(f"missing parameters: {sorted(missing)}")
    else:
        vals = list(params)
        if len(vals) != len(WP_PARAM_NAMES):
            raise ValueError(f"need {len(WP_PARAM_NAMES)} parameters, got {len(vals)}")
        pd = {k: Fraction(v) for k, v in zip(WP_PARAM_NAMES, vals)}
    if mode not in ("sequential", "simultaneous"):
        raise ValueError(f"unknown mode {mode!r}")
    basis = enumerate_flag_basis("E7", n)
    lines = _wp_lines(pd)

    report = {
        "mode": mode,
        "n": n,
        "dim": basis.dim,
        "params": {k: str(v) for k, v in pd.items()},
    }
    imgs = [MultiPoly.variable(7, k) for k in range(1, 8)]
    if mode == "sequential":
        per_line = []
        for a, g in lines:
            step = [MultiPoly.variable(7, k) for k in range(1, 8)]
            step[a - 1] = step[a - 1] + g
            order = sorted(range(basis.dim), key=lambda k: (basis.monomials[k][a - 1], basis.monomials[k]))
            unit = _unit_triangular_in_order(_line_matrix(basis, step), order)
            per_line.append({"line": a, "unit_triangular": unit})
            imgs = [c.substitute(step) for c in imgs]
        report["per_line"] = per_line
        report["unit_triangular_lines"] = all(x["unit_triangular"] for x in per_line)
    else:
        for a, g in lines:
            imgs[a - 1] = imgs[a - 1] + g
        # the lines are not applied one by one, so none is tested alone
        report["unit_triangular_lines"] = None
    det = _graded_det(basis, _line_matrix(basis, imgs))
    report["det"] = str(det)
    report["containment_ok"] = True
    report["invertible"] = det != 0
    report["ok"] = (
        report["unit_triangular_lines"] and det == 1 if mode == "sequential" else det != 0
    )
    return report


# ---------------------------------------------------------------------------
# matrix export


def operator_to_json(op: AlgebraicOperator) -> dict:
    """Serialize in the table-file layout (A upper triangle, B list)."""
    rank = op.rank
    body = {
        "system": op.system.kind,
        "charvec": list(op.cv),
        "variant": op.variant,
        "A": [
            [op.A[i][j].canonical_terms(op.cv) for j in range(i, rank)]
            for i in range(rank)
        ],
        "B": [b.canonical_terms(op.cv) for b in op.B],
    }
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    body["checksum"] = hashlib.sha256(blob).hexdigest()
    return body


def matrix_to_json(mat: list[list[Fraction]]) -> list[list[str]]:
    return [[str(v) for v in row] for row in mat]


def matrix_to_csv(mat: list[list[Fraction]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in mat:
        writer.writerow([str(v) for v in row])
    return buf.getvalue()
