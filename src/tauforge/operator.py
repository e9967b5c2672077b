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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .exactpoly import MultiPoly, NuLinear, weighted_monomials
from .rootsys import (
    RootSystem,
    build_system,
    characteristic_vector,
    integer_weight_coords,
    vadd,
    vdot,
    vscale,
)

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


@dataclass(frozen=True)
class FlagBasis:
    n: int
    cv: tuple[int, ...]
    monomials: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[Fraction, ...], ...]
    grades: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class SpectrumResult:
    basis: FlagBasis
    eigenvalues: tuple[NuLinear, ...] | None
    certificate: str
    nu_samples: tuple[Fraction, ...]
    numeric: dict | None = None

    def at(self, nu) -> list:
        if self.eigenvalues is not None:
            return [e.eval(nu) for e in self.eigenvalues]
        raise ValueError("numeric fallback result has no closed eigenvalues")


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
    cv = op.cv
    rank = op.rank
    out: list[str] = []
    for i in range(rank):
        for j in range(i, rank):
            p = op.A[i][j]
            if not p.is_nu_free():
                out.append(f"A{i+1}{j+1}: nu-dependent coefficient")
            wd = p.weighted_degree(cv)
            if wd != float("-inf") and wd > cv[i] + cv[j]:
                out.append(f"A{i+1}{j+1}: weighted degree {wd} > {cv[i] + cv[j]}")
            lead_exp = tuple(
                (2 if i == j else 1) if k in (i, j) else 0 for k in range(rank)
            )
            got = p.terms.get(lead_exp, NuLinear()).c0
            want = -vdot(sysr.fundamental_weights[i], sysr.fundamental_weights[j])
            if got != want:
                out.append(
                    f"A{i+1}{j+1}: coefficient of tau_{i+1}tau_{j+1} is {got}, "
                    f"leading law needs {want}"
                )
        b = op.B[i]
        wd = b.weighted_degree(cv)
        if wd != float("-inf") and wd > cv[i]:
            out.append(f"B{i+1}: weighted degree {wd} > {cv[i]}")
        nu0 = {e: c.c0 for e, c in b.terms.items() if c.c0 != 0}
        unit = tuple(1 if k == i else 0 for k in range(rank))
        d2 = sysr.weight_lengths_sq[i]
        if nu0 != {unit: -d2}:
            out.append(f"B{i+1}: nu=0 part is not -d_{i+1}^2 tau_{i+1}")
    return tuple(out)


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
    rank = 7
    tri = {
        (i, i + j): MultiPoly.from_terms(rank, rows)
        for i, row in enumerate(body["A"])
        for j, rows in enumerate(row)
    }
    b_list = [MultiPoly.from_terms(rank, rows) for rows in body["B"]]
    if variant == "canonical":
        corr = json.loads(_data_text("e7_operator_corrections.json"))
        _verify_checksum(corr, "e7_operator_corrections.json")
        if corr["base_checksum"] != body["checksum"]:
            raise ValueError("corrections were built against different raw tables")
        for key, rows in corr["entries"].items():
            poly = MultiPoly.from_terms(rank, rows)
            if key.startswith("A"):
                i, j = int(key[1]) - 1, int(key[2]) - 1
                tri[(i, j)] = poly
            else:
                b_list[int(key[1:]) - 1] = poly
    full = tuple(
        tuple(tri[(min(i, j), max(i, j))] for j in range(rank)) for i in range(rank)
    )
    sysr = build_system("E7")
    return AlgebraicOperator(
        system=sysr,
        cv=characteristic_vector(sysr),
        A=full,
        B=tuple(b_list),
        variant=variant,
    )


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
    """Weighted-degree bounds on every table entry; equivalent to h(P_n) in P_n."""
    cv = op.cv
    rank = op.rank
    bad = []
    for i in range(rank):
        for j in range(i, rank):
            bound = cv[i] + cv[j]
            for exp in op.A[i][j].terms:
                wd = sum(c * p for c, p in zip(cv, exp))
                if wd > bound:
                    bad.append(
                        {"entry": f"A{i+1}{j+1}", "exp": list(exp), "wdeg": wd, "bound": bound}
                    )
        for exp in op.B[i].terms:
            wd = sum(c * p for c, p in zip(cv, exp))
            if wd > cv[i]:
                bad.append(
                    {"entry": f"B{i+1}", "exp": list(exp), "wdeg": wd, "bound": cv[i]}
                )
    return {"ok": not bad, "violations": bad}


# ---------------------------------------------------------------------------
# flag basis


def _system_for_cv(cv: tuple[int, ...]) -> RootSystem | None:
    for kind in ("E7", "A1", "A2", "G2"):
        sysr = build_system(kind)
        if characteristic_vector(sysr) == cv:
            return sysr
    return None


def _dominance_sorted(block: list, heights: dict) -> list:
    """Kahn's algorithm over one grade, smallest ready monomial first.

    q sits below p when heights[q] <= heights[p] componentwise.  The heap
    always yields the lexicographically least monomial with nothing below
    it among those not yet placed.
    """
    above: dict = {p: [] for p in block}
    indegree = dict.fromkeys(block, 0)
    for q in block:
        hq = heights[q]
        for p in block:
            if p != q and all(a <= b for a, b in zip(hq, heights[p])):
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
def enumerate_flag_basis(cv: tuple[int, ...], n: int, kind: str | None = None) -> FlagBasis:
    """All monomials with sum(cv_i p_i) <= n, graded, dominance-refined.

    Within a grade the monomials are topologically sorted so that a
    monomial whose weight is dominated comes first (deterministic
    lexicographic tie-break).  This makes the operator's matrix on the
    basis upper triangular.  Dominance is compared on the integer
    simple-root coordinates of the weights (integer_weight_coords).
    """
    cv = tuple(cv)
    if n < 0:
        raise ValueError("n must be >= 0")
    sysr = build_system(kind) if kind else _system_for_cv(cv)
    monos = weighted_monomials(cv, n)
    weights = {}
    heights = {}
    if sysr is not None:
        fw = sysr.fundamental_weights
        coords = integer_weight_coords(sysr)
        zero = vscale(Fraction(0), fw[0])
        for p in monos:
            lam = zero
            for a, e in enumerate(p):
                if e:
                    lam = vadd(lam, vscale(Fraction(e), fw[a]))
            weights[p] = lam
            heights[p] = tuple(
                sum(e * c[k] for e, c in zip(p, coords)) for k in range(sysr.rank)
            )

    def grade(p):
        return sum(c * e for c, e in zip(cv, p))

    ordered: list[tuple[int, ...]] = []
    by_grade: dict[int, list] = {}
    for p in monos:
        by_grade.setdefault(grade(p), []).append(p)
    for g in sorted(by_grade):
        block = sorted(by_grade[g])
        if sysr is None:
            ordered.extend(block)
            continue
        ordered.extend(_dominance_sorted(block, heights))
    return FlagBasis(
        n=n,
        cv=cv,
        monomials=tuple(ordered),
        weights=tuple(weights.get(p, ()) for p in ordered),
        grades=tuple(grade(p) for p in ordered),
    )


def _basis_for_op(op: AlgebraicOperator, n: int) -> FlagBasis:
    return enumerate_flag_basis(op.cv, n, kind=op.system.kind)


def _flag_images(op: AlgebraicOperator, basis: FlagBasis) -> list[MultiPoly]:
    """h applied to each basis monomial, in basis order.

    An image may leave P_n; _expand_images rejects any term outside the
    basis, and flag-check reports the images' weighted degrees.
    """
    one = NuLinear(Fraction(1))
    return [apply(op, MultiPoly(op.rank, {p: one})) for p in basis.monomials]


def _expand_images(
    basis: FlagBasis, images: list[MultiPoly], nu
) -> list[list[Fraction]]:
    pos = {p: k for k, p in enumerate(basis.monomials)}
    dim = basis.dim
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for col, img in enumerate(images):
        for exp, coef in img.terms.items():
            row = pos.get(exp)
            if row is None:
                raise ValueError(f"image term {exp} not in the basis")
            val = coef.eval(nu)
            if val:
                mat[row][col] = val
    return mat


def flag_matrix(op: AlgebraicOperator, n: int, nu) -> list[list[Fraction]]:
    """Exact matrix of the operator on FlagBasis(n) at rational nu.

    Raises if an image has a term outside the basis, i.e. leaves P_n;
    verifies block triangularity with
    respect to the weighted-degree grading.
    """
    nu = Fraction(nu)
    basis = _basis_for_op(op, n)
    mat = _expand_images(basis, _flag_images(op, basis), nu)
    for r in range(basis.dim):
        for c in range(basis.dim):
            if basis.grades[r] > basis.grades[c] and mat[r][c]:
                raise ValueError(
                    f"grade block violated at row {basis.monomials[r]}, "
                    f"column {basis.monomials[c]}"
                )
    return mat


def _strictly_upper(mat) -> bool:
    return all(mat[r][c] == 0 for r in range(len(mat)) for c in range(r))


def spectrum(op: AlgebraicOperator, n: int, nu=None) -> SpectrumResult:
    """Eigenvalues of the operator on FlagBasis(n), affine in nu.

    The matrix is built at three rational nu values; if the dominance
    ordering renders it upper triangular at each, eigenvalues are read off
    the diagonal and fitted affinely with an exact zero-residual
    requirement.  Otherwise falls back to a numeric eigensolve per grade
    block, flagged in the certificate.
    """
    basis = _basis_for_op(op, n)
    images = _flag_images(op, basis)
    samples = (Fraction(0), Fraction(1), Fraction(2))
    mats = [_expand_images(basis, images, s) for s in samples]
    if all(_strictly_upper(m) for m in mats):
        eigs = []
        for k in range(basis.dim):
            d0, d1, d2 = (m[k][k] for m in mats)
            c1 = d1 - d0
            if d0 + 2 * c1 != d2:
                raise ValueError(
                    f"diagonal entry {k} is not affine in nu: {d0}, {d1}, {d2}"
                )
            eigs.append(NuLinear(d0, c1))
        result = SpectrumResult(
            basis=basis,
            eigenvalues=tuple(eigs),
            certificate="dominance-triangular",
            nu_samples=samples,
        )
    else:
        import numpy as np

        numeric = {}
        for s, m in zip(samples, mats):
            vals = []
            start = 0
            grades = basis.grades
            while start < basis.dim:
                stop = start
                while stop < basis.dim and grades[stop] == grades[start]:
                    stop += 1
                block = np.array(
                    [[float(m[r][c]) for c in range(start, stop)] for r in range(start, stop)]
                )
                vals.extend(sorted(np.linalg.eigvals(block).real.tolist()))
                start = stop
            numeric[str(s)] = vals
        result = SpectrumResult(
            basis=basis,
            eigenvalues=None,
            certificate="numeric-block",
            nu_samples=samples,
            numeric=numeric,
        )
    if nu is not None and result.eigenvalues is not None:
        _ = result.at(nu)
    return result


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
    cv = E7_CV
    for a, g in lines:
        for exp in g.terms:
            if sum(c_ * e for c_, e in zip(cv, exp)) != cv[a - 1]:
                raise ValueError(f"line {a} correction is not grade homogeneous")
            if exp[a - 1]:
                raise ValueError(f"line {a} correction involves tau_{a}")
    return lines


def _substitution_images(line: tuple[int, MultiPoly]) -> list[MultiPoly]:
    a, g = line
    imgs = [MultiPoly.variable(7, k) for k in range(1, 8)]
    imgs[a - 1] = imgs[a - 1] + g
    return imgs


def _line_matrix(basis: FlagBasis, images: list[MultiPoly]) -> list[list[Fraction]]:
    pos = {p: k for k, p in enumerate(basis.monomials)}
    dim = basis.dim
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for col, p in enumerate(basis.monomials):
        mono = MultiPoly(7, {p: NuLinear(Fraction(1))})
        img = mono.substitute(images)
        for exp, coef in img.terms.items():
            row = pos.get(exp)
            if row is None:
                raise ValueError(f"substitution image term {exp} leaves P_{basis.n}")
            mat[row][col] = coef.c0
    return mat


def exact_det(mat: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination with partial pivoting."""
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


def _unit_triangular_in_order(mat, order) -> bool:
    """Is mat upper triangular with unit diagonal after permuting by order?"""
    dim = len(mat)
    for ri, r in enumerate(order):
        if mat[r][r] != 1:
            return False
        for ci in range(ri):
            if mat[r][order[ci]] != 0:
                return False
    return True


def weighted_projective_check(params, n: int, mode: str = "sequential") -> dict:
    """Invariance of the flag under the weighted-projective substitution.

    params: 31 rationals in WP_PARAM_NAMES order (or a name->value dict).
    mode "sequential" composes the seven displayed lines one after another
    (each line is unit triangular, so the composite has determinant 1);
    mode "simultaneous" applies the whole display as a single substitution,
    which still preserves the flag but need not have determinant 1.
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
    basis = enumerate_flag_basis(E7_CV, n, kind="E7")
    lines = _wp_lines(pd)

    report = {
        "mode": mode,
        "n": n,
        "dim": basis.dim,
        "params": {k: str(v) for k, v in pd.items()},
    }
    if mode == "sequential":
        per_line = []
        comp = [MultiPoly.variable(7, k) for k in range(1, 8)]
        for line in lines:
            a, _ = line
            imgs = _substitution_images(line)
            mat = _line_matrix(basis, imgs)
            order = sorted(range(basis.dim), key=lambda k: (basis.monomials[k][a - 1], basis.monomials[k]))
            per_line.append(
                {"line": a, "unit_triangular": _unit_triangular_in_order(mat, order)}
            )
            comp = [c.substitute(imgs) for c in comp]
        mat = _line_matrix(basis, comp)
        det = exact_det(mat)
        report["per_line"] = per_line
        report["det"] = str(det)
        report["unit_triangular_lines"] = all(x["unit_triangular"] for x in per_line)
        report["containment_ok"] = True
        report["invertible"] = det != 0
        report["ok"] = report["unit_triangular_lines"] and det == 1
    else:
        imgs = [MultiPoly.variable(7, k) for k in range(1, 8)]
        for a, g in lines:
            imgs[a - 1] = imgs[a - 1] + g
        mat = _line_matrix(basis, imgs)
        det = exact_det(mat)
        report["det"] = str(det)
        report["containment_ok"] = True
        report["invertible"] = det != 0
        report["ok"] = det != 0
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
