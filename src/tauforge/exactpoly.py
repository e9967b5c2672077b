"""Sparse exact polynomials in the orbit invariants tau_1..tau_rank.

Coefficients are affine in the coupling nu (c0 + c1*nu) over Fractions.
Products that would raise the nu-degree above one are rejected: every
coefficient of the target operator is at most linear in nu, so such a
product always signals a transcription or derivation mistake.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence


class NuDegreeError(ValueError):
    """Raised when an operation would produce a nu-degree above one."""


@dataclass(frozen=True)
class NuLinear:
    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)

    @staticmethod
    def of(c0=0, c1=0) -> "NuLinear":
        return NuLinear(Fraction(c0), Fraction(c1))

    def __add__(self, other: "NuLinear") -> "NuLinear":
        return NuLinear(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "NuLinear") -> "NuLinear":
        return NuLinear(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "NuLinear":
        return NuLinear(-self.c0, -self.c1)

    def __mul__(self, other: "NuLinear") -> "NuLinear":
        if not (self.c1 or other.c1):
            # both nu-free: the slope terms are products of zeros
            return NuLinear(self.c0 * other.c0, self.c1)
        if self.c1 and other.c1:
            raise NuDegreeError("product of two nu-linear coefficients")
        return NuLinear(
            self.c0 * other.c0,
            self.c0 * other.c1 + self.c1 * other.c0,
        )

    def scale(self, c) -> "NuLinear":
        c = Fraction(c)
        return NuLinear(c * self.c0, c * self.c1)

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def eval(self, nu):
        if isinstance(nu, (int, Fraction)):
            return self.c0 + self.c1 * Fraction(nu)
        return float(self.c0) + float(self.c1) * nu

    def __str__(self) -> str:
        if self.c1 == 0:
            return str(self.c0)
        if self.c0 == 0:
            return f"{self.c1}*nu"
        sign = "+" if self.c1 > 0 else "-"
        return f"({self.c0} {sign} {abs(self.c1)}*nu)"


ZERO = NuLinear()
ONE = NuLinear(Fraction(1))

# The default working precision of high-precision evaluation, in decimal
# digits.  oracle.hp_digits() is its public reader; it is kept in this
# module, which imports no numeric library, so that the command line can
# offer it as a default without loading mpmath.
_HP_DIGITS = 50


class MultiPoly:
    """Immutable sparse polynomial: exponent tuple -> NuLinear coefficient."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[tuple[int, ...], NuLinear] = ()):
        clean = {}
        for exp, coef in dict(terms).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != rank or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp} for rank {rank}")
            if not coef.is_zero():
                clean[exp] = coef
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, rank: int, terms: dict[tuple[int, ...], NuLinear]) -> "MultiPoly":
        """The ring operations' constructor: their exponent tuples are valid by
        construction, so only zero coefficients are dropped, in storage order."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "rank", rank)
        object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if c.c0 or c.c1})
        return poly

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(rank: int) -> "MultiPoly":
        return MultiPoly(rank, {})

    @staticmethod
    def constant(rank: int, value) -> "MultiPoly":
        coef = value if isinstance(value, NuLinear) else NuLinear.of(value)
        return MultiPoly(rank, {(0,) * rank: coef})

    @staticmethod
    def variable(rank: int, index: int) -> "MultiPoly":
        """tau_index as a polynomial; index is 1-based."""
        exp = tuple(1 if k == index - 1 else 0 for k in range(rank))
        return MultiPoly(rank, {exp: ONE})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "MultiPoly"):
        if not isinstance(other, MultiPoly) or other.rank != self.rank:
            raise ValueError("rank mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, ZERO) + coef
        return MultiPoly._of(self.rank, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, ZERO) - coef
        return MultiPoly._of(self.rank, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[tuple[int, ...], NuLinear] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                out[exp] = out.get(exp, ZERO) + prod
        return MultiPoly._of(self.rank, out)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.rank, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def scale(self, c) -> "MultiPoly":
        return MultiPoly(self.rank, {e: coef.scale(c) for e, coef in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def is_nu_free(self) -> bool:
        return all(c.c1 == 0 for c in self.terms.values())

    # -- calculus and degree ------------------------------------------

    def partial_derivative(self, index: int) -> "MultiPoly":
        """Formal derivative with respect to tau_index (1-based)."""
        i = index - 1
        out = {}
        for exp, coef in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = coef.scale(exp[i])
        return MultiPoly(self.rank, out)

    def weighted_degree(self, cv: Sequence[int]):
        """Max over terms of sum(cv_i * p_i); -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        return max(grade(cv, exp) for exp in self.terms)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point: Sequence, nu=0):
        """Evaluate at tau = point.

        Fraction/int inputs give an exact result; anything else runs with
        float coefficients in the point's arithmetic, summed in storage
        order.  Nothing in tauforge evaluates floats through here: the
        table checks, the refit and the flatness metric compile their
        polynomials once and call eval_compiled themselves.
        """
        if len(point) != self.rank:
            raise ValueError("point length does not match rank")
        exact = all(isinstance(v, (int, Fraction)) for v in (*point, nu))
        terms = compile_poly(self, Fraction if exact else float, nu)
        powers = product_powers(point, top_exponents([terms], self.rank))
        return eval_compiled(terms, powers, point)

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Compose: replace tau_i by images[i-1] (images must be nu-free)."""
        if len(images) != self.rank:
            raise ValueError("need one image per variable")
        for img in images:
            self._check(img)
            if not img.is_nu_free():
                raise NuDegreeError("substitution images must be nu-free")
        power_cache: dict[tuple[int, int], MultiPoly] = {}

        def image_power(i: int, p: int) -> MultiPoly:
            key = (i, p)
            if key not in power_cache:
                power_cache[key] = images[i] ** p
            return power_cache[key]

        total = MultiPoly.zero(self.rank)
        for exp, coef in self.terms.items():
            mono = MultiPoly.constant(self.rank, coef)
            for i, p in enumerate(exp):
                if p:
                    mono = mono * image_power(i, p)
            total = total + mono
        return total

    # -- serialization --------------------------------------------------

    def canonical_terms(self, cv: Sequence[int]) -> list[dict]:
        """The term rows in table order, a term's nu^0 part before its nu^1 part."""
        return [
            {
                "num": str(val.numerator),
                "den": str(val.denominator),
                "nu_pow": nu_pow,
                "exp": list(exp),
            }
            for exp in table_order(cv, self.terms)
            for nu_pow, val in enumerate((self.terms[exp].c0, self.terms[exp].c1))
            if val != 0
        ]

    @staticmethod
    def from_terms(rank: int, rows: Iterable[Mapping]) -> "MultiPoly":
        terms: dict[tuple[int, ...], NuLinear] = {}
        for row in rows:
            exp = tuple(int(e) for e in row["exp"])
            val = Fraction(int(row["num"]), int(row["den"]))
            coef = terms.get(exp, ZERO)
            if int(row["nu_pow"]) == 0:
                coef = coef + NuLinear(val)
            else:
                coef = coef + NuLinear(Fraction(0), val)
            terms[exp] = coef
        return MultiPoly(rank, terms)

    def checksum(self, cv: Sequence[int]) -> str:
        blob = json.dumps(self.canonical_terms(cv), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            factors = [
                f"t{i+1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(exp)
                if p
            ]
            mono = "*".join(factors)
            parts.append(f"{coef}*{mono}" if mono else str(coef))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# -- the one evaluator ---------------------------------------------------
#
# A polynomial is compiled once per coupling and arithmetic, and every
# evaluation runs the same term loop over a table of coordinate powers.


def compile_poly(poly: MultiPoly, conv, nu) -> tuple:
    """poly at coupling nu as terms (c, ((k, e), ...)), in storage order.

    c = conv(c0) + conv(c1) * nu is formed once, conv turning a Fraction
    into the evaluation's arithmetic; the pairs list the nonzero exponents
    of the term.
    """
    return tuple(
        (
            conv(coef.c0) + conv(coef.c1) * nu,
            tuple((k, e) for k, e in enumerate(exp) if e),
        )
        for exp, coef in poly.terms.items()
    )


def top_exponents(compiled, rank: int) -> list[int]:
    """Per coordinate, the largest exponent any compiled poly raises it to."""
    top = [0] * rank
    for terms in compiled:
        for _, pairs in terms:
            for k, e in pairs:
                if e > top[k]:
                    top[k] = e
    return top


def product_powers(tau, top) -> list[list]:
    """powers[k][e] = tau[k]^e up to top[k], each the previous one times tau[k]."""
    powers = []
    for t, n in zip(tau, top):
        row = [1, t]
        for _ in range(2, n + 1):
            row.append(row[-1] * t)
        powers.append(row)
    return powers


def eval_compiled(terms, powers, tau):
    """Sum of the compiled terms at tau, in whatever arithmetic tau carries.

    Each term is c times its powers, left to right; the sum starts from
    the first term, and an empty sum is 0 * tau[0].
    """
    total = None
    for c, pairs in terms:
        m = c
        for k, e in pairs:
            m = m * powers[k][e]
        total = m if total is None else total + m
    return 0 * tau[0] if total is None else total


# -- the grading ---------------------------------------------------------


def grade(cv: Sequence[int], exp: Sequence[int]) -> int:
    """The weighted degree sum(cv_i p_i) of the monomial with exponents exp."""
    return sum(c * e for c, e in zip(cv, exp))


def table_order(cv: Sequence[int], exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """exps in the tables' canonical (weighted degree, exponent) order."""
    return sorted(exps, key=lambda e: (grade(cv, e), e))


def weighted_monomials(cv: Sequence[int], bound: int) -> list[tuple[int, ...]]:
    """Every exponent tuple p with grade(cv, p) <= bound, in lexicographic order."""
    return [
        p
        for p in product(*[range(bound // c + 1) for c in cv])
        if grade(cv, p) <= bound
    ]
