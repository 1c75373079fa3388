"""Truncated power series over exact rationals, plus the catalog of
generating functions for 021-avoiders restricted by a length-4 pattern.

Coefficients are `fractions.Fraction` throughout, so every identity the
tests assert is exact; integrality of counting series is checked, never
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .patterns import Pattern, normalize_pattern

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("polynomial powers must be non-negative")
        result = P(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def coefficient(self, n: int) -> Fraction:
        return self.coeffs[n] if n < len(self.coeffs) else Fraction(0)


def P(*coeffs: Scalar) -> Polynomial:
    """Shorthand constructor: P(1, -2) is the polynomial 1 - 2x."""
    return Polynomial(tuple(Fraction(c) for c in coeffs))


class PowerSeries:
    """A truncated formal power series; `order` counts known coefficients.

    Arithmetic results carry the minimum order of the operands, so a
    coefficient is only ever reported when it is exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "PowerSeries":
        return cls(tuple(p.coefficient(n) for n in range(order)))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if self.order > 8 else ""
        return f"PowerSeries([{shown}{more}] order={self.order})"

    def matches(self, other: "PowerSeries") -> bool:
        """Equality up to the common order."""
        k = min(self.order, other.order)
        return self.coeffs[:k] == other.coeffs[:k]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        k = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * k
        for i in range(k):
            ai = a[i]
            if ai:
                for j in range(k - i):
                    out[i + j] += ai * b[j]
        return PowerSeries(out)

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("division by a series with zero constant term")
        k = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        inv0 = 1 / b[0]
        out = [Fraction(0)] * k
        for n in range(k):
            acc = a[n]
            for i in range(1, n + 1):
                acc -= b[i] * out[n - i]
            out[n] = acc * inv0
        return PowerSeries(out)

    def sqrt(self) -> "PowerSeries":
        """Principal square root of a series with constant term 1,
        by coefficient matching on s*s = self.
        """
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        a = self.coeffs
        out = [Fraction(0)] * self.order
        out[0] = Fraction(1)
        for n in range(1, self.order):
            acc = a[n]
            for i in range(1, n):
                acc -= out[i] * out[n - i]
            out[n] = acc / 2
        return PowerSeries(out)

    def shift_down(self, k: int) -> "PowerSeries":
        """Exact division by x^k; any nonzero discarded coefficient means
        a catalog formula was transcribed wrong, so it is a hard error.
        """
        if any(self.coeffs[i] != 0 for i in range(min(k, self.order))):
            raise ArithmeticError(
                f"division by x^{k} leaves a nonzero low-order remainder"
            )
        return PowerSeries(self.coeffs[k:] or (Fraction(0),))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def int_coeffs(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError("series has non-integer coefficients")
        return tuple(int(c) for c in self.coeffs)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coefficients": [str(c) for c in self.coeffs],
        }

    def to_bfile(self) -> str:
        return "".join(f"{n} {c}\n" for n, c in enumerate(self.coeffs))


def expand_ratio(num: Polynomial, den: Polynomial, order: int) -> PowerSeries:
    """Taylor expansion of num/den carrying coefficients of x^0..x^order.
    Requires den(0) != 0.
    """
    if den.coefficient(0) == 0:
        raise ZeroDivisionError("denominator has zero constant term")
    return PowerSeries.from_polynomial(num, order + 1) / PowerSeries.from_polynomial(
        den, order + 1
    )


def h_r_series(r: int, order: int) -> PowerSeries:
    """Length generating function for nonempty nondecreasing sequences
    starting at 0 with at most r jumps:

        h_r = x/(1-2x) * ((1-x)/(1-2x))^r = x(1-x)^r / (1-2x)^(r+1).

    Equivalent characterizations, both load-bearing for tests: h_r solves
    h_r = x + 2x*h_r + x*(h_0 + ... + h_{r-1}), and h_r is the length
    generating function of (r+1)-tuples of staircase words (first one
    nonempty), since 1 + x/(1-2x) = (1-x)/(1-2x).
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    num = P(0, 1) * P(1, -1) ** r
    den = P(1, -2) ** (r + 1)
    return expand_ratio(num, den, order)


@dataclass(frozen=True)
class GfFormula:
    """Closed form (poly + sqrt_coeff * sqrt(sqrt_arg)) / (x^shift * denom)."""

    poly: Polynomial
    sqrt_coeff: Polynomial | None
    sqrt_arg: Polynomial | None
    shift: int
    denom: Polynomial

    def expand(self, order: int) -> PowerSeries:
        work = order + 1 + self.shift
        num = PowerSeries.from_polynomial(self.poly, work)
        if self.sqrt_coeff is not None:
            root = PowerSeries.from_polynomial(self.sqrt_arg, work).sqrt()
            num = num + PowerSeries.from_polynomial(self.sqrt_coeff, work) * root
        num = num.shift_down(self.shift)
        return num / PowerSeries.from_polynomial(self.denom, order + 1)


def _ratio(num: Polynomial, den: Polynomial) -> GfFormula:
    return GfFormula(num, None, None, 0, den)


_x = P(0, 1)
_one_minus_x = P(1, -1)
_one_minus_2x = P(1, -2)
_fib = P(1, -3, 1)  # 1 - 3x + x^2

#: Catalan numbers: every length-4 pattern whose positive letters appear
#: out of order imposes no restriction on 021-avoiders.
CATALAN_FORMULA = GfFormula(P(1), P(-1), P(1, -4), 1, P(2))

_delta = P(1, -1, -1, -1)
_f0000_num = _delta**5 + _x * P(
    1, -3, 0, 3, 11, -3, -19, -9, 11, 14, 11, 4, 1
)

#: Generating functions for the 33 restrictive length-4 patterns, keyed by
#: the patterns of each Wilf class.  New entries need only a formula here.
_CLASS_FORMULAS: list[tuple[tuple[str, ...], GfFormula]] = [
    (
        ("0010", "0100", "0110", "0123"),
        _ratio(_one_minus_x * P(1, -4, 4, 1), _one_minus_2x**3),
    ),
    (
        ("0011", "0112"),
        _ratio(P(1, -4, 5, -1), _one_minus_x * _one_minus_2x**2),
    ),
    (
        ("0012", "0102"),
        _ratio(P(1, -4, 6, -3, 1), _one_minus_x**3 * _one_minus_2x),
    ),
    (
        ("0101", "0120", "0122"),
        _ratio(_one_minus_2x, _fib),
    ),
    (
        ("1000", "1100"),
        _ratio(_one_minus_x * P(1, -8, 24, -31, 13, 2, 2), _one_minus_2x**5),
    ),
    (
        ("1001", "1011", "1101"),
        GfFormula(
            P(1, -3, 3),
            P(-1),
            _fib**2 - P(0, 0, 0, 4) * _one_minus_x,
            2,
            P(2),
        ),
    ),
    (
        ("1010", "1120"),
        _ratio(_one_minus_x * P(1, -5, 7, -1), _one_minus_2x**2 * _fib),
    ),
    (
        ("1020", "1022"),
        _ratio(
            P(1, -9, 32, -56, 49, -19, 1),
            _one_minus_x * _one_minus_2x**3 * _fib,
        ),
    ),
    (
        ("1200", "1220", "1230"),
        _ratio(P(1, -7, 17, -16, 5, -1), _one_minus_2x * _fib**2),
    ),
    (("0000",), _ratio(_f0000_num, _delta**5)),
    (
        ("0001",),
        _ratio(
            P(1, -5, 8, 0, -10, 5, 1, 0, 1),
            _one_minus_x**3 * P(1, -1, -1) ** 3,
        ),
    ),
    (
        ("0111",),
        GfFormula(_one_minus_x**2, P(-1), P(1, -4, 2, 0, 1), 2, P(2)),
    ),
    (
        ("1110",),
        GfFormula(
            P(1, -5, 8, -5, 1),
            P(-1) * P(1, -3, 1, 2),
            P(1, -4, 2, 0, 1),
            2,
            P(2) * _one_minus_2x**2,
        ),
    ),
    (
        ("1002",),
        _ratio(
            P(1, -9, 34, -69, 81, -54, 16, 1),
            _one_minus_x**4 * _one_minus_2x**3,
        ),
    ),
    (
        ("1012",),
        _ratio(P(1, -5, 8, -4, 1), _one_minus_x * _one_minus_2x * _fib),
    ),
    (
        ("1023",),
        _ratio(
            P(1, -8, 26, -43, 38, -16, 0, 1),
            _one_minus_x**3 * _one_minus_2x**3,
        ),
    ),
    (
        ("1102",),
        _ratio(
            P(1, -8, 26, -43, 38, -16, 1),
            _one_minus_x**3 * _one_minus_2x**3,
        ),
    ),
    (("1202",), _ratio(_fib, _one_minus_x * P(1, -3))),
    (
        ("1203",),
        _ratio(P(1, -8, 24, -32, 17, -2, -1), _one_minus_2x**3 * _fib),
    ),
]

CATALOG: dict[tuple[int, ...], GfFormula] = {}
WILF_CLASSES: list[tuple[str, ...]] = []
for _members, _formula in _CLASS_FORMULAS:
    WILF_CLASSES.append(_members)
    for _name in _members:
        CATALOG[tuple(int(ch) for ch in _name)] = _formula

#: The 33 length-4 patterns that actually restrict 021-avoiders.
RESTRICTIVE_PATTERNS: tuple[str, ...] = tuple(
    sorted(name for members, _ in _CLASS_FORMULAS for name in members)
)

DEFAULT_ORDER = 32


def catalan_series(order: int = DEFAULT_ORDER) -> PowerSeries:
    """Expansion of the Catalan number generating function."""
    return CATALAN_FORMULA.expand(order)


def gf_catalog(pattern: Pattern | str, order: int = DEFAULT_ORDER) -> PowerSeries:
    """The length generating function of the ascent sequences avoiding
    both 021 and the given pattern.

    Supported patterns: 021 itself (Catalan numbers) and every normalized
    pattern of length four; the 42 non-restrictive ones fall back to the
    Catalan series.  Coefficients are asserted integral.
    """
    pat = pattern if isinstance(pattern, Pattern) else normalize_pattern(pattern)
    if pat.letters == (0, 2, 1):
        series = catalan_series(order)
    elif len(pat) == 4:
        formula = CATALOG.get(pat.letters)
        if formula is None:
            series = catalan_series(order)
        else:
            series = formula.expand(order)
    else:
        raise ValueError(
            f"no catalog entry for pattern {pat}: supported are 021 and "
            "normalized length-4 patterns"
        )
    if not series.is_integral():
        raise ArithmeticError(f"catalog series for {pat} is not integral")
    return series
