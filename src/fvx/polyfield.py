"""Exact multivariate polynomial arithmetic over the rationals.

A ``Poly`` is an immutable sparse polynomial: a map from exponent tuples to
nonzero ``Fraction`` coefficients, together with the number of variables it
lives over.  Coordinate scalar fields use four variables (x0..x3), surface
pullbacks use one variable per surface parameter, and Lagrangian densities
use five formal variables per field.  Everything downstream -- forms,
derivatives, integrals, duals -- stores these polynomials as coefficients,
so every identity in the test suite reduces to an exact comparison of
canonical term maps.

No floats anywhere: coefficients are arbitrary-precision rationals, and all
operations (product, formal partial, substitution, the homotopy-scaling
integral) stay inside the ring.

Two operations substitute into a polynomial.  ``compose`` replaces every
variable by a polynomial (pullbacks along a surface map, reparametrizations,
jets of fields).  ``restrict`` sets one variable to a rational and drops it,
in one pass over the terms; it builds the map of each face of a parameter
box, where ``compose`` would multiply out a substitution of all variables
and one constant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

Exponent = tuple[int, ...]
RationalLike = Fraction | int


class Poly:
    """Polynomial with Fraction coefficients in ``nvars`` variables.

    ``terms`` maps exponent tuples (one entry per variable) to nonzero
    coefficients; zero coefficients are dropped on construction, so equality
    of polynomials is equality of the term maps.  Instances are treated as
    immutable: no method mutates ``terms``.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, RationalLike] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        canonical: dict[Exponent, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != nvars:
                raise ValueError(f"exponent {expo!r} does not have {nvars} entries")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo!r}")
            value = Fraction(coeff)
            if value:
                canonical[expo] = canonical.get(expo, Fraction(0)) + value
                if not canonical[expo]:
                    del canonical[expo]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, Fraction]) -> "Poly":
        """Wrap a term map that Poly arithmetic computed itself.

        Its exponents already have ``nvars`` nonnegative entries and its
        coefficients are already Fractions, so only the zero coefficients
        are dropped; input from outside goes through ``Poly(...)``, which
        checks everything.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if c})
        return poly

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls.const(0, nvars)

    @classmethod
    def const(cls, value: RationalLike, nvars: int) -> "Poly":
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        return cls._trusted(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, axis: int, nvars: int) -> "Poly":
        if not 0 <= axis < nvars:
            raise ValueError(f"axis {axis} out of range for {nvars} variables")
        expo = tuple(1 if i == axis else 0 for i in range(nvars))
        return cls(nvars, {expo: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomials over different variable counts")
            return other
        if not isinstance(other, (int, Fraction)):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        return Poly.const(other, self.nvars)

    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        other = self._coerce(other)
        merged = dict(self.terms)
        for expo, coeff in other.terms.items():
            merged[expo] = merged.get(expo, Fraction(0)) + coeff
        return Poly._trusted(self.nvars, merged)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly | RationalLike") -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Poly | RationalLike") -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            factor = Fraction(other)
            return Poly._trusted(self.nvars, {e: c * factor for e, c in self.terms.items()})
        if other.nvars != self.nvars:
            raise ValueError("polynomials over different variable counts")
        product: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                product[key] = product.get(key, Fraction(0)) + ca * cb
        return Poly._trusted(self.nvars, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power")
        result = Poly.const(1, self.nvars)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.nvars)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_fraction(self) -> Fraction:
        """Value of a constant polynomial; error if any variable appears."""
        for expo, coeff in self.terms.items():
            if any(expo):
                raise ValueError("polynomial is not constant")
            return coeff
        return Fraction(0)

    # -- calculus-facing operations ----------------------------------------

    def partial(self, axis: int) -> "Poly":
        """Formal partial derivative along one variable."""
        if not 0 <= axis < self.nvars:
            raise ValueError(f"axis {axis} out of range for {self.nvars} variables")
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            k = expo[axis]
            if k == 0:
                continue
            dropped = expo[:axis] + (k - 1,) + expo[axis + 1 :]
            out[dropped] = out.get(dropped, Fraction(0)) + coeff * k
        return Poly._trusted(self.nvars, out)

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise ValueError("point has the wrong number of coordinates")
        values = [Fraction(v) for v in point]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for value, power in zip(values, expo):
                term *= value**power
            total += term
        return total

    def restrict(self, axis: int, value: RationalLike) -> "Poly":
        """Set variable ``axis`` to ``value`` and drop it; the result has one
        variable fewer."""
        if not 0 <= axis < self.nvars:
            raise ValueError(f"axis {axis} out of range for {self.nvars} variables")
        value = Fraction(value)
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            rest = expo[:axis] + expo[axis + 1 :]
            out[rest] = out.get(rest, Fraction(0)) + coeff * value ** expo[axis]
        return Poly._trusted(self.nvars - 1, out)

    def compose(self, maps: Sequence["Poly"]) -> "Poly":
        """Substitute ``maps[i]`` for variable i; result lives over the maps' variables."""
        if len(maps) != self.nvars:
            raise ValueError("substitution needs one polynomial per variable")
        if self.nvars == 0:
            target = 0
        else:
            target = maps[0].nvars
            if any(m.nvars != target for m in maps):
                raise ValueError("substitution polynomials over different variable counts")
        # Cache powers of each substituted polynomial; exponents repeat a lot.
        # pows[axis][k - 1] is maps[axis] ** k.
        pows: list[list[Poly]] = [[m] for m in maps]
        one: dict[Exponent, Fraction] = {(0,) * target: Fraction(1)}
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            term = None
            for axis, power in enumerate(expo):
                if not power:
                    continue
                cache = pows[axis]
                while len(cache) < power:
                    cache.append(cache[-1] * maps[axis])
                term = cache[power - 1] if term is None else term * cache[power - 1]
            for e, c in (one if term is None else term.terms).items():
                out[e] = out.get(e, Fraction(0)) + coeff * c
        return Poly._trusted(target, out)

    def scale_integrate(self, power: int) -> "Poly":
        """Radial-scaling integral: each degree-d monomial picks up 1/(power+d+1).

        This is the kernel of the cone construction that inverts closed
        forms: integrating t^power * p(t*x) over t in [0,1] exactly.
        """
        if power < 0:
            raise ValueError("power must be nonnegative")
        return Poly(
            self.nvars,
            {e: c / (power + sum(e) + 1) for e, c in self.terms.items()},
        )

    def __repr__(self) -> str:
        names = default_names(self.nvars)
        return f"Poly({format_poly(self, names)!r})"


def integrate_box(p: Poly, box: Sequence[tuple[RationalLike, RationalLike]]) -> Fraction:
    """Exact integral over a rational box, one monomial at a time."""
    if len(box) != p.nvars:
        raise ValueError("box must have one interval per variable")
    bounds = [(Fraction(a), Fraction(b)) for a, b in box]
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        term = coeff
        for (low, high), power in zip(bounds, expo):
            term *= (high ** (power + 1) - low ** (power + 1)) / (power + 1)
        total += term
    return total


# -- text format -----------------------------------------------------------
#
# Grammar (used by every file the command-line tool reads): a signed sum of
# terms, each term a product of an optional rational coefficient and variable
# powers, products written by juxtaposition or '*', powers with '^'.
# Coefficients are ASCII digits with an optional '/digits'; exponents are
# ASCII digits.  Example: "3/2 x0^2 x1 - x3".

COORD_NAMES: tuple[str, ...] = ("x0", "x1", "x2", "x3")


def param_names(m: int) -> tuple[str, ...]:
    return tuple(f"l{k}" for k in range(1, m + 1))


def default_names(nvars: int) -> tuple[str, ...]:
    if nvars == 4:
        return COORD_NAMES
    return tuple(f"v{k}" for k in range(nvars))


def _monomial_text(expo: Exponent, names: Sequence[str]) -> str:
    parts = []
    for name, power in zip(names, expo):
        if power == 1:
            parts.append(name)
        elif power > 1:
            parts.append(f"{name}^{power}")
    return " ".join(parts)


def _term_key(expo: Exponent) -> tuple:
    return (-sum(expo), tuple(-e for e in expo))


def format_poly(p: Poly, names: Sequence[str] | None = None) -> str:
    """Canonical text for a polynomial; parse_poly inverts it exactly."""
    if names is None:
        names = default_names(p.nvars)
    if len(names) < p.nvars:
        raise ValueError("not enough variable names")
    if p.is_zero:
        return "0"
    chunks: list[str] = []
    for expo in sorted(p.terms, key=_term_key):
        coeff = p.terms[expo]
        monomial = _monomial_text(expo, names)
        magnitude = abs(coeff)
        if monomial and magnitude == 1:
            body = monomial
        elif monomial:
            body = f"{magnitude} {monomial}"
        else:
            body = str(magnitude)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


_DIGITS = frozenset("0123456789")  # str.isdigit also accepts "٣" and "²"


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append(ch)
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k] in _DIGITS:
                    k += 1
                if k == j + 1:
                    raise ValueError(f"malformed rational at position {i}: {text[i:k]!r}")
                if not int(text[j + 1 : k]):
                    raise ValueError(f"zero denominator in {text[i:k]!r}")
                tokens.append(text[i:k])
                i = k
            else:
                tokens.append(text[i:j])
                i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise ValueError(f"unexpected character {ch!r} at position {i}")
    return tokens


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse the signed-sum-of-products grammar into a canonical Poly."""
    nvars = len(names)
    axis_of = {name: i for i, name in enumerate(names)}
    tokens = _tokenize(text)
    result = Poly.zero(nvars)
    pos = 0

    if not tokens:
        raise ValueError("empty polynomial text")

    while pos < len(tokens):
        sign = Fraction(1)
        while pos < len(tokens) and tokens[pos] in "+-":
            if tokens[pos] == "-":
                sign = -sign
            pos += 1
        if pos >= len(tokens):
            raise ValueError("dangling sign at end of polynomial")
        coeff = sign
        expo = [0] * nvars
        saw_factor = False
        while pos < len(tokens) and tokens[pos] not in "+-":
            token = tokens[pos]
            if token == "*":
                pos += 1
                continue
            if token == "^":
                raise ValueError("'^' with no preceding variable")
            if token[0] in _DIGITS:
                coeff *= Fraction(token)
                pos += 1
                saw_factor = True
                continue
            axis = axis_of.get(token)
            if axis is None:
                raise ValueError(f"unknown variable {token!r}")
            pos += 1
            power = 1
            if pos < len(tokens) and tokens[pos] == "^":
                pos += 1
                if pos >= len(tokens) or not set(tokens[pos]) <= _DIGITS:
                    raise ValueError(f"'^' after {token!r} needs an integer exponent")
                power = int(tokens[pos])
                pos += 1
            expo[axis] += power
            saw_factor = True
        if not saw_factor:
            raise ValueError("term with no factors")
        result = result + Poly(nvars, {tuple(expo): coeff})
    return result
