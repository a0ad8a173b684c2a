"""Exact multivariate polynomial arithmetic over the rationals.

A ``Poly`` is an immutable sparse polynomial in ``nvars`` variables, stored
as integer numerators over one common denominator.  Coordinate scalar
fields use four variables (x0..x3), surface pullbacks use one variable per
surface parameter, and Lagrangian densities use five formal variables per
field.  Everything downstream -- forms, derivatives, integrals, duals --
stores these polynomials as coefficients, so every identity in the test
suite reduces to an exact comparison of canonical polynomials.

No floats anywhere and no modular shortcut: numerators and denominators are
arbitrary-precision integers, and all operations (product, formal partial,
substitution, the homotopy-scaling integral) stay inside the ring.

Each monomial is packed into one int, 16 bits per variable (variable i in
bits 16i..16i+15).  The top bit of each field is a guard bit, so an
exponent is at most ``MAX_EXPONENT`` = 32,767 and multiplying two monomials
is one integer addition; ``*`` and ``compose`` test every product against
the guard bits and raise ``ValueError`` on overflow instead of letting a
field wrap into its neighbour.  This is the packed representation of
Monagan & Pearce, "Sparse polynomial division using a heap" (J. Symbolic
Comput. 2011); the common denominator follows FLINT's ``fmpq_poly``.

Two operations substitute into a polynomial.  ``compose`` replaces every
variable by a polynomial (pullbacks along a surface map, reparametrizations,
jets of fields).  ``restrict`` sets one variable to a rational and drops it,
in one pass over the terms; it builds the map of each face of a parameter
box, where ``compose`` would multiply out a substitution of all variables
and one constant.

``Record``, defined here, is the immutable base of every fvx value and record.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, reduce
from itertools import groupby
from math import gcd, lcm
from operator import or_
from typing import Iterator, Mapping, Sequence

Exponent = tuple[int, ...]
RationalLike = Fraction | int

MAX_EXPONENT = 0x7FFF
_BITS = 16
# Stores one slot past ``Record.__setattr__``; a global name saves a lookup per call.
_store = object.__setattr__


def _pack(expo: Exponent) -> int:
    return sum(e << _BITS * i for i, e in enumerate(expo))


def _unpack(monomial: int, nvars: int) -> Exponent:
    return tuple((monomial >> _BITS * i) & MAX_EXPONENT for i in range(nvars))


@cache
def _guard_bits(nvars: int) -> int:
    """The guard bit of every field of an ``nvars``-variable monomial."""
    return ((1 << _BITS * nvars) - 1) // 0xFFFF * 0x8000


def _ratio(value: RationalLike) -> tuple[int, int]:
    """Numerator and positive denominator of a rational; anything but an
    int or a Fraction is converted (and checked) by ``Fraction``."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


class Record:
    """Immutable record, the base of every fvx value: a subclass declares its own fields once,
    in ``__slots__`` (``()`` for none), and ``_fields`` lists its parent's and then its own.
    ``__init__`` checks and stores with ``_set``, a trusted ``_new`` with ``_store`` (``Poly``
    checks in ``__new__`` and builds through ``_new``).  ``==``, hash, repr and copies go by the
    fields; a copy or unpickled record is rebuilt by ``__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must declare __slots__")
        cls._fields += tuple(cls.__slots__)

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _store(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Poly(Record):
    """Polynomial with rational coefficients in ``nvars`` variables.

    ``num`` maps packed monomials to nonzero int numerators over the
    positive int ``den``.  The form is canonical: ``gcd(den, *num.values())``
    is 1 and the zero polynomial has ``den == 1``, so equality of polynomials
    is equality of ``nvars``, ``den`` and ``num``.  ``terms`` is the read
    view ``{exponent tuple: Fraction}``.  A ``Record`` whose ``==`` also
    takes an int or a Fraction; a copy is rebuilt through ``_new``.

    There is one zero polynomial per ``nvars``, ``Poly.zero(nvars)``: every
    operation, and ``Poly(...)`` itself, returns it for a zero result.
    """

    __slots__ = ("nvars", "den", "num")

    def __new__(cls, nvars: int, terms: Mapping[Exponent, RationalLike] | None = None) -> "Poly":
        """Check every exponent and coefficient and build the canonical Poly
        here rather than in ``__init__``, so that a zero is the shared one."""
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        coeffs: dict[int, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != nvars:
                raise ValueError(f"exponent {expo!r} does not have {nvars} entries")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo!r}")
            if any(e > MAX_EXPONENT for e in expo):
                raise ValueError(f"exponent {max(expo)} above {MAX_EXPONENT}")
            value = Fraction(coeff)
            if value:
                key = _pack(expo)
                coeffs[key] = coeffs.get(key, 0) + value
        den = lcm(*(c.denominator for c in coeffs.values()))
        return Poly._new(nvars, den, {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()})

    def __init__(self, nvars: int, terms: Mapping[Exponent, RationalLike] | None = None):
        """Nothing is left to store: ``__new__`` built the value.  The method
        stays so that traces (``perfbench``) still count each constructor call."""

    @classmethod
    def _new(cls, nvars: int, den: int, num: dict[int, int]) -> "Poly":
        """The canonical Poly of int numerators over a positive ``den``.

        Zero numerators are dropped and the content is divided out; when no
        numerator is left, the result is the shared ``Poly.zero(nvars)``,
        with no gcd and no new object.  The monomials must already be packed
        and in range: Poly arithmetic calls this on what it computed itself,
        and input from outside goes through ``Poly(...)``, which checks
        everything.
        """
        if 0 in num.values():
            num = {m: c for m, c in num.items() if c}
        if not num:
            return _constant(nvars, 0)
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {m: c // g for m, c in num.items()}
        poly = object.__new__(cls)
        _store(poly, "nvars", nvars)
        _store(poly, "den", den)
        _store(poly, "num", num)
        return poly

    def __reduce__(self) -> tuple:
        return Poly._new, (self.nvars, self.den, self.num)

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Read view: ``{exponent tuple: nonzero Fraction}``."""
        n, den = self.nvars, self.den
        return {_unpack(m, n): Fraction(c, den) for m, c in self.num.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        """The zero polynomial: one instance per ``nvars``, which every Poly
        operation returns for a zero result."""
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        return _constant(nvars, 0)

    @classmethod
    def const(cls, value: RationalLike, nvars: int) -> "Poly":
        """The constant polynomial; 0 and 1 are the shared ``_constant`` instances."""
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        top, bottom = _ratio(value)
        if bottom == 1 and top in (0, 1):
            return _constant(nvars, top)
        return cls._new(nvars, bottom, {0: top})

    @classmethod
    def variable(cls, axis: int, nvars: int) -> "Poly":
        if not 0 <= axis < nvars:
            raise ValueError(f"axis {axis} out of range for {nvars} variables")
        return cls._new(nvars, 1, {1 << _BITS * axis: 1})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomials over different variable counts")
            return other
        if not isinstance(other, (int, Fraction)):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        return Poly.const(other, self.nvars)

    def _combine(self, other: "Poly | RationalLike", sign: int) -> "Poly":
        """``self + sign * other`` for ``sign`` = 1 or -1, over the lcm of the
        two denominators."""
        if type(other) is not Poly or other.nvars != self.nvars:
            other = self._coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other if sign > 0 else -other
        g = gcd(self.den, other.den)
        scale_self, scale_other = other.den // g, sign * (self.den // g)
        merged = {m: c * scale_self for m, c in self.num.items()}
        for m, c in other.num.items():
            merged[m] = merged.get(m, 0) + c * scale_other
        return Poly._new(self.nvars, self.den * scale_self, merged)

    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        if not self.num:
            return self
        # Negation keeps the form canonical: the same denominator and content.
        poly = object.__new__(Poly)
        _store(poly, "nvars", self.nvars)
        _store(poly, "den", self.den)
        _store(poly, "num", {m: -c for m, c in self.num.items()})
        return poly

    def __sub__(self, other: "Poly | RationalLike") -> "Poly":
        return self._combine(other, -1)

    def __rsub__(self, other: "Poly | RationalLike") -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            top, bottom = other.numerator, other.denominator
            if bottom == 1 and (top == 1 or top == -1):
                return self if top == 1 else -self
            return Poly._new(self.nvars, self.den * bottom, {m: c * top for m, c in self.num.items()})
        if other.nvars != self.nvars:
            raise ValueError("polynomials over different variable counts")
        if not (self.num and other.num):
            return _constant(self.nvars, 0)
        product: dict[int, int] = {}
        get = product.get
        right = other.num.items()
        for ma, ca in self.num.items():
            for mb, cb in right:
                m = ma + mb
                product[m] = get(m, 0) + ca * cb
        # A field that overflowed has carried into its guard bit.
        if reduce(or_, product, 0) & _guard_bits(self.nvars):
            raise ValueError(f"exponent overflow: a product has an exponent above {MAX_EXPONENT}")
        return Poly._new(self.nvars, self.den * other.den, product)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.nvars)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.den == other.den and self.num == other.num

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def as_fraction(self) -> Fraction:
        """Value of a constant polynomial; error if any variable appears."""
        if self.num.keys() - {0}:
            raise ValueError("polynomial is not constant")
        return Fraction(self.num.get(0, 0), self.den)

    # -- calculus-facing operations ----------------------------------------

    def partial(self, axis: int) -> "Poly":
        """Formal partial derivative along one variable."""
        if not 0 <= axis < self.nvars:
            raise ValueError(f"axis {axis} out of range for {self.nvars} variables")
        if not self.num:
            return _constant(self.nvars, 0)
        shift = _BITS * axis
        unit = 1 << shift
        out: dict[int, int] = {}
        for m, c in self.num.items():
            k = (m >> shift) & MAX_EXPONENT
            if k:
                out[m - unit] = c * k
        return Poly._new(self.nvars, self.den, out)

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
        p, q = _ratio(value)
        if not self.num:
            return _constant(self.nvars - 1, 0)
        shift = _BITS * axis
        low = (1 << shift) - 1
        # value^k = p^k q^(top-k) / q^top: every term over the one denominator q^top.
        top = max(((m >> shift) & MAX_EXPONENT for m in self.num), default=0)
        out: dict[int, int] = {}
        for m, c in self.num.items():
            k = (m >> shift) & MAX_EXPONENT
            rest = (m & low) | ((m >> shift + _BITS) << shift)
            out[rest] = out.get(rest, 0) + c * p**k * q ** (top - k)
        return Poly._new(self.nvars - 1, self.den * q**top, out)

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
        if not self.num:
            return _constant(target, 0)
        # Cache powers of each substituted polynomial; exponents repeat a lot.
        # pows[axis][k - 1] is maps[axis] ** k.
        pows: list[list[Poly]] = [[m] for m in maps]
        one = _constant(target, 1)
        products: list[tuple[int, Poly]] = []
        for m, c in self.num.items():
            term = one
            for axis in range(self.nvars):
                power = (m >> _BITS * axis) & MAX_EXPONENT
                if not power:
                    continue
                cache = pows[axis]
                while len(cache) < power:
                    cache.append(cache[-1] * maps[axis])
                term = cache[power - 1] if term is one else term * cache[power - 1]
            products.append((c, term))
        # Every product over one common denominator, the lcm of theirs.
        den = lcm(*(term.den for _, term in products))
        out: dict[int, int] = {}
        for c, term in products:
            scale = c * (den // term.den)
            for e, t in term.num.items():
                out[e] = out.get(e, 0) + scale * t
        return Poly._new(target, self.den * den, out)

    def scale_integrate(self, power: int) -> "Poly":
        """Radial-scaling integral: each degree-d monomial picks up 1/(power+d+1).

        This is the kernel of the cone construction that inverts closed
        forms: integrating t^power * p(t*x) over t in [0,1] exactly.
        """
        if power < 0:
            raise ValueError("power must be nonnegative")
        divisors = {m: power + sum(_unpack(m, self.nvars)) + 1 for m in self.num}
        den = lcm(*divisors.values())
        return Poly._new(self.nvars, self.den * den, {m: c * (den // divisors[m]) for m, c in self.num.items()})

    def __repr__(self) -> str:
        names = default_names(self.nvars)
        return f"Poly({format_poly(self, names)!r})"


@cache
def _constant(nvars: int, value: int) -> Poly:
    """0 or 1 as one ``Poly`` per ``nvars``, shared by ``Poly.zero``,
    ``Poly.const``, ``compose`` and every zero result: nothing mutates a
    Poly's ``num`` after ``_new``.  Stored directly, already canonical,
    since ``_new`` itself returns the zero built here."""
    poly = object.__new__(Poly)
    poly._set(nvars, 1, {0: value} if value else {})
    return poly


def integrate_box(p: Poly, box: Sequence[tuple[RationalLike, RationalLike]]) -> Fraction:
    """Exact integral over a rational box.

    Integrates out one variable at a time, the highest first, so each step
    keeps the low bits of the packed monomials.  Each step puts the
    integrals of the powers that occur over one common denominator and
    stays in integers; one Fraction is built at the end.
    """
    if len(box) != p.nvars:
        raise ValueError("box must have one interval per variable")
    bounds = [(_ratio(low), _ratio(high)) for low, high in box]
    num, den = p.num, p.den
    if not num:
        return Fraction(0)
    for axis in reversed(range(p.nvars)):
        (low, low_den), (high, high_den) = bounds[axis]
        # The interval is [a, b] / base; the integral of x^k over it is
        # (b^(k+1) - a^(k+1)) / (base^(k+1) (k+1)).
        a, b, base = low * high_den, high * low_den, low_den * high_den
        shift = _BITS * axis
        powers = {(m >> shift) & MAX_EXPONENT for m in num}
        parts = {k: (b ** (k + 1) - a ** (k + 1), base ** (k + 1) * (k + 1)) for k in powers}
        step = lcm(*(bottom for _, bottom in parts.values()))
        weight = {k: top * (step // bottom) for k, (top, bottom) in parts.items()}
        mask = (1 << shift) - 1
        out: dict[int, int] = {}
        for m, c in num.items():
            rest = m & mask
            out[rest] = out.get(rest, 0) + c * weight[(m >> shift) & MAX_EXPONENT]
        num, den = out, den * step
    return Fraction(num.get(0, 0), den)


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


def format_poly(p: Poly, names: Sequence[str] | None = None) -> str:
    """Canonical text for a polynomial; parse_poly inverts it exactly.  Each
    term, highest degree first, is a "+ body" or "- body" chunk; the head
    then drops "+ " or closes up "- " to "-", and no terms read "0"."""
    if names is None:
        names = default_names(p.nvars)
    if len(names) < p.nvars:
        raise ValueError("not enough variable names")
    chunks = []
    for expo, coeff in sorted(p.terms.items(), key=lambda term: (sum(term[0]), term[0]), reverse=True):
        magnitude = abs(coeff)
        factors = [name if power == 1 else f"{name}^{power}" for name, power in zip(names, expo) if power]
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        chunks.append(f"{'-' if coeff < 0 else '+'} {' '.join(factors)}")
    text = " ".join(chunks)
    return text[2:] if text[:1] == "+" else text[:1] + text[2:] or "0"


def format_rational(value: Fraction) -> int | str:
    """A JSON integer for a whole number, else the text "p/q"."""
    return int(value) if value.denominator == 1 else str(value)


# One match per token: a coefficient ("3" or "3/2"), a name, an operator or a
# refused character ("[^\W\d_]" also admits "²" and "½", refused below).  None
# matches whitespace, so finditer steps over it; re compiles it at first use.
_TOKEN = r"([0-9]+(?:/[0-9]*)?)|([^\W\d_]\w*)|([-+*^])|(\S)"


def _tokenize(text: str) -> Iterator[str]:
    for match in re.finditer(_TOKEN, text):
        kind = match.lastindex
        token = match[kind]
        if kind == 1 and "/" in token:
            denominator = token.partition("/")[2]
            if not denominator:
                raise ValueError(f"malformed rational at position {match.start(1)}: {token!r}")
            if not int(denominator):
                raise ValueError(f"zero denominator in {token!r}")
        elif kind == 4 or kind == 2 and not token[0].isalpha():
            raise ValueError(f"unexpected character {token[0]!r} at position {match.start(kind)}")
        yield token


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse the signed-sum-of-products grammar into a canonical Poly.

    The whole text is tokenized first, so a scanner error wins.  Then each
    run of signs signs the next term and each run of factors is one term; a
    "^" raises the variable just before it to the run's next token.
    """
    nvars = len(names)
    axis_of = {name: i for i, name in enumerate(names)}
    tokens = list(_tokenize(text))
    if not tokens:
        raise ValueError("empty polynomial text")
    # Coefficients summed per exponent tuple; a zero sum keeps its key, so
    # Poly(...) still checks every exponent the text names.
    terms: dict[Exponent, RationalLike] = {}
    sign = 1  # only the first term can have no sign run before it
    for is_sign, run in groupby(tokens, "+-".__contains__):
        run = list(run)
        if is_sign:
            sign = (-1) ** run.count("-")
            continue
        if run.count("*") == len(run):
            raise ValueError("term with no factors")
        coeff, expo, axis = sign, [0] * nvars, None
        factors = iter(run)
        for token in factors:
            if token[0].isalpha():
                axis = axis_of.get(token)
                if axis is None:
                    raise ValueError(f"unknown variable {token!r}")
                expo[axis] += 1
                continue
            if token == "^":
                if axis is None:
                    raise ValueError("'^' with no preceding variable")
                power = next(factors, "")
                if not power.isdigit():  # the scanner's only digit runs are ASCII
                    raise ValueError(f"'^' after {names[axis]!r} needs an integer exponent")
                expo[axis] += int(power) - 1  # the name itself counted 1
            elif token != "*":
                coeff *= Fraction(token)
            axis = None
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + coeff
    if is_sign:
        raise ValueError("dangling sign at end of polynomial")
    return Poly(nvars, terms)
