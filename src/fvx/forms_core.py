"""Alternating algebra over the five basis labels {0, 1, 2, 3, 5}.

The five-dimensional space splits as Z + E: labels 0..3 name the coordinate
directions of the patch, label 5 names the distinguished direction spanned by
the unit vector **1** (index 4 is never used, so component subscripts read the
same in four and five dimensions).  Forms and multivectors store only their
independent components, keyed by strictly increasing index tuples, with exact
polynomial coefficients.

Three graded types share the machinery: FiveForm (covariant, labels may
include 5), FourForm (covariant, labels 0..3 only), and MultiVector
(contravariant, labels may include 5).  A FourForm S corresponds to the
FiveForm lift(S) with no label-5 components, and s_from_t / t_from_s convert
between a rank-m form with label-5 components and the rank-(m-1) form hiding
inside it.

IndexedArray is a separate container for the antisymmetrization identities,
where arrays are indexed by arbitrary tuples rather than sorted subsets; like
the forms, it stores only nonzero entries, and like ``Poly`` it keeps them as
int numerators over one common denominator.

Validation sits at the edge.  The public constructors (``FiveForm(...)``,
``FourForm(...)``, ``MultiVector(...)``, ``IndexedArray(...)``) check and
coerce every key and value they are given.  The results of fvx's own
operators go through the private ``_new`` class methods instead, which only
drop zero entries (``IndexedArray._new`` also divides out the content of
its numerators): a key built from valid keys (merged, stripped of its label
5, or complemented) is valid by construction, and every value is already an
exact ``Poly``, or an int numerator over an array's denominator.

Forms, multivectors and arrays are ``polyfield.Record`` values: immutable,
equal when of one class with equal fields, printed, copied and pickled by the
fields that ``_Alternating`` and ``IndexedArray`` declare; the form classes
add none, so no value has a ``__dict__``.  The constructors store through
``Record._set``, the ``_new`` paths through ``polyfield._store``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from fvx.polyfield import COORD_NAMES, Poly, RationalLike, Record, _store, format_poly

IndexKey = tuple[int, ...]

COORD_AXES: tuple[int, ...] = (0, 1, 2, 3)
FIVE_AXES: tuple[int, ...] = (0, 1, 2, 3, 5)


def permutation_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation sorting ``seq``; 0 if any entry repeats."""
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return -1 if inversions % 2 else 1


def signed_permutations(items: Sequence[int]) -> Iterable[tuple[int, tuple[int, ...]]]:
    """``(sign, perm)`` for each permutation of ``items`` in the order of
    ``itertools.permutations``, the sign taken relative to the positions of
    ``items``.  That order puts the i-th remaining item in front, which
    costs i transpositions, so the signs follow by recurrence with no
    ranking (Knuth, TAOCP Vol. 4A, 7.2.1.2)."""
    signs = [1]
    for m in range(2, len(items) + 1):
        signs = [-s if i % 2 else s for i in range(m) for s in signs]
    return zip(signs, itertools.permutations(items))


def merge_sign(left: IndexKey, right: IndexKey) -> tuple[int, IndexKey]:
    """Sign and sorted key for concatenating two disjoint sorted keys."""
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1 if inversions % 2 else 1), merged


class _Alternating(Record):
    """Shared storage and linear structure for forms and multivectors."""

    AXES: tuple[int, ...] = FIVE_AXES

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: Mapping[IndexKey, Poly | RationalLike] | None = None):
        if not 0 <= rank <= len(self.AXES):
            raise ValueError(f"rank {rank} out of range")
        canonical: dict[IndexKey, Poly] = {}
        axes = set(self.AXES)
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != rank:
                raise ValueError(f"key {key!r} does not have rank {rank}")
            if list(key) != sorted(set(key)):
                raise ValueError(f"key {key!r} is not strictly increasing")
            if not set(key) <= axes:
                raise ValueError(f"key {key!r} uses labels outside {self.AXES}")
            if not isinstance(value, Poly):
                value = Poly.const(value, 4)
            if value.nvars != 4:
                raise ValueError("coefficients must be polynomials in the four coordinates")
            if value.is_zero:
                continue
            if key in canonical:
                value = canonical[key] + value
            if value.is_zero:
                canonical.pop(key, None)
            else:
                canonical[key] = value
        self._set(rank, canonical)

    @classmethod
    def _new(cls, rank: int, coeffs: Mapping[IndexKey, Poly]):
        """The form of ``coeffs`` less its zero coefficients, unchecked.

        The keys must be strictly increasing tuples of ``rank`` labels from
        ``cls.AXES`` and the values polynomials in the four coordinates:
        fvx's operators call this on what they built from valid forms, and
        input from outside goes through ``cls(...)``, which checks everything.
        """
        form = object.__new__(cls)
        _store(form, "rank", rank)
        _store(form, "coeffs", {key: value for key, value in coeffs.items() if value.num})
        return form

    @classmethod
    def zero(cls, rank: int):
        return cls(rank, {})

    @classmethod
    def from_scalar(cls, value: Poly | RationalLike):
        return cls(0, {(): value})

    def coeff(self, key: Iterable[int]) -> Poly:
        value = self.coeffs.get(tuple(key))
        return Poly.zero(4) if value is None else value

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _same_kind(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.rank != self.rank:
            raise ValueError("forms of different rank cannot be combined linearly")

    def __add__(self, other):
        self._same_kind(other)
        merged = dict(self.coeffs)
        for key, value in other.coeffs.items():
            merged[key] = merged[key] + value if key in merged else value
        return type(self)._new(self.rank, merged)

    def __neg__(self):
        return type(self)._new(self.rank, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, factor: Poly | RationalLike):
        if isinstance(factor, _Alternating):
            raise TypeError("use wedge() for products of forms")
        return type(self)._new(self.rank, {k: v * factor for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    __hash__ = None  # type: ignore[assignment]


class FiveForm(_Alternating):
    __slots__ = ()
    AXES = FIVE_AXES


class FourForm(_Alternating):
    __slots__ = ()
    AXES = COORD_AXES


class MultiVector(_Alternating):
    __slots__ = ()
    AXES = FIVE_AXES


# -- basis elements ----------------------------------------------------------


def basis_one_form(axis: int) -> FiveForm:
    """The coordinate one-form along one of the five labels."""
    if axis not in FIVE_AXES:
        raise ValueError(f"no basis label {axis}")
    return FiveForm(1, {(axis,): 1})


def j_form() -> FiveForm:
    """The distinguished one-form dual to **1** (the label-5 basis form)."""
    return basis_one_form(5)


# -- graded products and pairings --------------------------------------------


def wedge(a: _Alternating, b: _Alternating) -> _Alternating:
    """Antisymmetrized product; signs follow from sorting the merged labels."""
    if type(a) is not type(b):
        raise TypeError("wedge requires operands of the same kind")
    top = len(a.AXES)
    if a.rank + b.rank > top:
        raise ValueError(f"rank exceeds {top}")
    out: dict[IndexKey, Poly] = {}
    for ka, ca in a.coeffs.items():
        set_a = set(ka)
        for kb, cb in b.coeffs.items():
            if not set_a.isdisjoint(kb):
                continue
            sign, key = merge_sign(ka, kb)
            term = ca * cb if sign > 0 else -(ca * cb)
            out[key] = out[key] + term if key in out else term
    return type(a)._new(a.rank + b.rank, out)


def contract(t: FiveForm, w: MultiVector) -> Poly:
    """Full pairing of a rank-m form with a rank-m multivector."""
    if not isinstance(t, FiveForm) or not isinstance(w, MultiVector):
        raise TypeError("contract pairs a FiveForm with a MultiVector")
    if t.rank != w.rank:
        raise ValueError("rank mismatch between form and multivector")
    total = Poly.zero(4)
    for key, coeff in t.coeffs.items():
        other = w.coeffs.get(key)
        if other is not None:
            total = total + coeff * other
    return total


def z_part(t: _Alternating) -> _Alternating:
    """Components whose labels avoid 5."""
    return type(t)._new(t.rank, {k: v for k, v in t.coeffs.items() if 5 not in k})


def e_part(t: _Alternating) -> _Alternating:
    """Components whose labels include 5."""
    return type(t)._new(t.rank, {k: v for k, v in t.coeffs.items() if 5 in k})


def lift(S: FourForm) -> FiveForm:
    """Embed a four-label form as a five-label form with no label-5 part."""
    if not isinstance(S, FourForm):
        raise TypeError("lift expects a FourForm")
    return FiveForm._new(S.rank, S.coeffs)


def project(s: FiveForm) -> FourForm:
    """Forget the label-5 components and read the rest as a four-label form."""
    if not isinstance(s, FiveForm):
        raise TypeError("project expects a FiveForm")
    if s.rank > len(COORD_AXES):
        raise ValueError(f"rank {s.rank} out of range")
    return FourForm._new(s.rank, {k: v for k, v in s.coeffs.items() if 5 not in k})


def t_from_s(s: FiveForm) -> FiveForm:
    """Append the label-5 factor: s -> s wedge j."""
    return wedge(s, j_form())


def s_from_t(t: FiveForm) -> FiveForm:
    """Strip the trailing label 5: the rank-(m-1) form with s_K = t_{K,5}."""
    if t.rank < 1:
        raise ValueError("rank-0 form has no label-5 slot")
    out = {k[:-1]: v for k, v in t.coeffs.items() if k[-1] == 5}
    return FiveForm._new(t.rank - 1, out)


def form_to_dict(form: _Alternating) -> dict:
    """The JSON view that ``io.form_from_dict`` reads back: the rank, and each
    coefficient's text under its key's digits ("015" for (0, 1, 5))."""
    coeffs = {
        "".join(str(a) for a in key): format_poly(form.coeffs[key], COORD_NAMES)
        for key in sorted(form.coeffs)
    }
    return {"rank": form.rank, "coeffs": coeffs}


def form_to_text(form: _Alternating) -> str:
    """Human-readable component listing, one sorted key per line."""
    lines = [f"rank {form.rank}"]
    if form.is_zero:
        lines.append("(zero)")
    for key in sorted(form.coeffs):
        label = "".join(str(a) for a in key) or "scalar"
        lines.append(f"{label}: {format_poly(form.coeffs[key], COORD_NAMES)}")
    return "\n".join(lines)


# -- sparse indexed arrays ----------------------------------------------------


class IndexedArray(Record):
    """Rational array over tuples from a fixed finite index set, stored as
    ``Poly`` stores its coefficients: ``num`` maps the key of each nonzero
    entry to an int numerator over the positive int ``den``.  The form is
    canonical: no numerator is 0, ``gcd(den, *num.values())`` is 1 and the
    empty array has ``den == 1``, so equal arrays have equal fields.
    ``values`` is the read view ``{key: Fraction}``; ``array[idx]`` is the
    checked read of one entry and gives 0 for any tuple that is not stored."""

    __slots__ = ("arity", "index_set", "den", "num")

    def __init__(
        self,
        arity: int,
        index_set: Sequence[int],
        values: Mapping[IndexKey, RationalLike] | None = None,
    ):
        if arity < 1:
            raise ValueError("arity must be positive")
        index_set = tuple(index_set)
        if len(set(index_set)) != len(index_set):
            raise ValueError("index set has repeats")
        table = {tuple(key): Fraction(value) for key, value in (values or {}).items()}
        den = math.lcm(*(value.denominator for value in table.values()))
        num = {key: value.numerator * (den // value.denominator) for key, value in table.items() if value}
        self._set(arity, index_set, den, num)
        for key in table:
            self._checked(key)

    @classmethod
    def _new(cls, arity: int, index_set: tuple[int, ...], den: int, num: Mapping[IndexKey, int]) -> "IndexedArray":
        """The canonical array of int numerators over a positive ``den``,
        unchecked: zero numerators are dropped and the content divided out.

        The index set must be a tuple without repeats and every key a tuple
        of ``arity`` of its labels: fvx's operators call this on tables they
        built over a fixed index set, and input from outside goes through
        ``IndexedArray(...)``.
        """
        if 0 in num.values():
            num = {key: c for key, c in num.items() if c}
        if not num:
            den = 1
        elif den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {key: c // g for key, c in num.items()}
        array = object.__new__(cls)
        _store(array, "arity", arity)
        _store(array, "index_set", index_set)
        _store(array, "den", den)
        _store(array, "num", num)
        return array

    def __reduce__(self) -> tuple:
        return IndexedArray._new, (self.arity, self.index_set, self.den, self.num)

    @property
    def values(self) -> dict[IndexKey, Fraction]:
        """Read view: ``{key: nonzero Fraction}``."""
        den = self.den
        return {key: Fraction(c, den) for key, c in self.num.items()}

    def _checked(self, idx: Iterable[int]) -> IndexKey:
        idx = tuple(idx)
        if len(idx) != self.arity or not set(self.index_set).issuperset(idx):
            raise ValueError(f"bad index tuple {idx!r}")
        return idx

    @classmethod
    def from_function(cls, arity: int, index_set: Sequence[int], fn: Callable[..., RationalLike]) -> "IndexedArray":
        values = {
            idx: fn(*idx)
            for idx in itertools.product(tuple(index_set), repeat=arity)
        }
        return cls(arity, index_set, values)

    def __getitem__(self, idx: Iterable[int]) -> Fraction:
        return Fraction(self.num.get(self._checked(idx), 0), self.den)

    __hash__ = None  # type: ignore[assignment]

    # ``epsilon_upper`` and the epsilon-sign mutation scale epsilon tables through ``*``.
    def __mul__(self, factor: RationalLike) -> "IndexedArray":
        if not isinstance(factor, (int, Fraction)):
            return NotImplemented
        top = factor.numerator
        num = {k: c * top for k, c in self.num.items()}
        return IndexedArray._new(self.arity, self.index_set, self.den * factor.denominator, num)


def transposition_identity_check(array: IndexedArray, m: int) -> bool:
    """Exact check that moving the lead slot past m antisymmetric slots
    costs the factor m * (-1)^(m+1) after re-antisymmetrizing.

    The re-antisymmetrized side of tail tau is a sum over sigma of
    sgn(sigma) * S[tau o sigma, i].  Reindexing by pi = tau o sigma, with
    sgn(tau o sigma) = sgn(tau) * sgn(sigma), turns it into sgn(tau) * G(i),
    where G(i) = sum over pi of sgn(pi) * S[pi, i] does not depend on tau
    (the argument that makes the antisymmetrizer idempotent; Spivak,
    Calculus on Manifolds, ch. 4).  So G(i) is summed once per i, and each
    S[(i,) + tau] is compared with it: m! * m steps, not m!^2 * m."""
    if not 2 <= m <= 5:
        raise ValueError("m must be between 2 and 5")
    if array.arity != m + 1:
        raise ValueError("array arity must be m+1")
    if len(array.index_set) != m:
        raise ValueError("slots must range over exactly m values")
    # The numerators share one denominator, so S[i, tail] == factor * total
    # reads numerator * factor.den == factor.num * total exactly.
    num = array.num
    # Antisymmetry via adjacent transpositions: every nonzero entry must be
    # negated by each swap, which chains to the full permutation statement.
    for idx, value in num.items():
        for k in range(1, m):
            swapped = idx[:k] + (idx[k + 1], idx[k]) + idx[k + 2 :]
            if num.get(swapped, 0) != -value:
                raise ValueError("array is not antisymmetric in its last m slots")
    factor = Fraction(m * (-1) ** (m + 1), math.factorial(m))
    # Entries with a repeated tail vanish on both sides; only distinct tails
    # can carry weight.
    signed = list(signed_permutations(array.index_set))
    for i in array.index_set:
        total = sum(sign * num.get(perm + (i,), 0) for sign, perm in signed)
        for sign, tail in signed:
            if num.get((i,) + tail, 0) * factor.denominator != factor.numerator * sign * total:
                return False
    return True
