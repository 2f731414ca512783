"""One exact carrier for signed atomic measures and discrete laws, stored as arrays.

A law is the special case of a finite signed measure on the support
module whose weights are nonnegative and sum to 1: DiscreteLaw subclasses
SignedAtomicMeasure and adds only that check to construction, so every
DiscreteLaw, however built, is a valid law.  Equality is type-strict.

Atoms are keyed by integer coordinate vectors over a declared frequency
basis (alpha_1..alpha_d), so every support point is an exact Z-linear
combination of the basis.  A measure has one stored form, arrays in atom
order: its coords, checked as one array (integers only, d of them, (0,)
alone on the trivial basis); its weights as given, so rational data stays
`fractions.Fraction` and "gamma lies in the support module" is an exact
identity, not a float comparison; and their float view.  The atoms
mapping is made from them when read.  One routine (_merge) adds the
weights of equal coords, for sums, convolutions and rational bases alike.

Floats are allowed as basis entries (irrational surrogates such as
sqrt(2)) and as weights; `module_generator` refuses float bases.  Each
measure writes its support as c0 + B Z^r once, on first use (reduction),
for every numeric layer to read: from the integer coords, or from the
exact values when a rational basis makes the coords Z-dependent.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType
from typing import Union

import numpy as np

from .errors import (
    BasisMismatch,
    DuplicateAtom,
    InvalidArgument,
    IrrationalSupport,
    MassSumNotOne,
    NegativeMass,
)

Scalar = Union[int, float, Fraction]
Coords = tuple[int, ...]

MASS_SUM_TOL = 1e-12


def is_exact(x: Scalar) -> bool:
    """True for int/Fraction values carrying exact rational semantics."""
    return isinstance(x, Rational)


def _ratio(x: Scalar) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, in lowest terms, as Python ints."""
    if not is_exact(x):
        raise IrrationalSupport(f"exact rational expected, got {x!r}")
    return int(x.numerator), int(x.denominator)


def as_fraction(x: Scalar) -> Fraction:
    return Fraction(*_ratio(x))


def frac_gcd(values: Iterable[Scalar]) -> Fraction:
    """Nonnegative generator of the Z-module spanned by rational values.

    gcd over numerators after clearing to a common denominator; gcd of the
    empty set (or of all zeros) is 0.
    """
    ratios = [_ratio(v) for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return Fraction(math.gcd(*(p * (den // q) for p, q in ratios)), den)


def _check_scalar_finite(x: Scalar, what: str) -> None:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")


@dataclass(frozen=True)
class FrequencyBasis:
    """Declared basis alpha_1..alpha_d of the support module.

    Z-linear independence is trusted, never verified (it is not decidable
    from numeric values); downstream certificates record that the claim
    was assumed.  The law degenerate at zero uses the trivial basis (0,),
    whose only coords are (0,).
    """

    alphas: tuple[Scalar, ...]
    declared_independent: bool = True

    def __post_init__(self):
        alphas = tuple(self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 1:
            raise ValueError("basis needs at least one element")
        for a in alphas:
            _check_scalar_finite(a, "basis element")
        if alphas == (0,):
            return  # trivial basis for the law degenerate at zero
        if any(a == 0 for a in alphas):
            raise ValueError("basis elements must be nonzero (except the trivial basis (0,))")
        if len(set(alphas)) != len(alphas):
            raise ValueError("basis elements must be distinct")

    @property
    def d(self) -> int:
        return len(self.alphas)

    @property
    def is_rational(self) -> bool:
        return all(is_exact(a) for a in self.alphas)

    def value(self, coords: Coords) -> Scalar:
        """The real number sum_j coords_j * alpha_j (exact when possible)."""
        total: Scalar = Fraction(0) if self.is_rational else 0.0
        for c, a in zip(coords, self.alphas, strict=True):
            total += c * a
        return total

    def __eq__(self, other):
        if not isinstance(other, FrequencyBasis):
            return NotImplemented
        return self.alphas == other.alphas

    def __hash__(self):
        return hash(tuple(float(a) for a in self.alphas))


def same_basis(b1: FrequencyBasis, b2: FrequencyBasis, what: str = "operands") -> None:
    """Element-wise basis identity; no automatic merging is ever attempted."""
    if b1 != b2:
        raise BasisMismatch(f"{what} must share an identical basis: {b1.alphas} vs {b2.alphas}")


@dataclass(frozen=True)
class SupportPoint:
    """One atom location: integer coords plus the derived real value."""

    coords: Coords
    value: Scalar


def _compact(a: np.ndarray) -> np.ndarray:
    """An array of exact integers as int64 when every entry fits, else as the Python ints it holds."""
    try:
        return a.astype(np.int64)
    except OverflowError:
        return a


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _exact_coords(coords, d: int) -> Coords:
    """One key as Python ints in one operator.index pass; a bare integer is the 1-tuple."""
    try:
        try:
            out = tuple(map(operator.index, coords))
        except TypeError:
            out = (operator.index(coords),)
    except TypeError:
        raise ValueError(f"coords must be integers, got {coords!r}") from None
    if len(out) != d:
        raise ValueError(f"coords {out} do not match basis dimension {d}")
    return out


def _coords_array(keys, basis: FrequencyBasis) -> np.ndarray:
    """The keys as a read-only (n, d) array of exact integers, checked as one array.

    Any key set but integer keys of int64 (floats, strings, ragged keys,
    integers beyond int64) is checked key by key, naming the first bad key.
    """
    try:
        arr = np.array(keys)
    except (ValueError, OverflowError):  # ragged keys
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind in "ib" and arr.ndim in (1, 2) and arr.size:
        arr = (arr if arr.ndim == 2 else arr[:, None]).astype(np.int64, copy=False)  # a bare integer is the 1-tuple
        if arr.shape[1] != basis.d:
            raise ValueError(f"coords {tuple(arr[0].tolist())} do not match basis dimension {basis.d}")
    else:
        arr = _compact(np.array([_exact_coords(k, basis.d) for k in keys], object).reshape(len(keys), basis.d))
    if basis.alphas == (0,) and arr.any():  # any other key also names 0, but the torus lift puts it elsewhere
        raise ValueError(f"coords {tuple(arr[arr.any(axis=1)][0].tolist())} on the trivial basis (0,); "
                         "only (0,) is allowed")
    return _read_only(arr)


def _normalize_coords(coords, basis: FrequencyBasis) -> Coords:
    return tuple(_coords_array([coords], basis)[0].tolist())


def _merge(coords: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of equal coords as one, in the order the rows first reach them, each weight summed from 0 in row order.

    np.add.at is unbuffered, so float sums are those of a loop over the rows
    and exact weights, in an object array, stay exact.  Rows of width 0 are equal.
    """
    perm = np.lexsort(coords.T[::-1]) if coords.shape[1] else np.arange(len(coords))
    ranked = coords[perm]
    head = np.ones(len(perm), dtype=bool)
    head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = perm[head]  # each group's first row: the stable sort puts it at the group's head
    slot = np.empty(len(first), dtype=np.intp)
    slot[np.argsort(first)] = np.arange(len(first))  # groups numbered in the order the rows reach them
    where = np.empty(len(perm), dtype=np.intp)
    where[perm] = slot[np.cumsum(head) - 1]
    out = np.zeros(len(first), dtype=weights.dtype)
    np.add.at(out, where, weights)
    return coords[np.sort(first)], out


def _weight_array(weights: tuple) -> np.ndarray:
    """Float weights as a float array; once any weight is exact, the Python numbers as given, in an object array."""
    return np.array(weights, dtype=float if all(isinstance(w, float) for w in weights) else object)


class SignedAtomicMeasure:
    """Finitely supported real-weighted atomic measure (signed allowed).

    The carrier for logarithms, differences and fractional convolution
    powers of laws, and the base of DiscreteLaw.  Immutable.  Atoms come as
    a mapping, as (coords, weight) pairs, or as the arrays (coords (n, d),
    weights (n,)) a numeric layer hands over, and are stored in atom order
    as `coords`, `given_weights` (the weights as given, so exact ones stay
    exact) and `weights`, their float view.  The read-only `atoms` mapping,
    the support values and the lattice c0 + B Z^r are made on first use.
    """

    __slots__ = ("basis", "coords", "given_weights", "weights", "_atoms", "_values", "_reduction")
    _weight_name = "weight"

    def __init__(self, basis: FrequencyBasis, atoms: Mapping[Coords, Scalar] | Iterable):
        self.basis = basis
        if isinstance(atoms, Mapping):
            keys, weights = list(atoms), list(atoms.values())
        elif isinstance(atoms, tuple) and len(atoms) == 2 and isinstance(atoms[1], np.ndarray):
            keys, weights = atoms[0], atoms[1].tolist()
        else:
            pairs = list(atoms)
            keys, weights = [c for c, _ in pairs], [w for _, w in pairs]
        coords = _coords_array(keys, basis)
        ranked = coords[np.lexsort(coords.T[::-1])]  # one sort puts equal keys side by side
        if (ranked[1:] == ranked[:-1]).all(axis=1).any():
            seen: set = set()
            twice = next(c for c in map(tuple, coords.tolist()) if c in seen or seen.add(c))
            raise DuplicateAtom(f"atom {twice} listed twice")
        keep = self._checked(coords, weights)  # a law's check comes first: it refuses masses beyond the float range
        view = np.array(weights, dtype=float)  # OverflowError for an exact weight beyond the float range
        if not np.isfinite(view).all():
            raise ValueError(f"{self._weight_name} must be finite, got {weights[np.argmin(np.isfinite(view))]!r}")
        if keep is not None and not all(keep):
            coords, view = _read_only(coords[keep]), view[keep]
            weights = [w for w, k in zip(weights, keep) if k]
        self.coords, self.given_weights, self.weights = coords, tuple(weights), _read_only(view)
        self._atoms = self._values = self._reduction = None

    @staticmethod
    def _checked(coords: np.ndarray, weights: list) -> list[bool] | None:
        """The mask of the atoms to store, None for all; a signed measure takes any finite weights."""
        return None

    @property
    def atoms(self) -> Mapping[Coords, Scalar]:
        """The read-only mapping coords -> weight as given, in atom order, made on first read."""
        if self._atoms is None:
            self._atoms = MappingProxyType(dict(zip(map(tuple, self.coords.tolist()), self.given_weights)))
        return self._atoms

    def support_floats(self) -> np.ndarray:
        """The support values as floats in atom order, as FrequencyBasis.value sums them, rounded once.

        InvalidArgument beyond the float range.
        """
        if self._values is None:
            terms = self.coords.astype(object) * np.array(self.basis.alphas, dtype=object)
            try:
                self._values = _read_only(np.asarray(
                    sum(terms.T, 0 if self.basis.is_rational else 0.0), dtype=float))
            except OverflowError:
                raise InvalidArgument("a support value lies beyond the float range") from None
        return self._values

    def reduction(self) -> tuple[Coords, tuple[Coords, ...], np.ndarray, np.ndarray]:
        """The support as c0 + B Z^r, made on first use and kept: (c0, columns of B, m (n, r), float weights).

        c0 is the lexicographically least support point and B the Hermite
        basis of the differences (_lattice), so atom k sits at c0 + B m_k.
        A law over the basis alpha becomes a law on Z^r over B^T alpha:
        theta -> B^T theta maps the torus onto the torus, so |phi~| has the
        same infimum on both, and a frequency k of the reduced law is B k.
        A point mass has r = 0.  Atoms of one m, which only a rational basis
        gives, add their weights.
        """
        if self._reduction is None:
            c0 = tuple(self.coords[np.lexsort(self.coords.T[::-1])[0]].tolist())
            columns, m = _lattice(self.coords.astype(object) - np.array(c0, dtype=object), self.basis)
            weights = self.weights
            if self.basis.d > 1 and self.basis.is_rational:  # the exact sum of the weights of each m, rounded once
                m, weights = _merge(m, np.array([Fraction(w) for w in self.given_weights], dtype=object))
            self._reduction = (c0, columns, _read_only(_compact(m)), _read_only(weights.astype(float)))
        return self._reduction

    def weight(self, coords) -> Scalar:
        return self.atoms.get(_normalize_coords(coords, self.basis), 0)

    def total(self) -> Scalar:
        return sum(self.given_weights, start=Fraction(0) if all(map(is_exact, self.given_weights)) else 0.0)

    def scaled(self, c: Scalar) -> "SignedAtomicMeasure":
        """c times the measure, sharing its coords and its reduction, whose weights scale as floats."""
        out = SignedAtomicMeasure(self.basis, (self.coords, np.array([c * w for w in self.given_weights], object)))
        if len(self.coords):
            c0, columns, m, weights = self.reduction()
            out._reduction = (c0, columns, m, _read_only(float(c) * weights))
        return out

    def plus(self, other: "SignedAtomicMeasure") -> "SignedAtomicMeasure":
        same_basis(self.basis, other.basis, "measure sum")
        return SignedAtomicMeasure(self.basis, _merge(np.concatenate([self.coords, other.coords]),
                                                      _weight_array(self.given_weights + other.given_weights)))

    def support_points(self) -> list[SupportPoint]:
        pts = [SupportPoint(c, self.basis.value(c)) for c in map(tuple, self.coords.tolist())]
        pts.sort(key=lambda p: (float(p.value), p.coords))
        return pts

    def support_values(self) -> list[Scalar]:
        return [p.value for p in self.support_points()]

    def __eq__(self, other):
        # type-strict: a law never equals the signed measure with the same atoms
        if type(other) is not type(self):
            return NotImplemented
        return self.basis == other.basis and dict(self.atoms) == dict(other.atoms)

    def __repr__(self):
        return f"{type(self).__name__}(basis={self.basis.alphas}, {len(self.coords)} atoms)"


class DiscreteLaw(SignedAtomicMeasure):
    """Finitely supported probability law with exact support coordinates.

    A signed atomic measure whose construction also drops zero-mass atoms
    and asserts the law invariants, so every instance is a valid law.
    """

    __slots__ = ()
    _weight_name = "mass"

    @staticmethod
    def _checked(coords: np.ndarray, masses: list) -> list[bool]:
        """The mask of the nonzero masses, once the probability-law invariants hold."""
        if not masses:
            raise ValueError("law has no atoms")
        for i, m in enumerate(masses):
            if m < 0:
                raise NegativeMass(f"atom {tuple(coords[i].tolist())} has negative mass {m}")
        keep = [m != 0 for m in masses]
        if not any(keep):
            raise MassSumNotOne("all atoms have zero mass")
        try:
            total = sum(m for m, k in zip(masses, keep) if k)
        except OverflowError:  # an integer mass beyond the float range next to a float mass
            raise MassSumNotOne("masses sum beyond the float range, not 1") from None
        if abs(total - 1) > MASS_SUM_TOL:
            # str, not float(): an exact sum beyond the float range must not overflow here
            raise MassSumNotOne(f"masses sum to {total}, not 1")
        return keep

    def as_measure(self) -> SignedAtomicMeasure:
        return SignedAtomicMeasure(self.basis, (self.coords, np.array(self.given_weights, dtype=object)))

    # -- factories ------------------------------------------------------------

    @staticmethod
    def from_pairs(basis: FrequencyBasis, pairs: Iterable) -> "DiscreteLaw":
        return DiscreteLaw(basis, pairs)

    @staticmethod
    def from_values(value_mass_pairs: Iterable[tuple[Scalar, Scalar]]) -> "DiscreteLaw":
        """Build a law from exact rational support values.

        The basis is the canonical one-dimensional module generator of the
        values, so all exact lattice arithmetic is available downstream.
        The values are cleared to one common denominator D, so the
        generator gcd / D and each coord are found in integer arithmetic.
        """
        pairs = list(value_mass_pairs)
        ratios = [_ratio(v) for v, _ in pairs]
        den = math.lcm(*(q for _, q in ratios))
        return DiscreteLaw._on_numerators([p * (den // q) for p, q in ratios], den, [m for _, m in pairs])

    @staticmethod
    def from_lattice(masses: Mapping[int, Scalar], offset: Scalar = 0, span: Scalar = 1) -> "DiscreteLaw":
        """Law supported on offset + span*l for the given integer indices l.

        Exact construction; offset and span must be rational (declare a
        FrequencyBasis yourself for irrational surrogates).  The JSON lattice
        shorthand and the benchmark's d = 1 laws are built here, in integer
        arithmetic: offset and span are cleared to one common denominator.
        """
        if not (is_exact(offset) and is_exact(span)):
            raise IrrationalSupport("lattice shorthand requires rational offset and span")
        if span <= 0:
            raise ValueError("span must be positive")
        (a, q), (b, r) = _ratio(offset), _ratio(span)
        den = math.lcm(q, r)
        a, b = a * (den // q), b * (den // r)
        try:
            nums = [a + b * operator.index(l) for l in masses]
        except TypeError:
            raise ValueError(f"lattice indices must be integers, got {list(masses)!r}") from None
        return DiscreteLaw._on_numerators(nums, den, list(masses.values()))

    @staticmethod
    def _on_numerators(nums: list[int], den: int, masses: list) -> "DiscreteLaw":
        """The law with masses at the values nums / den, over the generator gcd(nums) / den of their module."""
        g = math.gcd(*nums)
        if g == 0:
            return DiscreteLaw.from_pairs(FrequencyBasis((Fraction(0),)), [((0,), sum(masses))])
        return DiscreteLaw.from_pairs(FrequencyBasis((Fraction(g, den),)),
                                      [((n // g,), m) for n, m in zip(nums, masses)])


# -- operations ---------------------------------------------------------------


def total_variation(m: SignedAtomicMeasure) -> float:
    """Total variation norm: the l1 sum of atom weights."""
    return float(sum(abs(w) for w in m.given_weights))


def convolve(m1, m2):
    """Convolution of atomic measures on an identical basis.

    Works for any mix of DiscreteLaw/SignedAtomicMeasure inputs; the result
    is a law only when both inputs are laws.  The coords of every pair are
    an outer sum of the coords arrays and the weights an outer product;
    pairs of one sum are then merged once (_merge), adding their products
    in the order of the pairs, so float weights give the floats of the
    pairwise loop and exact weights stay exact.  The atoms come in the
    order in which the pairs first reach them.
    """
    same_basis(m1.basis, m2.basis, "convolution")
    c1, c2 = m1.coords, m2.coords
    if any(c.dtype == object or c.min(initial=0) <= -2**62 or c.max(initial=0) >= 2**62 for c in (c1, c2)):
        c1, c2 = c1.astype(object), c2.astype(object)  # Python ints, where an int64 sum could wrap
    coords = (c1[:, None, :] + c2[None, :, :]).reshape(-1, m1.basis.d)
    w = _weight_array(m1.given_weights + m2.given_weights)
    products = np.multiply.outer(w[:len(c1)], w[len(c1):]).reshape(-1)
    return (type(m1) if type(m1) is type(m2) else SignedAtomicMeasure)(m1.basis, _merge(coords, products))


@dataclass(frozen=True)
class ModuleDescription:
    """The Z-module generated by the support: c*Z in the rational case."""

    generator: Fraction

    def contains(self, value: Scalar) -> bool:
        v = as_fraction(value)
        if self.generator == 0:
            return v == 0
        return (v / self.generator).denominator == 1


def module_generator(law: DiscreteLaw) -> ModuleDescription:
    """Exact generator c >= 0 with <support> = c*Z (rational support only)."""
    if not law.basis.is_rational:
        raise IrrationalSupport(
            "module generator needs rational support; declare a FrequencyBasis instead"
        )
    values = [law.basis.value(c) for c in law.coords.tolist()]
    return ModuleDescription(frac_gcd(values))


# -- the support lattice c0 + B Z^r -------------------------------------------


def hermite_basis(vectors) -> tuple[Coords, ...]:
    """Basis of the Z-span of integer vectors, in Hermite normal form.

    The rows b_1..b_r returned are the columns of the d x r matrix B, so
    the span is B Z^r with r the rank.  Row i is zero left of its pivot
    p_i, the pivots increase and are positive, and every entry above a
    pivot lies in [0, pivot).  Exact, in Python ints; for d = 1 it is the
    gcd of the values.
    """
    rows = np.array(list(vectors), dtype=object)
    basis: list[np.ndarray] = []
    for col in range(rows.shape[1] if rows.size else 0):
        values = rows[:, col]
        g = math.gcd(*values)
        if not g:
            continue
        # the pivot entry must reach the gcd g of the column: combine the pivot with a
        # row whose entry it does not divide, u a + w b = gcd(a, b), until it does
        pivot = rows[np.flatnonzero(values)[0]]
        while abs(pivot[col]) != g:
            row = rows[np.flatnonzero(values % pivot[col])[0]]
            a, b = pivot[col], row[col]
            h = math.gcd(a, b)
            u = pow(a // h, -1, abs(b) // h)
            pivot = u * pivot + (h - u * a) // b * row
        pivot = pivot if pivot[col] > 0 else -pivot
        basis = [b - b[col] // g * pivot for b in basis]
        basis.append(pivot)
        rows = rows - np.multiply.outer(values // g, pivot)  # every row less its multiple of the pivot
    return tuple(tuple(b.tolist()) for b in basis)


def _lattice(vectors: np.ndarray, basis: FrequencyBasis) -> tuple[tuple[Coords, ...], np.ndarray]:
    """(columns of B, m): the Z-span of the vectors (n, d) as B Z^r, and each vector as B m, in Python ints.

    On a rational basis whose column values v = B^T alpha are Z-dependent
    (r >= 2, or r = 1 with v = 0) only the values count: with g the gcd of
    v, B becomes the one column h = B y, v . y = g, and m the integer
    m . v / g, so vectors of one value share their m; g = 0 gives r = 0.
    """
    columns = hermite_basis(vectors)
    m = np.empty((len(vectors), len(columns)), dtype=object)
    rest = vectors
    for i, b in enumerate(columns):  # back substitution: B is in echelon form
        p = next(j for j, x in enumerate(b) if x)
        m[:, i] = rest[:, p] // b[p]
        rest = rest - np.multiply.outer(m[:, i], b)
    v = [basis.value(b) for b in columns] if basis.d > 1 and basis.is_rational else []
    if len(v) > 1 or v == [0]:
        g = frac_gcd(v)
        if not g:
            return (), np.empty((len(vectors), 0), dtype=object)
        steps = [int(x / g) for x in v]
        # the first Hermite row of the vectors (v_i / g, b_i) is (1, h), as the v_i / g have gcd 1
        h = hermite_basis([(k, *b) for k, b in zip(steps, columns)])[0][1:]
        return (h,), m @ np.array(steps, dtype=object)[:, None]
    return columns, m


def lattice_map(c0, columns, m: np.ndarray) -> np.ndarray:
    """The points c0 + m @ B, B the rows `columns`, exactly: int64 when every entry fits, else Python ints."""
    return _compact(np.array(c0, dtype=object) + m.astype(object) @ np.array(columns, dtype=object).reshape(
        len(columns), len(c0)))


def lattice_masses(law: DiscreteLaw) -> dict[int, float]:
    """d = 1 masses keyed by the index l of the atom c0 + B l; the benchmark reads spreads here."""
    _, columns, m, weights = law.reduction()
    return dict(zip(m[:, 0].tolist() if columns else [0] * len(weights), weights.tolist()))
