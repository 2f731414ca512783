"""Exact carriers for discrete laws and signed atomic measures.

Atoms are keyed by integer coordinate vectors over a declared frequency
basis (alpha_1..alpha_d), so every support point is an exact Z-linear
combination of the basis.  Rational data is kept as `fractions.Fraction`
end to end; statements like "the shift parameter lies in the support
module" are then exact identities, not float comparisons.

Floats are allowed both as basis entries (irrational surrogates such as
sqrt(2)) and as masses/weights.  Operations that require exact module
arithmetic (`module_generator`, `to_lattice_form`) refuse float bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    BasisMismatch,
    DuplicateAtom,
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


def as_fraction(x: Scalar) -> Fraction:
    if not is_exact(x):
        raise IrrationalSupport(f"exact rational expected, got {x!r}")
    return Fraction(x)


def frac_gcd(values: Iterable[Scalar]) -> Fraction:
    """Nonnegative generator of the Z-module spanned by rational values.

    gcd over numerators after clearing to a common denominator; gcd of the
    empty set (or of all zeros) is 0.
    """
    den = 1
    fracs = [as_fraction(v) for v in values]
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    g = 0
    for f in fracs:
        g = math.gcd(g, abs(f.numerator) * (den // f.denominator))
    return Fraction(g, den)


def _check_scalar_finite(x: Scalar, what: str) -> None:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")


@dataclass(frozen=True)
class FrequencyBasis:
    """Declared basis alpha_1..alpha_d of the support module.

    Z-linear independence is trusted, never verified (it is not decidable
    from numeric values); downstream certificates record that the claim
    was assumed.  The degenerate-at-zero law uses the trivial basis (0,).
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
        if alphas == (0,) or alphas == (Fraction(0),):
            return  # trivial basis for the law degenerate at zero
        if any(a == 0 for a in alphas):
            raise ValueError("basis elements must be nonzero (except the trivial basis (0,))")
        if len(set(alphas)) != len(alphas):
            raise ValueError("basis elements must be distinct")

    @property
    def d(self) -> int:
        return len(self.alphas)

    @property
    def is_trivial(self) -> bool:
        return self.d == 1 and self.alphas[0] == 0

    @property
    def is_rational(self) -> bool:
        return all(is_exact(a) for a in self.alphas)

    def value(self, coords: Coords) -> Scalar:
        """The real number sum_j coords_j * alpha_j (exact when possible)."""
        if len(coords) != self.d:
            raise ValueError(f"coords length {len(coords)} != basis dimension {self.d}")
        total: Scalar = Fraction(0) if self.is_rational else 0.0
        for c, a in zip(coords, self.alphas):
            total += c * a
        return total

    def __eq__(self, other):
        if not isinstance(other, FrequencyBasis):
            return NotImplemented
        return (
            len(self.alphas) == len(other.alphas)
            and all(a == b for a, b in zip(self.alphas, other.alphas))
        )

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


@dataclass(frozen=True)
class LatticeForm:
    """Arithmetic-progression view of a d=1 support: points a + b*l, l integer.

    offset_coord/span_coord tie (a, b) back to the basis exactly:
    a = offset_coord*alpha, b = span_coord*alpha with span_coord*alpha > 0.
    """

    offset: Scalar
    span: Scalar
    offset_coord: int
    span_coord: int

    def index_of(self, coords: Coords) -> int:
        c = coords[0]
        if self.span_coord == 0:
            if c != self.offset_coord:
                raise ValueError(f"coords {coords} not on degenerate lattice {self}")
            return 0
        l, r = divmod(c - self.offset_coord, self.span_coord)
        if r != 0:
            raise ValueError(f"coords {coords} not on lattice {self}")
        return l


def _normalize_coords(coords, d: int) -> Coords:
    if isinstance(coords, Integral):
        coords = (coords,)
    out = tuple(int(c) for c in coords)
    if len(out) != d:
        raise ValueError(f"coords {out} do not match basis dimension {d}")
    if any(not isinstance(c, Integral) for c in coords):
        raise ValueError(f"coords must be integers, got {coords!r}")
    return out


def _atoms_from_pairs(pairs, d: int, kind: str) -> dict[Coords, Scalar]:
    atoms: dict[Coords, Scalar] = {}
    for coords, w in pairs:
        coords = _normalize_coords(coords, d)
        _check_scalar_finite(w, kind)
        if coords in atoms:
            raise DuplicateAtom(f"atom {coords} listed twice")
        atoms[coords] = w
    return atoms


class SignedAtomicMeasure:
    """Finitely supported real-weighted atomic measure (signed allowed).

    The carrier for logarithms, differences and fractional convolution
    powers of laws.  Immutable after construction.
    """

    __slots__ = ("basis", "_atoms")

    def __init__(self, basis: FrequencyBasis, atoms: Mapping[Coords, Scalar] | Iterable):
        self.basis = basis
        if isinstance(atoms, Mapping):
            atoms = atoms.items()
        self._atoms = MappingProxyType(_atoms_from_pairs(atoms, basis.d, "weight"))

    @property
    def atoms(self) -> Mapping[Coords, Scalar]:
        return self._atoms

    def weight(self, coords) -> Scalar:
        return self._atoms.get(_normalize_coords(coords, self.basis.d), 0)

    def total(self) -> Scalar:
        return sum(self._atoms.values(), start=Fraction(0) if self._is_exact_weights() else 0.0)

    def _is_exact_weights(self) -> bool:
        return all(is_exact(w) for w in self._atoms.values())

    def scaled(self, c: Scalar) -> "SignedAtomicMeasure":
        return SignedAtomicMeasure(self.basis, {k: c * w for k, w in self._atoms.items()})

    def plus(self, other: "SignedAtomicMeasure") -> "SignedAtomicMeasure":
        same_basis(self.basis, other.basis, "measure sum")
        out = dict(self._atoms)
        for k, w in other.atoms.items():
            out[k] = out.get(k, 0) + w
        return SignedAtomicMeasure(self.basis, out)

    def support_points(self) -> list[SupportPoint]:
        pts = [SupportPoint(c, self.basis.value(c)) for c in self._atoms]
        pts.sort(key=lambda p: (float(p.value), p.coords))
        return pts

    def __eq__(self, other):
        if not isinstance(other, SignedAtomicMeasure):
            return NotImplemented
        return self.basis == other.basis and dict(self._atoms) == dict(other.atoms)

    def __repr__(self):
        return f"SignedAtomicMeasure(basis={self.basis.alphas}, {len(self._atoms)} atoms)"


class DiscreteLaw:
    """Finitely supported probability law with exact support coordinates."""

    __slots__ = ("basis", "_atoms", "lattice_form")

    def __init__(
        self,
        basis: FrequencyBasis,
        atoms: Mapping[Coords, Scalar] | Iterable,
        lattice_form: Optional[LatticeForm] = None,
    ):
        self.basis = basis
        if isinstance(atoms, Mapping):
            atoms = atoms.items()
        self._atoms = MappingProxyType(_atoms_from_pairs(atoms, basis.d, "mass"))
        self.lattice_form = lattice_form

    @property
    def atoms(self) -> Mapping[Coords, Scalar]:
        return self._atoms

    def mass(self, coords) -> Scalar:
        return self._atoms.get(_normalize_coords(coords, self.basis.d), 0)

    def support_points(self) -> list[SupportPoint]:
        pts = [SupportPoint(c, self.basis.value(c)) for c in self._atoms]
        pts.sort(key=lambda p: (float(p.value), p.coords))
        return pts

    def support_values(self) -> list[Scalar]:
        return [p.value for p in self.support_points()]

    def max_mass(self) -> float:
        return float(max(self._atoms.values()))

    def as_measure(self) -> SignedAtomicMeasure:
        return SignedAtomicMeasure(self.basis, self._atoms)

    def __eq__(self, other):
        if not isinstance(other, DiscreteLaw):
            return NotImplemented
        return self.basis == other.basis and dict(self._atoms) == dict(other.atoms)

    def __repr__(self):
        return f"DiscreteLaw(basis={self.basis.alphas}, {len(self._atoms)} atoms)"

    # -- factories ------------------------------------------------------------

    @staticmethod
    def from_pairs(basis: FrequencyBasis, pairs: Iterable, lattice_form=None) -> "DiscreteLaw":
        return validate_law(DiscreteLaw(basis, pairs, lattice_form))

    @staticmethod
    def from_values(value_mass_pairs: Iterable[tuple[Scalar, Scalar]]) -> "DiscreteLaw":
        """Build a law from exact rational support values.

        The basis is the canonical one-dimensional module generator of the
        values, so all exact lattice arithmetic is available downstream.
        """
        pairs = [(as_fraction(v), m) for v, m in value_mass_pairs]
        values = [v for v, _ in pairs]
        c = frac_gcd(values)
        if c == 0:
            basis = FrequencyBasis((Fraction(0),))
            return DiscreteLaw.from_pairs(basis, [((0,), sum(m for _, m in pairs))])
        basis = FrequencyBasis((c,))
        atoms = [((int(v / c),), m) for v, m in pairs]
        return DiscreteLaw.from_pairs(basis, atoms)

    @staticmethod
    def from_lattice(masses: Mapping[int, Scalar], offset: Scalar = 0, span: Scalar = 1) -> "DiscreteLaw":
        """Law supported on offset + span*l for the given integer indices l.

        Exact construction; offset and span must be rational (declare a
        FrequencyBasis yourself for irrational surrogates).
        """
        if not (is_exact(offset) and is_exact(span)):
            raise IrrationalSupport("lattice shorthand requires rational offset and span")
        if span <= 0:
            raise ValueError("span must be positive")
        law = DiscreteLaw.from_values(
            [(as_fraction(offset) + as_fraction(span) * l, m) for l, m in masses.items()]
        )
        return to_lattice_form(law)


# -- operations ---------------------------------------------------------------


def validate_law(law: DiscreteLaw) -> DiscreteLaw:
    """Drop zero-mass atoms and assert the probability-law invariants."""
    if not law.atoms:
        raise ValueError("law has no atoms")
    for coords, m in law.atoms.items():
        if m < 0:
            raise NegativeMass(f"atom {coords} has negative mass {m}")
    kept = {c: m for c, m in law.atoms.items() if m != 0}
    if not kept:
        raise MassSumNotOne("all atoms have zero mass")
    try:
        total = sum(kept.values())
    except OverflowError:  # an integer mass beyond the float range next to a float mass
        raise MassSumNotOne("masses sum beyond the float range, not 1") from None
    if abs(total - 1) > MASS_SUM_TOL:
        # str, not float(): an exact sum beyond the float range must not overflow here
        raise MassSumNotOne(f"masses sum to {total}, not 1")
    if law.lattice_form is not None:
        lf = law.lattice_form
        for coords in kept:
            lf.index_of(coords)  # raises if off-lattice
    return DiscreteLaw(law.basis, kept, law.lattice_form)


def total_variation(m: SignedAtomicMeasure | DiscreteLaw) -> float:
    """Total variation norm: the l1 sum of atom weights."""
    atoms = m.atoms
    return float(sum(abs(w) for w in atoms.values()))


def convolve(m1, m2):
    """Convolution of atomic measures on an identical basis.

    Works for any mix of DiscreteLaw/SignedAtomicMeasure inputs; the result
    is a law only when both inputs are laws.
    """
    same_basis(m1.basis, m2.basis, "convolution")
    out: dict[Coords, Scalar] = {}
    for c1, w1 in m1.atoms.items():
        for c2, w2 in m2.atoms.items():
            key = tuple(a + b for a, b in zip(c1, c2))
            out[key] = out.get(key, 0) + w1 * w2
    if isinstance(m1, DiscreteLaw) and isinstance(m2, DiscreteLaw):
        return DiscreteLaw.from_pairs(m1.basis, out.items())
    return SignedAtomicMeasure(m1.basis, out)


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
    values = [law.basis.value(c) for c in law.atoms]
    return ModuleDescription(frac_gcd(values))


def to_lattice_form(law: DiscreteLaw) -> DiscreteLaw:
    """Attach the a + b*Z view of a one-dimensional support.

    b is the module generator of the support differences, a the smallest
    support value.  Exact whenever the basis entry is rational; for a
    declared irrational alpha the integer structure lives in the coords.
    """
    if law.lattice_form is not None:
        return law
    if law.basis.d != 1:
        raise IrrationalSupport(
            "lattice form requires a one-dimensional basis; "
            "rebuild rational laws with DiscreteLaw.from_values"
        )
    alpha = law.basis.alphas[0]
    coords = sorted(c[0] for c in law.atoms)
    if law.basis.is_trivial:
        lf = LatticeForm(offset=Fraction(0), span=Fraction(1), offset_coord=0, span_coord=0)
        return DiscreteLaw(law.basis, law.atoms, lf)
    g = 0
    for c in coords[1:]:
        g = math.gcd(g, c - coords[0])
    if g == 0:
        g = 1  # single atom: any positive span works
    # orient so that span = span_coord*alpha > 0
    sign = 1 if (alpha > 0) else -1
    offset_coord = coords[0] if sign > 0 else coords[-1]
    span_coord = sign * g
    lf = LatticeForm(
        offset=offset_coord * alpha if is_exact(alpha) else offset_coord * float(alpha),
        span=span_coord * alpha if is_exact(alpha) else span_coord * float(alpha),
        offset_coord=offset_coord,
        span_coord=span_coord,
    )
    return DiscreteLaw(law.basis, law.atoms, lf)


def lattice_masses(law: DiscreteLaw) -> dict[int, Scalar]:
    """Masses re-indexed by the lattice index l (requires lattice_form)."""
    law = to_lattice_form(law)
    lf = law.lattice_form
    if lf.span_coord == 0:
        return {0: sum(law.atoms.values())}
    return {lf.index_of(c): m for c, m in law.atoms.items()}
