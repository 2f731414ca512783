"""Independent oracles used to freeze expected values before checking the library.

Everything here is deliberately written from closed forms or brute force,
never by calling the code paths under test.
"""

import math
from fractions import Fraction

import numpy as np

from quasilevy import DiscreteLaw, DuplicateAtom, FrequencyBasis


def mercator_lambdas(rho: float, kmax: int) -> dict[int, float]:
    """Coefficients of log(1 + rho*z): lambda_k = (-1)^(k-1) rho^k / k."""
    return {k: (-1) ** (k - 1) * rho**k / k for k in range(1, kmax + 1)}


def geometric_lambdas(p: float, kmax: int) -> dict[int, float]:
    """Coefficients of -log(1 - p*z): lambda_k = p^k / k."""
    return {k: p**k / k for k in range(1, kmax + 1)}


def binomial_coefficient(s: float, j: int) -> float:
    """Generalized binomial coefficient via the defining product."""
    out = 1.0
    for i in range(j):
        out *= (s - i) / (i + 1)
    return out


def binomial_power_masses(c: float, rho: float, s: float, jmax: int) -> dict[int, float]:
    """Atom weights of (c + c*rho*z)^s = c^s * sum_j binom(s,j) rho^j z^j."""
    return {j: c**s * binomial_coefficient(s, j) * rho**j for j in range(jmax + 1)}


def brute_convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, wa in a.items():
        for kb, wb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + wa * wb
    return out


def pairwise_convolve(a: dict, b: dict) -> dict:
    """The atoms of a * b, keyed by coordinate tuples, by the pairwise double loop in atom order."""
    out: dict = {}
    for ka, wa in a.items():
        for kb, wb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + wa * wb
    return out


def brute_convolution_power(masses: dict, n: int) -> dict:
    out = {0: 1.0}
    for _ in range(n):
        out = brute_convolve(out, masses)
    return out


def dense_min_abs_cf(values, masses, t_max: float, samples: int) -> float:
    """min |sum p_k e^(i t x_k)| over a dense t grid, written directly."""
    xs = np.asarray(values, dtype=float)
    ps = np.asarray(masses, dtype=float)
    lo = 0.0
    best = math.inf
    chunk = 200_000
    while lo < t_max:
        hi = min(lo + chunk * t_max / samples, t_max)
        n = max(int((hi - lo) / t_max * samples), 2)
        ts = np.linspace(lo, hi, n)
        vals = np.exp(1j * np.outer(ts, xs)) @ ps
        best = min(best, float(np.min(np.abs(vals))))
        lo = hi
    return best


def geometric_cf(p: float, t):
    """Closed form (1-p) / (1 - p e^(it)) for the geometric law on {0,1,2,...}."""
    t = np.asarray(t, dtype=float)
    return (1 - p) / (1 - p * np.exp(1j * t))


def truncated_geometric(p: Fraction, n_atoms: int) -> tuple[DiscreteLaw, Fraction]:
    """First n atoms of the geometric law, renormalized; returns the dropped mass."""
    masses = {k: (1 - p) * p**k for k in range(n_atoms)}
    kept = sum(masses.values())
    law = DiscreteLaw.from_lattice({k: m / kept for k, m in masses.items()})
    return law, 1 - kept


def random_lattice_law(rng, max_width: int = 16, dominant_min: float = 0.55,
                       rational_fraction: float = 0.25, basis=None) -> DiscreteLaw:
    """Random dominant-atom law on an integer or small-rational lattice.

    With `basis` given, the support indices become coords over that basis
    directly (no gcd canonicalization), so laws share the basis exactly.
    """
    width = int(rng.integers(1, max_width + 1))
    n_extra = int(rng.integers(1, min(width, 7) + 1))
    support = [0] + sorted(
        rng.choice(np.arange(1, width + 1), size=n_extra, replace=False).tolist()
    )
    p_star = float(rng.uniform(dominant_min, 0.95))
    rest = rng.dirichlet(np.ones(len(support) - 1)) * (1 - p_star)
    where = int(rng.integers(0, len(support)))
    masses = np.insert(rest, where, p_star)
    indexed = {s: float(m) for s, m in zip(support, masses)}
    if basis is not None:
        return DiscreteLaw.from_pairs(basis, [((int(s),), m) for s, m in indexed.items()])
    if rng.uniform() < rational_fraction:
        offset = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
        span = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        return DiscreteLaw.from_lattice(indexed, offset=offset, span=span)
    return DiscreteLaw.from_lattice(indexed)


def random_planar_law(rng, basis, radius: int = 2, max_extra: int = 5,
                      dominant_min: float = 0.55) -> DiscreteLaw:
    """Random dominant-atom law on distinct points of the box [-radius, radius]^2 over a 2-d basis.

    The dominant atom sits at a random point of the box, so gamma need not vanish.
    """
    box = [(i, j) for i in range(-radius, radius + 1) for j in range(-radius, radius + 1)]
    picks = rng.choice(len(box), size=int(rng.integers(2, max_extra + 2)), replace=False)
    support = [box[i] for i in picks]
    p_star = float(rng.uniform(dominant_min, 0.95))
    rest = rng.dirichlet(np.ones(len(support) - 1)) * (1 - p_star)
    return DiscreteLaw.from_pairs(
        basis, [(support[0], p_star)] + [(c, float(m)) for c, m in zip(support[1:], rest)]
    )


def cell_bounds(columns, radii, lip_r, quad, margin: float) -> tuple[list, list]:
    """Bounds and moduli of certify_separation's cells, one at a time in Python floats.

    Cell i has the [phi~, G_1, ..., G_d] column columns[i], half-widths
    radii[i], L.r lip_r[i] and quadratic term quad[i]; its bound is
    max(|phi~| - L.r, |phi~| - sum_j r_j |Re(phi~) Im(G_j) - Im(phi~) Re(G_j)| / |phi~|
    - quad) - margin, the second term only when |phi~| > margin.
    """
    bounds, moduli = [], []
    for (value, *grad), cell_radii, cell_lip_r, cell_quad in zip(columns, radii, lip_r, quad):
        v = abs(value)
        bound = v - cell_lip_r
        if v > margin:  # otherwise every bound is <= 0; this also keeps 0 out of the division
            slope = sum(r * abs(value.real * g.imag - value.imag * g.real) for r, g in zip(cell_radii, grad))
            bound = max(bound, v - slope / v - cell_quad)
        bounds.append(bound - margin)
        moduli.append(v)
    return bounds, moduli


def law_values_masses(law: DiscreteLaw):
    pts = law.support_points()
    return [float(p.value) for p in pts], [float(law.atoms[p.coords]) for p in pts]


# -- the list-based support reduction c0 + B Z^r, kept as the carrier's reference ----------


def _minus(column: list, ms: list, b: int) -> list:
    """column - b ms, elementwise."""
    return [x - b * m for x, m in zip(column, ms)]


def hermite_basis(vectors) -> tuple:
    """Hermite normal form basis of the Z-span of integer vectors, column by column in Python ints.

    Row i is zero left of its pivot p_i, the pivots increase and are
    positive, and every entry above a pivot lies in [0, pivot).
    """
    cols = [list(c) for c in zip(*vectors)]
    basis: list[list[int]] = []
    for col, values in enumerate(cols):
        g = math.gcd(*values)
        if not g:
            continue
        i = next(i for i, x in enumerate(values) if x)
        pivot = [c[i] for c in cols]
        while abs(pivot[col]) != g:
            i = next(i for i, x in enumerate(values) if x % pivot[col])
            row = [c[i] for c in cols]
            a, b = pivot[col], row[col]
            h = math.gcd(a, b)
            u = pow(a // h, -1, abs(b) // h)
            pivot = [u * x + (h - u * a) // b * y for x, y in zip(pivot, row)]
        pivot = [x if pivot[col] > 0 else -x for x in pivot]
        for b in basis:
            q = b[col] // g
            b[:] = [x - q * y for x, y in zip(b, pivot)]
        basis.append(pivot)
        q = [x // g for x in values]
        cols[col:] = [_minus(c, q, y) for c, y in zip(cols[col:], pivot[col:])]
    return tuple(tuple(b) for b in basis)


def lattice_coords(columns: tuple, vectors: list) -> list:
    """The integer m with B m = v for each vector, B in Hermite normal form; ValueError off the lattice."""
    cols = [list(c) for c in zip(*vectors)]
    ms = []
    for b in columns:
        p = next(j for j, x in enumerate(b) if x)
        ms.append([x // b[p] for x in cols[p]])
        cols = [_minus(c, ms[-1], y) if y else c for c, y in zip(cols, b)]
    if any(map(any, cols)):
        raise ValueError(f"not every vector lies on the lattice spanned by {columns}")
    return list(zip(*ms)) if ms else [()] * len(vectors)


def lattice_points(c0: tuple, columns: tuple, ms: list) -> list:
    """c0 + B m for each of the integer vectors ms, exactly."""
    points = [[c] * len(ms) for c in c0]
    for b, m in zip(columns, zip(*ms)):
        points = [_minus(p, m, -y) if y else p for p, y in zip(points, b)]
    return list(zip(*points))


def reduce_support(atoms: dict) -> tuple:
    """(c0, columns of B, masses keyed by m): c0 the least support point, B the Hermite basis of the differences."""
    c0 = min(atoms)
    diffs = [tuple(a - b for a, b in zip(c, c0)) for c in atoms]
    columns = hermite_basis(diffs)
    return c0, columns, dict(zip(lattice_coords(columns, diffs), atoms.values()))


def fraction_gcd(values) -> Fraction:
    """Generator of the Z-module of rational values by Euclid's algorithm on Fractions."""
    g = Fraction(0)
    for v in values:
        a, b = abs(Fraction(v)), g
        while b:
            a, b = b, a % b
        g = a
    return g


def law_from_values(value_mass_pairs) -> DiscreteLaw:
    """DiscreteLaw.from_values in Fraction arithmetic: the basis (c,), c the generator, and coords v / c."""
    pairs = [(Fraction(v), m) for v, m in value_mass_pairs]
    c = fraction_gcd(v for v, _ in pairs)
    if c == 0:
        return DiscreteLaw.from_pairs(FrequencyBasis((Fraction(0),)), [((0,), sum(m for _, m in pairs))])
    return DiscreteLaw.from_pairs(FrequencyBasis((c,)), [((int(v / c),), m) for v, m in pairs])


def law_from_lattice(masses: dict, offset=0, span=1) -> DiscreteLaw:
    """DiscreteLaw.from_lattice in Fraction arithmetic: the values offset + span * l."""
    return law_from_values([(Fraction(offset) + Fraction(span) * l, m) for l, m in masses.items()])


# -- the dict carrier: the atom semantics the array carrier keeps --------------------


def dict_atoms(pairs, law: bool = False) -> dict:
    """The atoms of (coords, weight) pairs as a dict in input order.

    DuplicateAtom names the first key seen twice; a law drops its zero masses.
    """
    out: dict = {}
    for coords, w in pairs:
        key = tuple(int(c) for c in coords)
        if key in out:
            raise DuplicateAtom(f"atom {key} listed twice")
        out[key] = w
    return {c: w for c, w in out.items() if w != 0} if law else out


def dict_plus(a: dict, b: dict) -> dict:
    """a + b by the dict loop: the atoms of a in order, then those new in b."""
    out = dict(a)
    for key, w in b.items():
        out[key] = out.get(key, 0) + w
    return out
