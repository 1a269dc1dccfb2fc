"""Degree calculus of the copy hypergraph on the arcs of a complete digraph.

For a pattern digraph with l arcs on h vertices, the hypergraph has one
vertex per arc of the complete digraph on n labeled vertices and one
l-edge per copy of the pattern.  Degrees of arc subsets factor as a
binomial times an embedding count that depends only on the subset's shape,
which lets every statistic be computed analytically for n far beyond
anything materializable; tiny instances are materialized to cross-check.

Some derived quantities are rational multiples of fractional powers of n
(the scaling parameter tau is typically D * n^(-1/m2)).  They are kept as
exact power sums with positive rational coefficients, and comparisons are
certified by rational interval evaluation with escalating precision, never
by floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .arrow import count_copies, oriented_ramsey_number
from .density import m2
from .errors import HypothesisUnmetError, TooLargeError
from .graphs import OrientedGraph

EXPLICIT_MAX_N = 7
EXPLICIT_MAX_PATTERN = 4
EMB_MAX_PATTERN = 7


def integer_nth_root(value, k):
    """floor(value ** (1/k)) for non-negative integers, exactly."""
    if value < 0 or k < 1:
        raise ValueError("needs value >= 0 and k >= 1")
    if value == 0:
        return 0
    x = 1 << -(-value.bit_length() // k)      # >= true root
    while True:
        y = ((k - 1) * x + value // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@dataclass(frozen=True)
class PowerSum:
    """Exact value sum(c_i * base**e_i) with positive rational c_i and
    rational e_i, supporting certified comparisons."""

    base: int
    terms: tuple        # ((exponent, coefficient), ...) sorted, coefficients > 0

    @staticmethod
    def rational(base, value):
        value = Fraction(value)
        if value < 0:
            raise ValueError("power sums hold non-negative values")
        return PowerSum(base, ((Fraction(0), value),) if value else ())

    @staticmethod
    def single(base, coefficient, exponent):
        coefficient = Fraction(coefficient)
        if coefficient < 0:
            raise ValueError("coefficients must be non-negative")
        if coefficient == 0:
            return PowerSum(base, ())
        return PowerSum(base, ((Fraction(exponent), coefficient),))

    def __add__(self, other):
        if self.base != other.base:
            raise ValueError("mismatched bases")
        merged = {}
        for e, c in self.terms + other.terms:
            merged[e] = merged.get(e, Fraction(0)) + c
        return PowerSum(self.base, tuple(sorted((e, c) for e, c in merged.items() if c)))

    def scaled(self, factor):
        factor = Fraction(factor)
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        if factor == 0:
            return PowerSum(self.base, ())
        return PowerSum(self.base, tuple((e, c * factor) for e, c in self.terms))

    def exact_str(self):
        """Exact text form, e.g. '2/3*n^(1/2) + 5'."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms, reverse=True):
            parts.append(str(c) if e == 0 else f"{c}*n^({e})")
        return " + ".join(parts)

    def _interval(self, digits):
        """Rational lower/upper bounds at the given decimal precision."""
        if not self.terms:
            return Fraction(0), Fraction(0)
        denom = lcm(*[e.denominator for e, _ in self.terms])
        if denom == 1:
            exact = sum(c * Fraction(self.base) ** int(e) for e, c in self.terms)
            return exact, exact
        scale = 10 ** digits
        t = integer_nth_root(self.base * scale ** denom, denom)
        exact_root = t ** denom == self.base * scale ** denom
        x_lo = Fraction(t, scale)
        x_hi = x_lo if exact_root else Fraction(t + 1, scale)
        lo = hi = Fraction(0)
        for e, c in self.terms:
            k = int(e * denom)
            a, b = x_lo ** k, x_hi ** k
            if a > b:
                a, b = b, a
            lo += c * a
            hi += c * b
        return lo, hi

    def compare(self, other):
        """-1, 0 or 1 against a Fraction or another PowerSum, certified."""
        if isinstance(other, PowerSum):
            if other.base != self.base:
                raise ValueError("mismatched bases")
            if self.terms == other.terms:
                return 0
        else:
            other = Fraction(other)
        for digits in (8, 16, 32, 64, 128):
            lo, hi = self._interval(digits)
            if isinstance(other, PowerSum):
                olo, ohi = other._interval(digits)
            else:
                olo = ohi = other
            if hi < olo:
                return -1
            if lo > ohi:
                return 1
            if lo == hi and olo == ohi:
                return -1 if lo < olo else (1 if lo > olo else 0)
        raise ArithmeticError("comparison undecided at 128 digits")

    def __le__(self, other):
        return self.compare(other) <= 0

    def __lt__(self, other):
        return self.compare(other) < 0


# ---------------------------------------------------------------------------
# embedding counts and analytic degrees

def emb_count(j_arcs, h):
    """Copies of h on V_J plus fresh filler vertices that contain every
    arc of J.  The count depends only on the shape of J, not on the
    filler choice."""
    if h.e < 1:
        raise ValueError("pattern needs at least one arc")
    if h.n > EMB_MAX_PATTERN:
        raise TooLargeError(f"embedding counts capped at {EMB_MAX_PATTERN}-vertex patterns")
    j_arcs = list(j_arcs)
    if not j_arcs:
        raise ValueError("J must be non-empty")
    if len(j_arcs) > h.e:
        raise ValueError("J has more arcs than the pattern")
    v_j = sorted({x for arc in j_arcs for x in arc})
    if len(v_j) > h.n:
        return 0
    fresh = []
    next_label = (max(v_j) + 1) if v_j else 0
    while len(v_j) + len(fresh) < h.n:
        fresh.append(next_label)
        next_label += 1
    pool = v_j + fresh
    want = set(map(tuple, j_arcs))
    seen = set()
    for perm in itertools.permutations(pool):
        image = dict(zip(range(h.n), perm))
        arcs = frozenset((image[u], image[v]) for u, v in h.arcs)
        if want <= arcs:
            seen.add(arcs)
    return len(seen)


def analytic_degree(j_arcs, h, n):
    """Degree of an arc subset in the copy hypergraph on n host vertices:
    binom(n - |V_J|, h - |V_J|) * emb(J)."""
    v_j = {x for arc in j_arcs for x in arc}
    if len(v_j) > h.n:
        return 0
    return comb(n - len(v_j), h.n - len(v_j)) * emb_count(j_arcs, h)


def f_table(h):
    """f(l') = fewest vertices carrying l' arcs of the pattern, l' = 1..l."""
    if h.e < 1:
        raise ValueError("pattern needs at least one arc")
    out = []
    for size in range(1, h.e + 1):
        best = None
        for subset in itertools.combinations(h.arcs, size):
            touched = len({x for arc in subset for x in arc})
            if best is None or touched < best:
                best = touched
        out.append(best)
    return tuple(out)


def max_j_degree_analytic(h, j, n):
    """Largest degree over arc subsets of size j (0 if none embeds)."""
    best = 0
    for subset in itertools.combinations(h.arcs, j):
        best = max(best, analytic_degree(subset, h, n))
    return best


# ---------------------------------------------------------------------------
# explicit hypergraph (tiny n, for cross-checks)

@dataclass(frozen=True)
class ContainerHypergraph:
    n: int
    pattern: OrientedGraph
    uniformity: int
    vertices: tuple     # arcs of the complete digraph on n vertices
    edges: tuple        # frozensets of arcs, one per pattern copy

    def degree(self, j_arcs):
        j = frozenset(map(tuple, j_arcs))
        return sum(1 for edge in self.edges if j <= edge)

    def max_j_degree(self, j):
        seen = set()
        best = 0
        for edge in self.edges:
            for subset in itertools.combinations(sorted(edge), j):
                if subset in seen:
                    continue
                seen.add(subset)
                best = max(best, self.degree(subset))
        return best

    def average_degree(self):
        return Fraction(self.uniformity * len(self.edges), len(self.vertices))


def build_container_hypergraph(n, h):
    if n > EXPLICIT_MAX_N:
        raise TooLargeError(f"explicit hypergraph capped at n = {EXPLICIT_MAX_N}")
    if h.n > EXPLICIT_MAX_PATTERN:
        raise TooLargeError(
            f"explicit hypergraph capped at {EXPLICIT_MAX_PATTERN}-vertex patterns")
    if h.e < 1:
        raise ValueError("pattern needs at least one arc")
    vertices = tuple((u, v) for u in range(n) for v in range(n) if u != v)
    edges = set()
    for combo in itertools.permutations(range(n), h.n):
        image = dict(zip(range(h.n), combo))
        edges.add(frozenset((image[u], image[v]) for u, v in h.arcs))
    return ContainerHypergraph(n, h, h.e, vertices, tuple(sorted(edges, key=sorted)))


# ---------------------------------------------------------------------------
# co-degree profile

@dataclass(frozen=True)
class DegreeProfile:
    pattern: OrientedGraph
    n: int
    tau: PowerSum
    f: tuple            # f(1)..f(l)
    d: tuple            # max j-degrees d_1..d_l (exact integers)
    d1: int
    delta_j: tuple      # PowerSum for j = 2..l
    delta: PowerSum

    def delta_at_most(self, bound):
        return self.delta.compare(Fraction(bound)) <= 0

    def csv_rows(self):
        """(j, d_j, delta_j) rows; delta_1 = 1 by definition."""
        rows = [(1, self.d[0], PowerSum.rational(self.n, 1))]
        for j in range(2, len(self.d) + 1):
            rows.append((j, self.d[j - 1], self.delta_j[j - 2]))
        return rows


def tau_power(h, n, d_factor=1):
    """tau = D * n^(-1/m2(pattern)) as an exact power."""
    exponent = -1 / m2(h.underlying()).value
    return PowerSum.single(n, Fraction(d_factor), exponent)


def co_degree_profile(h, n, tau):
    """All ingredients of the weighted co-degree sum at scale tau.

    delta_j = d_j / (d1 * tau^(j-1)) and
    delta = 2^C(l,2)-1 * sum_j 2^-C(j-1,2) * delta_j over j = 2..l
    (an empty sum, hence 0, when the pattern has a single arc).
    """
    if h.e < 1:
        raise ValueError("pattern needs at least one arc")
    if isinstance(tau, PowerSum):
        if len(tau.terms) != 1:
            raise ValueError("tau must be a single positive power term")
    else:
        tau = PowerSum.rational(n, tau)
        if not tau.terms:
            raise ValueError("tau must be positive")
    (tau_exp, tau_coef), = tau.terms
    l = h.e
    d = tuple(max_j_degree_analytic(h, j, n) for j in range(1, l + 1))
    d1 = analytic_degree([h.arcs[0]], h, n)
    deltas = []
    for j in range(2, l + 1):
        coef = Fraction(d[j - 1], d1) * tau_coef ** (1 - j)
        deltas.append(PowerSum.single(n, coef, tau_exp * (1 - j)))
    total = PowerSum(n, ())
    for j, dj in zip(range(2, l + 1), deltas):
        total = total + dj.scaled(Fraction(1, 2 ** comb(j - 1, 2)))
    total = total.scaled(2 ** (comb(l, 2) - 1)) if l >= 2 else total
    return DegreeProfile(h, n, tau, f_table(h), d, d1, tuple(deltas), total)


# ---------------------------------------------------------------------------
# saturation harness

def saturation_check(n, oriented_f, h, ramsey_number=None):
    """Check the few-copies => many-missing-edges implication on one input.

    Given an orientation of an edge set F on n vertices with at most
    binom(n,h) / (2 binom(R,h)) copies of the pattern (R its oriented
    Ramsey number), returns whether K_n is missing at least n^2 / (2 R^2)
    edges outside F.  A falsification harness: must return True whenever
    the hypothesis holds.  Inputs with too many copies raise
    HypothesisUnmetError.
    """
    if n > EXPLICIT_MAX_N:
        raise TooLargeError(f"saturation check capped at n = {EXPLICIT_MAX_N}")
    if oriented_f.n != n:
        raise ValueError("orientation must live on n vertices")
    r = ramsey_number if ramsey_number is not None else oriented_ramsey_number(h)
    if r is None:
        raise ValueError("pattern's oriented Ramsey number is not known")
    if n < r:
        raise ValueError(f"needs n >= {r}")
    copies = count_copies(oriented_f, h)
    threshold = Fraction(comb(n, h.n), 2 * comb(r, h.n))
    if copies > threshold:
        raise HypothesisUnmetError(
            f"{copies} copies exceed the saturation threshold {threshold}")
    missing = comb(n, 2) - oriented_f.e
    return missing >= Fraction(n * n, 2 * r * r)
