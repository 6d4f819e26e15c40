"""Expanding interval iterated function systems and their symbolic coding.

The basic object is a finite family of strictly increasing expanding maps
f_1 < ... < f_{s+1} on the line, together with a bounded open interval O
whose branch preimages f_i^{-1}(O) sit inside O in increasing order.  The
attractor is the set of points whose forward orbit under branch choices
never leaves the closure of O.  Everything downstream (transition operator,
parameter derivatives, pressure curve) is built on the coding machinery in
this module.

Composition convention: for a word w = (w_1, ..., w_n) the composed map is
f_w = f_{w_n} o ... o f_{w_1}, so the cylinder of w is
f_{w_1}^{-1} o ... o f_{w_n}^{-1} (closure of O), and a point x lies in the
cylinder of w iff applying f_{w_1}, then f_{w_2}, ... keeps the orbit inside
the hull.  Words use 1-based symbols.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

Word = tuple  # tuple of 1-based branch symbols


class ConfigurationError(ValueError):
    """Raised when a system or probability vector is structurally invalid."""


class OutsideHullError(ValueError):
    """Raised when a point that must lie in the attractor hull does not."""


_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# compactified metric


def compactify(x):
    """Homeomorphism from the extended line onto [-1, 1], x -> x/(1+|x|).

    Takes a scalar or a numpy array; plus and minus infinity map to 1 and -1.
    """
    if isinstance(x, np.ndarray):
        x = x.astype(float, copy=False)
        with np.errstate(invalid="ignore"):
            return np.where(np.isinf(x), np.sign(x), x / (1.0 + np.abs(x)))
    if x == math.inf:
        return 1.0
    if x == -math.inf:
        return -1.0
    return x / (1 + abs(x))


def compactified_distance(x, y):
    """Distance |compactify(x) - compactify(y)| on the extended line."""
    return abs(compactify(x) - compactify(y))


def compactified_gap_factor(a, b):
    """Ratio compactified_distance(a, b) / (b - a) for a < b, stable for tiny gaps.

    Uses the closed form 1/((1+|a|)(1+|b|)) when a and b lie on one side of 0
    so the ratio survives b - a shrinking below float resolution of the
    endpoints.  Takes scalars or arrays of endpoints.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    factor = 1.0 / ((1.0 + np.abs(lo)) * (1.0 + np.abs(hi)))
    with np.errstate(invalid="ignore", divide="ignore"):
        across = (hi / (1.0 + hi) - lo / (1.0 - lo)) / (hi - lo)
    factor = np.where((lo < 0) & (hi > 0), across, factor)
    return float(factor) if factor.ndim == 0 else factor


# ---------------------------------------------------------------------------
# branches


@dataclass(frozen=True)
class Branch:
    """One strictly increasing expanding map of the system.

    Affine branches store slope and intercept (floats or Fractions, the
    arithmetic follows the operand types).  Non-affine branches carry three
    callables: the map, its derivative, and its inverse.
    """

    slope: object = None
    intercept: object = None
    fn: Optional[Callable] = None
    dfn: Optional[Callable] = None
    inv: Optional[Callable] = None

    @staticmethod
    def affine(slope, intercept):
        if slope <= 1:
            raise ConfigurationError(f"affine branch needs slope > 1, got {slope}")
        return Branch(slope=slope, intercept=intercept)

    @staticmethod
    def custom(fn, dfn, inv):
        """Non-affine branch from its map, derivative and inverse.

        The array coding walk (`cdf_values`, `conjugacy_residual`,
        `apply_transition`) calls fn once on a float array of points; when
        fn does not return a float array of that shape (it uses math.sqrt or
        a Python `if`, say), fn is called once per point instead.  dfn and
        inv are only called on scalars.
        """
        return Branch(fn=fn, dfn=dfn, inv=inv)

    @property
    def is_affine(self) -> bool:
        return self.slope is not None

    def __call__(self, x):
        if self.is_affine:
            return self.slope * x + self.intercept
        return self.fn(x)

    def derivative(self, x):
        if self.is_affine:
            return self.slope
        return self.dfn(x)

    def inverse(self, y):
        if self.is_affine:
            return (y - self.intercept) / self.slope
        return self.inv(y)

    def preimage_interval(self, lo, hi):
        """Preimage of [lo, hi]; an interval because the branch increases."""
        return self.inverse(lo), self.inverse(hi)


# ---------------------------------------------------------------------------
# probability weights


@dataclass(frozen=True)
class ProbVector:
    """Positive weights p_1 .. p_{s+1} summing to one.

    Constructed from the first s entries; the last weight is always derived
    as 1 minus their sum, which keeps rational-mode vectors exactly
    normalised and float-mode vectors normalised to the last bit.
    """

    weights: tuple

    @staticmethod
    def of(*free) -> "ProbVector":
        if len(free) == 1 and isinstance(free[0], (list, tuple)):
            free = tuple(free[0])
        if not free:
            raise ConfigurationError("need at least one free weight")
        one = Fraction(1) if any(isinstance(v, Fraction) for v in free) else 1
        last = one - sum(free)
        weights = tuple(free) + (last,)
        for w in weights:
            if not 0 < w < 1:
                raise ConfigurationError(f"weights must lie in (0, 1), got {weights}")
        return ProbVector(weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, symbol: int):
        """Weight of a 1-based symbol."""
        return self.weights[symbol - 1]

    @property
    def free(self) -> tuple:
        return self.weights[:-1]

    def mass(self, word: Sequence[int]):
        """Product of weights along a word (the cylinder mass).  ValueError
        unless every symbol is an integer in 1..len(self)."""
        m = self._unit[1]
        for sym in _checked_word(word, len(self)):
            m *= self[sym]
        return m

    def left_mass(self, symbol: int):
        """Total weight of symbols strictly below the given one."""
        return sum(self.weights[: symbol - 1], self._unit[0])

    @cached_property
    def is_rational(self) -> bool:
        return any(isinstance(w, Fraction) for w in self.weights)

    # Derived tables live on the instance, never in a table keyed by the
    # weights: a float vector and its exact twin compare equal and hash
    # alike, and must not share an entry.

    @cached_property
    def _unit(self) -> tuple:
        """0 and 1 in the weights' arithmetic."""
        return (Fraction(0), Fraction(1)) if self.is_rational else (0.0, 1.0)

    @cached_property
    def _left(self) -> tuple:
        """left_mass of the symbols 1 .. len + 1."""
        return tuple(self.left_mass(sym) for sym in range(1, len(self) + 2))

    @cached_property
    def _numerators(self):
        """(d, weights * d, left masses * d) as integers, d the least common
        denominator of the weights; None unless every weight is a Fraction."""
        if not all(isinstance(w, Fraction) for w in self.weights):
            return None
        d = math.lcm(*(w.denominator for w in self.weights))
        return (d, tuple(int(w * d) for w in self.weights),
                tuple(int(v * d) for v in self._left))

    @cached_property
    def _float_weights(self) -> tuple:
        """Read-only float arrays of the weights and of their cumulative sums
        from 0, whose entry k is the mass of the symbols left of symbol k + 1."""
        weights = np.array([float(w) for w in self.weights])
        cum = np.concatenate([[0.0], np.cumsum(weights)])
        weights.flags.writeable = cum.flags.writeable = False
        return weights, cum

    @cached_property
    def _memo(self) -> dict:
        """Tables other modules derive from these weights, by plain keys."""
        return {}

    def as_floats(self) -> "ProbVector":
        """This vector in floats: itself, or its float twin, built once."""
        return self._float_twin if self.is_rational else self

    @cached_property
    def _float_twin(self) -> "ProbVector":
        return ProbVector.of(*[float(w) for w in self.weights[:-1]])


# ---------------------------------------------------------------------------
# the system


@dataclass(frozen=True)
class IFSystem:
    """An ordered family of expanding branches with a separating open interval.

    How disjoint the branch preimages are is graded by `validate`.
    """

    branches: tuple
    open_set: tuple
    expansion: float = 0.0

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def branch(self, symbol: int) -> Branch:
        return self.branches[symbol - 1]

    @cached_property
    def is_affine(self) -> bool:
        return all(b.is_affine for b in self.branches)

    @cached_property
    def is_rational(self) -> bool:
        return self.is_affine and all(
            isinstance(b.slope, Fraction) and isinstance(b.intercept, Fraction)
            for b in self.branches
        )

    def symbols(self):
        return range(1, len(self.branches) + 1)

    @cached_property
    def _coding(self) -> "_Coding":
        """The coding table, built on first use; a degenerate hull raises
        ConfigurationError on every access, as nothing is cached then."""
        return _coding_table(self)

    @cached_property
    def _float_maps(self) -> tuple:
        """Read-only float arrays of the slopes and intercepts, if affine."""
        slopes = np.array([float(br.slope) for br in self.branches])
        intercepts = np.array([float(br.intercept) for br in self.branches])
        slopes.flags.writeable = intercepts.flags.writeable = False
        return slopes, intercepts

    @cached_property
    def _float_windows(self) -> tuple:
        """Read-only float arrays of the left and right edges of the hull
        windows.  The left edges end in a NaN, one past the last window, so
        that `u[k] <= y` is False right of every window."""
        windows = self._coding.windows
        u = np.array([float(lo) for lo, _ in windows] + [math.nan])
        v = np.array([float(hi) for _, hi in windows])
        u.flags.writeable = v.flags.writeable = False
        return u, v

    @cached_property
    def _lattice_codings(self) -> dict:
        """Integer coding tables of a rational system, by lattice scale."""
        return {}

    @cached_property
    def _sandwich_sums(self) -> dict:
        """Derivative sums of the pressure sandwich (`thermo._sandwich`),
        by cylinder level."""
        return {}


def affine_system(slopes, intercepts, open_set) -> IFSystem:
    branches = tuple(Branch.affine(a, b) for a, b in zip(slopes, intercepts))
    lam = min(float(a) for a in slopes)
    return IFSystem(branches=branches, open_set=tuple(open_set), expansion=lam)


def attractor_hull(system: IFSystem):
    """Smallest interval containing the attractor: between the fixed points
    of the first and the last branch."""
    return system._coding.hull


def _branch_fixed_point(branch: Branch, open_set):
    if branch.is_affine:
        return branch.intercept / (1 - branch.slope) + 0
    lo, hi = open_set
    g = lambda x: branch(x) - x
    glo, ghi = g(lo), g(hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if glo * ghi > 0:
        raise ConfigurationError("branch has no fixed point in the closure of O")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0 or hi - lo < 1e-15:
            return mid
        if glo * gm < 0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def hull_preimages(system: IFSystem):
    """Per-branch preimage intervals of the attractor hull, in branch order."""
    return list(system._coding.windows)


@dataclass(frozen=True)
class _Coding:
    """What the coding walk reads, in the coordinates it walks in.

    hull is (a, b), windows the hull preimages (u, v) in branch order, and
    maps the (slope, intercept) pair of every branch of an affine system
    (None otherwise: the walk then calls the branches).  lattice is set on
    a rational system with integer slopes: the least common denominator of
    its intercepts.
    """

    hull: tuple
    windows: tuple
    maps: Optional[tuple]
    branches: tuple
    lattice: Optional[int] = None


def _coding_table(system: IFSystem) -> _Coding:
    lo = _branch_fixed_point(system.branch(1), system.open_set)
    hi = _branch_fixed_point(system.branch(system.branch_count), system.open_set)
    if not lo < hi:
        raise ConfigurationError("degenerate attractor hull")
    maps = lattice = None
    if system.is_affine:
        maps = tuple((br.slope, br.intercept) for br in system.branches)
        if system.is_rational and all(a.denominator == 1 for a, _ in maps):
            lattice = math.lcm(*(b.denominator for _, b in maps))
    return _Coding(hull=(lo, hi),
                   windows=tuple(br.preimage_interval(lo, hi)
                                 for br in system.branches),
                   maps=maps, branches=system.branches, lattice=lattice)


def _walk_weights(system: IFSystem, p: ProbVector) -> ProbVector:
    """The weights in a coding walk's arithmetic: p when the system and the
    weights are both rational (the walk is exact), else p's float twin."""
    return p if system.is_rational and p.is_rational else p.as_floats()


# integer tables kept per system; more scales than this start the memo over
_LATTICE_TABLES = 64


def _coding_for(system: IFSystem, x):
    """The table to walk x on, and x in its coordinates.

    A rational x on a rational system with integer slopes has its orbit on
    the lattice (1/Q)Z, Q the least common multiple of the denominators of
    x and of the intercepts.  Its walk runs on the integers N = y Q: windows
    [ceil(u Q), floor(v Q)], maps N -> a N + b Q, and hull endpoints a Q
    (a non-integer one is never met).  Every other x walks on the system's
    own table.  A NaN x raises ValueError: it passes every hull test and
    would walk right of every window.
    """
    coding = system._coding
    if not isinstance(x, (int, Fraction)):
        if x != x:
            raise ValueError("x must not be NaN")
        return coding, x
    if coding.lattice is None:
        return coding, x
    q = math.lcm(coding.lattice, x.denominator)
    memo = system._lattice_codings
    table = memo.get(q)
    if table is None:
        if len(memo) >= _LATTICE_TABLES:
            memo.clear()
        table = memo[q] = _scaled_coding(coding, q)
    return table, x.numerator * (q // x.denominator)


def _scaled_coding(coding: _Coding, q: int) -> _Coding:
    def scaled(t):
        t = t * q
        return t.numerator if t.denominator == 1 else t

    return _Coding(hull=tuple(scaled(t) for t in coding.hull),
                   windows=tuple((math.ceil(u * q), math.floor(v * q))
                                 for u, v in coding.windows),
                   maps=tuple((int(a), int(b * q)) for a, b in coding.maps),
                   branches=coding.branches)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple            # (name, passed, witness) triples
    osc: bool                # open preimages pairwise disjoint inside O
    separating: bool         # even their closures disjoint
    ok: bool

    def failures(self):
        return [c for c in self.checks if not c[1]]


def validate(system: IFSystem,
             p: Optional[ProbVector] = None) -> ValidationReport:
    """Check monotonicity, expansion, inverse consistency and the ordering
    and disjointness of branch preimages.  Structural impossibilities raise
    ConfigurationError; the disjointness grade is reported, not raised.
    Non-affine branches are sampled at 33 equally spaced points of O.

    Preimages with Fraction endpoints are compared exactly.  Float ones get
    a slack of 1e-12 of the width of O plus four units of rounding at the
    magnitude of O's endpoints, which the inverse round trip of non-affine
    branches also gets: so an overlap is told from a touch at any scale of
    O, and rounding far from the origin is not an overlap.
    """
    lo, hi = system.open_set
    if not lo < hi:
        raise ConfigurationError("open interval is empty")
    if system.branch_count < 2:
        raise ConfigurationError("need at least two branches")
    checks = []
    slack = 1e-12 * float(hi - lo) + 4 * _EPS * max(abs(float(lo)),
                                                    abs(float(hi)))

    pts = [lo + (hi - lo) * k / 32 for k in range(33)]
    lam = system.expansion if system.expansion else 1.0
    for i, br in enumerate(system.branches, start=1):
        if br.is_affine:
            if float(br.slope) < lam - 1e-12:
                raise ConfigurationError(
                    f"branch {i} slope {br.slope} below expansion bound {lam}")
            checks.append((f"branch {i} increasing", True, f"slope {br.slope}"))
        else:
            vals = [br(x) for x in pts]
            inc = all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
            if not inc:
                raise ConfigurationError(f"branch {i} is not strictly increasing on O")
            dmin = min(br.derivative(x) for x in pts)
            if dmin < lam - 1e-12:
                raise ConfigurationError(
                    f"branch {i} derivative sample {dmin} below expansion bound {lam}")
            rt = max(abs(br.inverse(br(x)) - x) for x in pts)
            if rt > slack:
                raise ConfigurationError(
                    f"branch {i} inverse round-trip error {rt:.2e}")
            checks.append((f"branch {i} increasing", True, f"min derivative {dmin:.6g}"))

    pre = [br.preimage_interval(lo, hi) for br in system.branches]
    if all(isinstance(t, Fraction) for pair in pre for t in pair):
        slack = 0
    inside = all(u >= lo - slack and v <= hi + slack for u, v in pre)
    checks.append(("preimages inside O", inside,
                   "; ".join(f"[{float(u):.6g}, {float(v):.6g}]" for u, v in pre)))

    ordered = all(pre[i][0] <= pre[i + 1][0] and pre[i][1] <= pre[i + 1][1]
                  for i in range(len(pre) - 1))
    checks.append(("preimages ordered by branch index", ordered, ""))

    osc = True
    separating = True
    for i in range(len(pre) - 1):
        gap = pre[i + 1][0] - pre[i][1]
        if gap < -slack:
            osc = False
            separating = False
            checks.append((f"preimages {i + 1},{i + 2} disjoint", False,
                           f"overlap of width {float(-gap):.6g}"))
        elif gap <= slack:
            separating = False
            checks.append((f"preimages {i + 1},{i + 2} touch", True,
                           f"shared endpoint near {float(pre[i][1]):.6g}"))
        else:
            checks.append((f"preimages {i + 1},{i + 2} separated", True,
                           f"gap {float(gap):.6g}"))

    if p is not None:
        if len(p) != system.branch_count:
            raise ConfigurationError(
                f"got {len(p)} weights for {system.branch_count} branches")
        total = sum(p.weights)
        exact = p.is_rational
        norm_ok = (total == 1) if exact else abs(total - 1) <= 1e-15
        checks.append(("weights normalised", norm_ok, f"sum {total}"))
        pos_ok = all(0 < w < 1 for w in p.weights)
        checks.append(("weights inside (0, 1)", pos_ok,
                       " ".join(str(float(w)) for w in p.weights)))

    ok = inside and ordered and osc and all(c[1] for c in checks)
    return ValidationReport(checks=tuple(checks), osc=osc and inside and ordered,
                            separating=separating and osc and inside and ordered,
                            ok=ok)


def validated(system: IFSystem) -> IFSystem:
    """The system itself, once `validate` passes it; ConfigurationError
    naming the failed checks otherwise."""
    report = validate(system)
    if not report.ok:
        raise ConfigurationError(
            "system failed validation: "
            + "; ".join(name for name, passed, _ in report.checks if not passed))
    return system


# ---------------------------------------------------------------------------
# cylinders and coding


def _checked_word(word, count: int) -> tuple:
    """The word as a tuple of ints; ValueError unless every symbol is an
    integer in 1..count."""
    try:
        word = tuple(map(operator.index, word))
    except TypeError:
        raise ValueError(f"symbols must be integers: {word!r}") from None
    if not all(1 <= sym <= count for sym in word):
        raise ValueError(f"symbols must lie in 1..{count}: {word!r}")
    return word


def cylinder(system: IFSystem, word: Sequence[int]):
    """Closed interval f_{w_1}^{-1} o ... o f_{w_n}^{-1}(closure of O).
    ValueError unless every symbol is an integer in 1..branch_count."""
    lo, hi = system.open_set
    for sym in reversed(_checked_word(word, system.branch_count)):
        lo, hi = system.branch(sym).preimage_interval(lo, hi)
    return lo, hi


def _cylinder_maps(system: IFSystem, words: np.ndarray):
    """Prefix cylinder maps of many words of an affine system at once.

    words is an (m, n) array of 1-based symbols.  The inverse-branch
    composition f_{w_1}^{-1} o ... o f_{w_k}^{-1} is affine, x -> c x + d,
    and entry (i, k - 1) of the returned (c, d) belongs to the prefix of
    length k of word i: c_k = c_{k-1} / a and d_k = d_{k-1} - c_k b for the
    branch (a, b) of w_k, so every word extends by one symbol per column.
    """
    idx = words - 1
    slopes, intercepts = system._float_maps
    c = np.cumprod(1.0 / slopes[idx], axis=1)
    d = -np.cumsum(c * intercepts[idx], axis=1)
    return c, d


@dataclass(frozen=True)
class EncodeResult:
    word: Word
    gap: bool  # True when the point fell into a gap before reaching depth


def encode(system: IFSystem, x, depth: int) -> EncodeResult:
    """Symbolic coding of x to the given depth.

    Ties at shared cylinder endpoints resolve to the smaller branch index.
    A point inside a gap of the attractor gets the word of the deepest
    cylinder containing it and gap=True.  A NaN x raises ValueError.
    """
    a, b = system._coding.hull
    if x < a or x > b:
        raise OutsideHullError(f"{x} outside attractor hull [{a}, {b}]")
    word = []
    for _, sym, gap in _walk(*_coding_for(system, x), depth):
        if gap:
            return EncodeResult(word=tuple(word), gap=True)
        word.append(sym)
    return EncodeResult(word=tuple(word), gap=False)


def _walk(coding: _Coding, y, depth: int):
    """Coding walk of y on a table of `_coding_for`: yields (y, sym, gap)
    for at most depth steps.

    y is the orbit point before the step, in the table's coordinates, and
    sym the smallest index whose window holds it; the walk then applies
    that branch.  In a gap, sym is the first window right of y (len(windows)
    + 1 right of them all), gap is True and the walk stops.
    """
    pre, maps, branches = coding.windows, coding.maps, coding.branches
    for _ in range(depth):
        for sym, (u, v) in enumerate(pre, start=1):
            if y <= v:
                break
        else:
            sym += 1
        if not u <= y <= v:
            yield y, sym, True
            return
        yield y, sym, False
        if maps is None:
            y = branches[sym - 1](y)
        else:
            slope, intercept = maps[sym - 1]
            y = slope * y + intercept


def _windows_of(system: IFSystem, y: np.ndarray):
    """`_walk`'s window rule on a float array of points: (k, inside).

    k is the 0-based index of the first hull window whose right edge is at
    or right of y, found by one `searchsorted` on the right edges, and inside
    tells whether y lies in that window.  Inside, k is the point's branch
    (the smaller index at a shared edge); in a gap, k counts the windows left
    of y, which escape up.  `searchsorted` needs nondecreasing right edges,
    which `validate` checks ("preimages ordered by branch index").
    """
    u, v = system._float_windows
    k = np.searchsorted(v, y)
    return k, u[k] <= y


def _branch_on_array(br: Branch, y: np.ndarray) -> np.ndarray:
    """br applied to a float array: one call, or one call per point when the
    callable does not return a float array of y's shape."""
    if br.is_affine:
        return float(br.slope) * y + float(br.intercept)
    try:
        fy = br.fn(y)
    except (TypeError, ValueError, AttributeError):
        # what float-only code raises on an array: math.sqrt, a Python
        # `if`, a float method; a real fault raises again point by point
        fy = None
    if (isinstance(fy, np.ndarray) and fy.dtype == np.float64
            and fy.shape == y.shape):
        return fy
    return np.array([br.fn(t) for t in y.tolist()], dtype=float)


def _apply_branches(system: IFSystem, idx: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """f_{idx + 1}(y) for arrays of 0-based branch indices and float points,
    with the rounding of the scalar walk: one array step for an affine
    system, else one `_branch_on_array` call per branch on its points."""
    if system.is_affine:
        slopes, intercepts = system._float_maps
        return slopes[idx] * y + intercepts[idx]
    out = np.empty_like(y)
    for k, br in enumerate(system.branches):
        sel = idx == k
        if sel.any():
            out[sel] = _branch_on_array(br, y[sel])
    return out


def pi_approx(system: IFSystem, word: Sequence[int]):
    """Midpoint of the cylinder of the word and half its diameter as error;
    a symbol outside 1..branch_count raises ValueError, as in `cylinder`."""
    lo, hi = cylinder(system, word)
    half = (hi - lo) / 2
    return lo + half, half


def ergodic_sums(system: IFSystem, p: ProbVector, word: Sequence[int]):
    """Lists of partial sums (S_k phi, S_k psi) for k = 1 .. len(word).

    phi is minus the log branch derivative along the orbit, psi the log
    branch weight (`_birkhoff`).  Affine systems are exact; otherwise the
    derivative is taken at the midpoint of the remaining suffix cylinder,
    with an error controlled by the distortion of the system.  ValueError
    unless every symbol is an integer in 1..branch_count.
    """
    words = np.array([_checked_word(word, system.branch_count)], dtype=int)
    s_phi, s_psi = _birkhoff(system, p, words)
    return s_phi[0].tolist(), s_psi[0].tolist()


def _birkhoff(system: IFSystem, p: ProbVector, words: np.ndarray, mids=None):
    """(S_k phi, S_k psi) for k = 1 .. n, at entry (i, k - 1), for every row
    of an (m, n) array of words: `math.log` terms summed left to right by
    one `cumsum`.  A non-affine branch's derivative is taken at the suffix
    midpoints `mids` of `_suffix_midpoints`, computed if not given."""
    idx = words - 1
    log_p = np.array([math.log(float(w)) for w in p.weights])
    if system.is_affine:
        phi = np.array([-math.log(float(br.slope))
                        for br in system.branches])[idx]
    else:
        mids = _suffix_midpoints(system, words) if mids is None else mids
        phi = np.array([[-math.log(system.branch(sym).derivative(x))
                         for sym, x in zip(w, row)] for w, row in
                        zip(words.tolist(), mids.tolist())]).reshape(idx.shape)
    return np.cumsum(phi, axis=1), np.cumsum(log_p[idx], axis=1)


def _suffix_midpoints(system: IFSystem, words: np.ndarray) -> np.ndarray:
    """pi_approx(system, w[k:])[0] at entry (i, k) for every row w of an
    (m, n) array of words, by one backward pass.

    A float affine system (float open set, whatever the branch types) takes
    `cylinder`'s steps (lo, hi) <- ((lo - b) / a, (hi - b) / a) on whole
    columns with the same roundings, which `_cylinder_maps` does not have.
    Other systems go word by word in their own arithmetic, exact for
    Fractions, into an object array.
    """
    if not (system.is_affine
            and all(isinstance(v, float) for v in system.open_set)):
        rows = []
        for w in words.tolist():
            ends = [system.open_set]
            for sym in reversed(w):
                ends.append(system.branch(sym).preimage_interval(*ends[-1]))
            rows.append([lo + (hi - lo) / 2 for lo, hi in ends[:0:-1]])
        return np.array(rows, dtype=object).reshape(words.shape)
    slopes, intercepts = system._float_maps
    idx = (words - 1).T
    ends = np.empty((len(idx), 2, len(words)))
    lo_hi = np.array(system.open_set)[:, None]
    for k in range(len(idx) - 1, -1, -1):
        lo_hi = ends[k] = (lo_hi - intercepts[idx[k]]) / slopes[idx[k]]
    lo, hi = ends.transpose(1, 2, 0)
    return lo + (hi - lo) / 2


def distortion_constant(system: IFSystem, depth: int) -> float:
    """Supremum of f_w'(x)/f_w'(y) over words up to the given depth.

    Equals 1.0 exactly for affine systems.  For others the supremum is taken
    over 5 equally spaced points of each cylinder, enumerating all words of
    a length when there are at most 4096 of them and otherwise drawing 4096
    words from `random.Random(7)`.
    """
    if system.is_affine or depth == 0:
        return 1.0
    import itertools
    import random

    rng = random.Random(7)
    syms = list(system.symbols())
    worst = 1.0
    for n in range(1, depth + 1):
        if len(syms) ** n <= 4096:
            words = itertools.product(syms, repeat=n)
        else:
            words = (tuple(rng.choice(syms) for _ in range(n))
                     for _ in range(4096))
        for w in words:
            lo, hi = cylinder(system, w)
            pts = [lo + (hi - lo) * k / 4 for k in range(5)]
            derivs = [_word_derivative(system, w, x) for x in pts]
            ratio = max(derivs) / min(derivs)
            worst = max(worst, ratio)
    return worst


def _word_derivative(system: IFSystem, word, x):
    """Derivative of f_w at x by the chain rule along the orbit."""
    d = 1.0
    y = x
    for sym in word:
        br = system.branch(sym)
        d *= br.derivative(y)
        y = br(y)
    return d


# ---------------------------------------------------------------------------
# JSON round trip


def system_from_json(doc: dict):
    """Build (system, weights, mode) from the canonical JSON layout.

    Layout: {"branches": [{"slope": a, "intercept": b}, ...],
             "open_set": [lo, hi], "p": [p_1, ..., p_s],
             "mode": "float" | "rational"}.
    The last weight is derived, never stored.  Rational mode parses numbers
    through Fraction (strings like "1/3" are accepted).
    """
    try:
        mode = doc.get("mode", "float")
        if mode not in ("float", "rational"):
            raise ConfigurationError(f"unknown mode {mode!r}")
        conv = _as_fraction if mode == "rational" else _as_float
        branches = doc["branches"]
        slopes = [conv(b["slope"]) for b in branches]
        intercepts = [conv(b["intercept"]) for b in branches]
        for b in branches:
            extra = set(b) - {"slope", "intercept"}
            if extra:
                raise ConfigurationError(f"unknown branch keys {sorted(extra)}")
        open_set = tuple(conv(v) for v in doc["open_set"])
        if len(open_set) != 2:
            raise ConfigurationError("open_set must be [lo, hi]")
        weights = [conv(v) for v in doc["p"]]
        if len(weights) != len(branches) - 1:
            raise ConfigurationError(
                f"expected {len(branches) - 1} free weights for "
                f"{len(branches)} branches, got {len(weights)}")
        extra = set(doc) - {"branches", "open_set", "p", "mode"}
        if extra:
            raise ConfigurationError(f"unknown system keys {sorted(extra)}")
        system = validated(affine_system(slopes, intercepts, open_set))
        p = ProbVector.of(*weights)
    except ConfigurationError:
        raise
    except KeyError as exc:
        raise ConfigurationError(f"missing system key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed system: {exc}") from exc
    return system, p, mode


def system_to_json(system: IFSystem, p: ProbVector, mode: str = "float") -> dict:
    def enc(v):
        return str(v) if isinstance(v, Fraction) else float(v)

    return {
        "branches": [{"slope": enc(b.slope), "intercept": enc(b.intercept)}
                     for b in system.branches],
        "open_set": [enc(v) for v in system.open_set],
        "p": [enc(w) for w in p.free],
        "mode": mode,
    }


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10 ** 12)
    raise ConfigurationError(f"cannot read {v!r} as a rational")


def _as_float(v):
    if isinstance(v, str):
        return float(Fraction(v))
    return float(v)
