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

import itertools
import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

Word = tuple  # tuple of 1-based branch symbols


class ConfigurationError(ValueError):
    """Raised when a system or probability vector is structurally invalid."""


class OutsideHullError(ValueError):
    """Raised when a point that must lie in the attractor hull does not."""


_EPS = np.finfo(float).eps
_MAX = float(np.finfo(float).max)


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

        The array coding walk (`cdf_values`, `conjugacy_residual`) and the
        interpolating operator (`apply_transition`) call fn once on a float
        array of points; when fn does not return a float array of that
        shape (it uses math.sqrt or a Python `if`, say), fn is called once
        per point instead.  dfn and inv are only called on scalars.
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
    """Weights p_1 .. p_{s+1} in (0, 1) summing to one: exactly when all
    are Fractions, else within len * eps (by `math.fsum`); ConfigurationError
    otherwise.  `of` takes the first s and derives the last as 1 minus their
    sum, which keeps rational-mode vectors exactly normalised and float-mode
    vectors normalised to the last bits.
    """

    weights: tuple

    def __post_init__(self):
        weights = self.weights
        if not all(0 < w < 1 for w in weights):
            raise ConfigurationError(f"weights must lie in (0, 1), got {weights}")
        if all(isinstance(w, Fraction) for w in weights):
            normalised = sum(weights) == 1
        else:
            normalised = abs(math.fsum(weights) - 1) <= len(weights) * _EPS
        if not normalised:
            raise ConfigurationError(f"weights must sum to 1, got {weights}")

    @staticmethod
    def of(*free) -> "ProbVector":
        if len(free) == 1 and isinstance(free[0], (list, tuple)):
            free = tuple(free[0])
        if not free:
            raise ConfigurationError("need at least one free weight")
        one = Fraction(1) if any(isinstance(v, Fraction) for v in free) else 1
        # one addition at a time, as `_left` adds: `sum` of floats is
        # compensated from Python 3.12 on
        *_, total = itertools.accumulate(free)
        return ProbVector(tuple(free) + (one - total,))

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, symbol: int):
        """Weight of a 1-based symbol; IndexError outside 1..len(self)."""
        if not 1 <= symbol <= len(self.weights):
            raise IndexError(
                f"symbol {symbol} outside 1..{len(self.weights)}")
        return self.weights[symbol - 1]

    def __iter__(self):
        """The weights, symbol 1 first, as `tuple` and numpy read them."""
        return iter(self.weights)

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
        """Total weight of symbols strictly below the given one.  ValueError
        unless the symbol is an integer in 1..len(self) + 1."""
        (symbol,) = _checked_word((symbol,), len(self) + 1)
        return self._left[symbol - 1]

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
        """left_mass of the symbols 1 .. len + 1: the weights added one at
        a time, left to right, from 0 in their own arithmetic."""
        return tuple(itertools.accumulate(self.weights, initial=self._unit[0]))

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
        """Read-only float arrays of the weights of `as_floats()` and of its
        left masses, whose entry k is the mass of the symbols left of
        symbol k + 1."""
        floats = self.as_floats()
        weights, cum = np.array(floats.weights), np.array(floats._left)
        weights.flags.writeable = cum.flags.writeable = False
        return weights, cum

    @cached_property
    def _memo(self) -> dict:
        """Tables other modules derive from these weights, by plain keys."""
        return {}

    def as_floats(self) -> "ProbVector":
        """This vector in floats, as every float computation reads it:
        itself, or its float twin, built once as float mode builds one: the
        free weights rounded, the last weight 1 minus their sum."""
        return self._float_twin if self.is_rational else self

    @cached_property
    def _float_twin(self) -> "ProbVector":
        return ProbVector.of(*[float(w) for w in self.free])


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
        """The coding table, one per system value; a degenerate hull raises
        ConfigurationError on every access, as nothing is cached then."""
        return _system_table(self, "coding", _coding_table)

    @cached_property
    def _float_walk(self) -> tuple:
        """The region table of `_walk` that a float point walks on: the
        scalar form of the L-symbol table (`_walk_table`), built on first
        read, when it has one, else the system's own one-symbol table."""
        return _system_table(self, "walk", _walk_table) or self._coding.table

    @cached_property
    def _float_maps(self) -> tuple:
        """Read-only float arrays of the slopes and intercepts, if affine."""
        slopes = np.array([float(br.slope) for br in self.branches])
        intercepts = np.array([float(br.intercept) for br in self.branches])
        slopes.flags.writeable = intercepts.flags.writeable = False
        return slopes, intercepts

    @cached_property
    def _float_windows(self) -> tuple:
        """Read-only float arrays of the left and right hull window edges."""
        windows = self._coding.windows
        u = np.array([float(lo) for lo, _ in windows])
        v = np.array([float(hi) for _, hi in windows])
        u.flags.writeable = v.flags.writeable = False
        return u, v

    @cached_property
    def _step(self) -> "_FloatTable":
        """The one-symbol float region table, one per system value."""
        return _system_table(self, "step", _step_table)

    @property
    def _cylinders(self) -> Optional["_FloatTable"]:
        """The L-symbol float region table, or None on a system with a
        custom or a decreasing branch (`_cylinder_table`); read from
        `_TABLES` on every access."""
        return _system_table(self, "cylinders", _cylinder_table)

    @cached_property
    def _key(self) -> tuple:
        """The system's typed value, the key of its `_TABLES` entry: every
        field of every branch, the open set and the expansion, by `_typed`."""
        return (tuple(tuple(map(_typed, (br.slope, br.intercept, br.fn,
                                         br.dfn, br.inv)))
                      for br in self.branches),
                tuple(map(_typed, self.open_set)), _typed(self.expansion))


def _typed(t):
    """t as part of a `_TABLES` key: a callable as itself, so equal only
    where the system's own == holds (a function is equal to itself alone);
    anything else as its type and repr, so that 3, 3.0 and Fraction(3), or
    0.0 and -0.0, which compare equal, stay apart."""
    return t if callable(t) else (type(t), repr(t))


# Tables derived from a system alone, by plain keys: the coding tables
# ("coding", "lattice" by scale), the `_FloatTable`s of one symbol ("step")
# and of L symbols ("cylinders"), the scalar form of the latter ("walk"),
# the `validate` report ("validate") and the derivative sums of
# `thermo._sandwich` (("sandwich", level)).  Equal systems rebuilt per job
# or run share one entry; more systems than this start over.
_SYSTEM_TABLES = 64
_TABLES: dict = {}


def _system_tables(system: IFSystem) -> dict:
    """The system's entry of `_TABLES`, made empty on first use."""
    tables = _TABLES.get(system._key)
    if tables is None:
        if len(_TABLES) >= _SYSTEM_TABLES:
            _TABLES.clear()
        tables = _TABLES[system._key] = {}
    return tables


def _system_table(system: IFSystem, name, build):
    """The table `name` of the system's entry: build(system), on first use.
    A build that raises stores nothing and leaves no entry behind."""
    tables = _TABLES.get(system._key)
    if tables is None or name not in tables:
        table = build(system)
        tables = _system_tables(system)
        tables[name] = table
    return tables[name]


def affine_system(slopes, intercepts, open_set) -> IFSystem:
    branches = tuple(Branch.affine(a, b) for a, b in zip(slopes, intercepts))
    return IFSystem(branches=branches, open_set=tuple(open_set))


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
    table their `_region_table`, in their own arithmetic.  lattice is set
    on a rational system with integer slopes: the least common denominator
    of its intercepts.
    """

    hull: tuple
    windows: tuple
    table: tuple
    lattice: Optional[int] = None


def _coding_table(system: IFSystem) -> _Coding:
    lo = _branch_fixed_point(system.branch(1), system.open_set)
    hi = _branch_fixed_point(system.branch(system.branch_count), system.open_set)
    if not lo < hi:
        raise ConfigurationError("degenerate attractor hull")
    windows = tuple(br.preimage_interval(lo, hi) for br in system.branches)
    maps = tuple((br.slope, br.intercept) if br.is_affine else (br, None)
                 for br in system.branches)
    lattice = None
    if system.is_rational and all(a.denominator == 1 for a, _ in maps):
        lattice = math.lcm(*(b.denominator for _, b in maps))
    return _Coding(hull=(lo, hi), windows=windows,
                   table=_region_table((lo, hi), windows, maps),
                   lattice=lattice)


class _Events(tuple):
    """The events (park, sym, gap) of one region of a `_walk` table, in
    order.  A region of `_walk_table`'s table also holds as `prefixes` the
    `_Events` of its first k events, k = 0 .. len - 1, which `_walk` yields
    when k symbols are left."""

    @cached_property
    def symbols(self) -> tuple:
        """The syms of the events that are not a gap (only the last event
        can be one), which `encode` extends its word by."""
        return tuple(sym for _, sym, gap in self if not gap)


def _region_table(hull, windows, maps) -> tuple:
    """The one-symbol region table (breaks, regions) of `_walk`.

    The window rule decides a symbol at y: park is -1 on the hull's left
    end, 1 on its right end, else 0; sym is the first window whose right
    edge is at or right of y (len(windows) + 1 right of them all), and the
    step is a gap when that window starts right of y.  It compares y with
    breaks only, the sorted distinct hull ends and window edges, so it
    decides alike on each region: 2i left of breaks[i] (and right of the
    one before), 2i + 1 at breaks[i], 2n right of all n.  Each region holds
    (slope, intercept, events): the rule's event (park, sym, gap) at an
    exact point of it (a Fraction compares exactly with floats, ints and
    Fractions) and branch sym's map, (slope, intercept) or (branch, None)
    on custom branches, from maps; a gap holds None and None.
    """
    breaks = sorted({*hull, *itertools.chain(*windows)})
    exact = [Fraction(t) for t in breaks]
    points = [exact[0] - 1]
    for t, t_next in zip(exact, exact[1:] + [exact[-1] + 2]):
        points += [t, (t + t_next) / 2]
    (a, b), d = hull, len(windows)
    regions = []
    for y in points:
        sym = next((k for k, (_, v) in enumerate(windows, 1) if y <= v),
                   d + 1)
        gap = sym > d or y < windows[sym - 1][0]
        event = (-1 if y == a else 1 if y == b else 0), sym, gap
        regions.append((None, None, _Events((event,))) if gap
                       else (*maps[sym - 1], _Events((event,))))
    return breaks, regions


def _checked_weights(system: IFSystem, p: ProbVector) -> ProbVector:
    """p itself; ConfigurationError unless it has one weight per branch."""
    if len(p) != system.branch_count:
        raise ConfigurationError(
            f"got {len(p)} weights for {system.branch_count} branches")
    return p


def _walk_weights(system: IFSystem, p: ProbVector) -> ProbVector:
    """The weights in a coding walk's arithmetic: p when the system and the
    weights are both rational (the walk is exact), else p's float twin."""
    p = _checked_weights(system, p)
    return p if system.is_rational and p.is_rational else p.as_floats()


# integer tables kept per system; more scales than this start its memo over
_LATTICE_TABLES = 64


def _coding_for(system: IFSystem, x):
    """The region table of `_walk` to walk x on, and x in its coordinates.

    A float x on a rational system is the rational Fraction(x), which it
    equals, and walks exactly as that Fraction does.  A rational x on a
    rational system with integer slopes has its orbit on the lattice
    (1/Q)Z, Q the least common multiple of the denominators of x and of
    the intercepts.  Its walk runs on the integers N = y Q, with a table
    per Q: windows [ceil(u Q), floor(v Q)], maps N -> a N + b Q, and hull
    endpoints a Q (a non-integer one is never met).  A float x on any
    other system walks on `IFSystem._float_walk`, every other x on the
    system's own table.  A NaN x raises ValueError: it passes every hull
    test and would walk right of every window.
    """
    if x != x:
        raise ValueError("x must not be NaN")
    if isinstance(x, float):
        if not system.is_rational:
            return system._float_walk, x
        x = Fraction(x)
    coding = system._coding
    if not isinstance(x, (int, Fraction)) or coding.lattice is None:
        return coding.table, x
    q = math.lcm(coding.lattice, x.denominator)
    memo = _system_tables(system).setdefault("lattice", {})
    table = memo.get(q)
    if table is None:
        if len(memo) >= _LATTICE_TABLES:
            memo.clear()
        table = memo[q] = _scaled_table(system, q)
    return table, x.numerator * (q // x.denominator)


def _scaled_table(system: IFSystem, q: int) -> tuple:
    def scaled(t):
        t = t * q
        return t.numerator if t.denominator == 1 else t

    hull = tuple(scaled(t) for t in system._coding.hull)
    windows = tuple((math.ceil(u * q), math.floor(v * q))
                    for u, v in system._coding.windows)
    maps = tuple((int(br.slope), int(br.intercept * q))
                 for br in system.branches)
    return _region_table(hull, windows, maps)


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
    and disjointness of branch preimages, and that p, if given, has one
    weight per branch (`ProbVector` checks the weights themselves).
    Structural impossibilities, a NaN, infinite or overflowing open-set
    end, slope or intercept among them, raise ConfigurationError;
    disjointness is graded, not raised.  Non-affine branches are sampled
    at 33 equally spaced points of O.

    Preimages with Fraction endpoints are compared exactly.  Float ones get
    a slack of 1e-12 of the width of O plus four units of rounding at the
    magnitude of O's endpoints, which the inverse round trip of non-affine
    branches also gets: so an overlap is told from a touch at any scale of
    O, and rounding far from the origin is not an overlap.

    The report of a system value is built once (`_system_table`), so equal
    systems built apart share it; a system that raises raises on every
    call, and p is checked on every call.
    """
    report = _system_table(system, "validate", _validation_report)
    if p is not None:
        _checked_weights(system, p)
    return report


def _validation_report(system: IFSystem) -> ValidationReport:
    """`validate`'s report of the system, or its ConfigurationError."""
    lo, hi = system.open_set
    numbers = [lo, hi] + [t for br in system.branches if br.is_affine
                          for t in (br.slope, br.intercept)]
    if not all(abs(t) <= _MAX for t in numbers):    # NaN compares False
        raise ConfigurationError("system numbers must be finite")
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


def _checked_least(name: str, value, low) -> None:
    """ValueError naming the argument unless value is an integer (one that
    `operator.index` takes) of at least low."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not value >= low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


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


def _check_in_hull(system: IFSystem, x) -> None:
    """Raise OutsideHullError if x lies outside the attractor hull.  A NaN x
    passes, as it passes every hull test, and `_coding_for` refuses it."""
    a, b = system._coding.hull
    if x < a or x > b:
        raise OutsideHullError(f"{x} outside attractor hull [{a}, {b}]")


def encode(system: IFSystem, x, depth: int) -> EncodeResult:
    """Symbolic coding of x to the given depth.

    Ties at shared cylinder endpoints resolve to the smaller branch index.
    A point inside a gap of the attractor gets the word of the deepest
    cylinder containing it and gap=True.  A NaN x, or a depth that is not
    an integer of at least 0, raises ValueError.
    """
    _checked_least("depth", depth, 0)
    _check_in_hull(system, x)
    word, events = [], ()
    for events in _walk(*_coding_for(system, x), depth):
        word += events.symbols
    # only the last event can be a gap
    return EncodeResult(tuple(word), bool(events) and events[-1][2])


def _walk(table: tuple, y, depth: int):
    """Coding walk of y on the region table of `_coding_for`: yields the
    events (park, sym, gap) of at most depth symbols, one tuple of them
    per region lookup.

    Each symbol is decided at the orbit point before its step by the window
    rule of `_region_table`, and every step is one region lookup in the
    table (breaks, regions): a `bisect` on the breaks finds y's region, the
    walk yields the region's events, an `_Events`, and maps y (or stops,
    at a gap).  A region of the one-symbol tables holds one event; one of
    an L-symbol table (`_walk_table`'s, a float point on an affine system
    that is not rational) holds the events of the one-symbol walk up to its
    L-th orbit point, bit for bit, and maps y there by its composed A_w and
    B_w or by a replay of its L float steps, a callable held as a custom
    branch is, with intercept None (`transition._orbit_tables` proves it).
    When fewer symbols are left than the region holds, the walk yields its
    first ones, `_Events.prefixes`, and stops: every float of the region
    takes that one path.
    """
    breaks, regions = table
    n = len(breaks)
    while depth > 0:
        i = bisect_left(breaks, y)
        slope, intercept, events = \
            regions[2 * i + 1 if i < n and breaks[i] == y else 2 * i]
        depth -= len(events)
        yield events if depth >= 0 else events.prefixes[depth]
        if slope is None:
            return
        y = slope(y) if intercept is None else slope * y + intercept


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


@dataclass(frozen=True, eq=False)
class _FloatTable:
    """The regions of L symbols of a system's float walk (hull ends, window
    edges and maps in floats): one symbol on every system
    (`IFSystem._step`), L on every affine system with increasing branches
    (`IFSystem._cylinders`, whose proof `transition._orbit_tables` gives).

    keys are sorted distinct cuts, and `searchsorted(keys, y, "right")` is
    y's region: i for the floats [keys[i - 1], keys[i]), 0 left of keys[0].
    The one-symbol keys interleave the sorted breakpoints t with the float
    after each, so that every breakpoint is a region of its own.  `region`
    is that lookup, by a bucket index on a table of more than
    `_INDEXED_KEYS` keys and a call of at least `_INDEXED_POINTS` points.

    park, window and inside (L x regions) are the one-symbol decisions of
    each region's first float at its L steps, by the window rule of
    `_region_table`: window, the 0-based index of the first hull window
    whose right edge is at or right of the orbit point; inside, whether
    that window holds it (then window is its branch, the smaller index at a
    shared edge; else it counts the windows left of it, which escape up);
    park, -1 on the hull's left end, 1 on its right end, else 0.  On an
    affine system the maps (`maps`) send every float y of region r to its
    L-th orbit point, bit for bit, where a decided point (in a gap or on a
    hull end) stays put (1.0 y + -0.0): slope[r] * y + intercept[r], with
    slope[r] the product of the one-symbol slopes along the path, where
    every float step is exact; elsewhere slope and intercept are L x
    regions, the one-symbol maps along each region's path, which a step
    replays.  On custom branches both are None.  The scalar walk reads an
    L-symbol table in its own form, `_walk_table`'s.
    """

    keys: np.ndarray
    park: np.ndarray
    window: np.ndarray
    inside: np.ndarray
    slope: Optional[np.ndarray]
    intercept: Optional[np.ndarray]

    def __post_init__(self):
        for o in vars(self).values():
            if isinstance(o, np.ndarray):
                o.flags.writeable = False

    def region(self, y: np.ndarray) -> np.ndarray:
        """searchsorted(keys, y, "right"), the region of each point y.

        The bucket index (`_index`) gives most points their region by two
        gathers: a point whose bucket holds no key lies right of every key
        of the lower buckets and left of every key of the higher ones, and
        only the points whose bucket holds a key take a binary search
        (about 2% of the grid benchmark's lookups).  A table of at most
        `_INDEXED_KEYS` keys (the one-symbol tables) and a call on fewer
        than `_INDEXED_POINTS` points keep `searchsorted`, which is faster
        there (the constants give the measurements)."""
        index = self._index
        if index is None or y.size < _INDEXED_POINTS:
            return self.keys.searchsorted(y, side="right")
        lo, hi, scale, start = index
        r = start[_bucket(y, lo, hi, scale)]
        fall = (r < 0).nonzero()[0]
        if fall.size:
            r[fall] = self.keys.searchsorted(y[fall], side="right")
        return r

    @cached_property
    def _index(self) -> Optional[tuple]:
        """(lo, hi, scale, start) of the bucket index, None on a table of
        at most `_INDEXED_KEYS` keys or whose keys span more than the
        largest float.

        There are K buckets, K the power of two at or below
        `_BUCKETS_PER_KEY` times the key count, and y's bucket is
        `_bucket`'s floor(fl(fl(clip(y, lo, hi) - lo) * scale)), with lo
        and hi the first and the last key and scale K / (hi - lo), moved
        down by ulps until hi's bucket is below K.  Clipping, a
        subtraction and a multiplication by scale > 0, each rounded to
        nearest, and the floor are each monotone, and the keys are
        bucketed by the same expression, so every key of a lower bucket
        than y's lies at or left of y, and every key of a higher one right
        of it.  start[b] is, where bucket b holds no key, the number of
        keys in the buckets below b, which is then y's region; it is -1
        where the bucket holds one.  The first and the last bucket hold
        keys, so a point left of lo or right of hi (or NaN, which fmax and
        fmin clip to lo) takes the binary search."""
        keys = self.keys
        lo, hi = float(keys[0]), float(keys[-1])
        if keys.size <= _INDEXED_KEYS or hi - lo == math.inf:
            return None
        count = 1 << (keys.size * _BUCKETS_PER_KEY).bit_length() - 1
        scale = count / (hi - lo)
        while (hi - lo) * scale >= count:
            scale = math.nextafter(scale, 0.0)
        held = np.bincount(_bucket(keys, lo, hi, scale), minlength=count)
        start = np.where(held > 0, -1, np.cumsum(held) - held)
        start.flags.writeable = False
        return lo, hi, scale, start

    @cached_property
    def maps(self) -> tuple:
        """The rows (s, c) of slope and intercept, which a step applies to
        y in turn, y <- s[r] y + c[r]: one row, or L on a replay table;
        none on custom branches."""
        if self.slope is None:
            return ()
        return tuple(zip(np.atleast_2d(self.slope),
                         np.atleast_2d(self.intercept)))

    @cached_property
    def terms(self) -> tuple:
        """Indices of each step's terms of `eval_cdf`: the escaped mass in
        the left masses and [0, 1], the undecided mass in the weights and
        [0], both L x regions."""
        escaped = np.where(self.park == 0, self.window,
                           np.where(self.park > 0, -1, -2))
        undecided = np.where(self.inside & (self.park == 0), self.window, -1)
        return escaped, undecided


# `_FloatTable.region`: a table of more keys than this gets a bucket index
# of about _BUCKETS_PER_KEY buckets per key, which a call on at least
# _INDEXED_POINTS points reads.  Measured on the walk's own lookups (grid
# seeds 1-2, a 2-core Xeon): on the one-symbol tables (6-12 keys) the
# index took 1.02-1.7 times searchsorted's time, on the L-symbol tables
# (514-616 keys) 0.24-0.52 times, and no table in between occurs.  Below
# 64 points the index's dozen numpy calls cost 2.2-13 times the search on
# grid, spectrum and pointwise calls, at 64-255 points 0.82-1.39 times,
# and from 256 every workload gains (0.47-0.90); 32 buckets per key was
# the fastest of 4-128 on all three L-symbol tables: fewer leave more
# points to the search, more make start outgrow the cache.
_INDEXED_KEYS = 64
_INDEXED_POINTS = 256
_BUCKETS_PER_KEY = 32


def _bucket(y: np.ndarray, lo: float, hi: float, scale: float) -> np.ndarray:
    """The bucket of each point y of a `_FloatTable._index`."""
    t = np.fmax(y, lo)
    np.fmin(t, hi, out=t)
    t -= lo
    t *= scale
    return t.astype(np.intp)


def _step_table(system: IFSystem) -> _FloatTable:
    u, v = system._float_windows
    # only the events are read, so the maps are left out
    breaks, regions = _region_table(
        tuple(float(t) for t in system._coding.hull),
        tuple(zip(u.tolist(), v.tolist())), ((None, None),) * u.size)
    keys, _ = _regions(np.array(breaks))
    park, sym, gap = map(np.array, zip(*(e for _, _, (e,) in regions)))
    window, inside = sym - 1, ~gap
    slope = intercept = None
    if system.is_affine:
        # the branch of a region that moves, else the identity
        moves = np.where(inside & (park == 0), window, -1)
        slope = np.append(system._float_maps[0], 1.0)[moves]
        intercept = np.append(system._float_maps[1], -0.0)[moves]
    return _FloatTable(keys, park[None], window[None], inside[None], slope,
                       intercept)


# words per table of the L-symbol walk: L is the largest length whose d^L
# words number at most this, d the branch count
_CYLINDERS = 256


def _distinct(floats: np.ndarray) -> np.ndarray:
    """np.unique's sorted distinct floats, without the numpy.ma import that
    np.unique makes on its first call."""
    ends = np.sort(floats)
    return ends[np.concatenate([[True], ends[1:] != ends[:-1]])]


def _regions(breakpoints: np.ndarray) -> tuple:
    """(keys, firsts) of the regions that breakpoints cut: keys as in
    `_step_table`, each breakpoint then the float after it, and firsts the
    first float of each region (the float before t_0 for region 0)."""
    ends = _distinct(breakpoints)
    keys = np.column_stack([ends, np.nextafter(ends, math.inf)]).ravel()
    return keys, np.concatenate([[np.nextafter(ends[0], -math.inf)], keys])


# the bits of -0.0: `_ordinal` counts the negative floats down from it
_NEG = np.int64(-2 ** 63)


def _ordinal(y: np.ndarray) -> np.ndarray:
    """The floats y as int64s in their order: adjacent floats differ by 1,
    and 0.0 and -0.0 both give 0."""
    bits = y.view(np.int64)
    return np.where(bits < 0, _NEG - bits, bits)


def _float_of(o: np.ndarray) -> np.ndarray:
    """The floats of `_ordinal`s (0.0 for 0)."""
    return np.where(o < 0, _NEG - o, o).view(float)


def _least(s, c, t, lo, hi) -> np.ndarray:
    """Per entry, the least float y of (lo, hi] with fl(s y + c) >= t, for
    arrays whose every entry has s > 0, one such y, and fl(s lo + c) < t.

    The float step is monotone, so the floats that reach t form an upper
    end of [lo, hi], and a bisection on `_ordinal`s finds its least one.
    It starts from the bracket of fl((t - c) / s) and the floats two
    either side, which holds the answer unless rounding moves it further;
    then it starts from (lo, hi]."""
    def reaches(o, k):
        return s[k] * _float_of(o) + c[k] >= t[k]

    everyone = slice(None)
    olo, ohi = _ordinal(lo), _ordinal(hi)
    with np.errstate(over="ignore"):
        guess = _ordinal(np.clip((t - c) / s, lo, hi))
    # below fails to reach t, above reaches it
    below, above = np.maximum(guess - 2, olo), np.minimum(guess + 2, ohi)
    below = np.where(reaches(below, everyone), olo, below)
    above = np.where(reaches(above, everyone), above, ohi)
    live = (above - below > 1).nonzero()[0]
    while live.size:
        lo_o, hi_o = below[live], above[live]
        # the floor of the mean, without an overflow
        mid = (lo_o >> 1) + (hi_o >> 1) + (lo_o & hi_o & 1)
        ok = reaches(mid, live)
        above[live[ok]] = mid[ok]
        below[live[~ok]] = mid[~ok]
        live = live[above[live] - below[live] > 1]
    return _float_of(above)


def _level_cuts(step: "_FloatTable", length: int) -> np.ndarray:
    """The sorted cuts of the regions of `length` symbols: the floats at
    which the one-symbol path of a float can change (`_cylinder_table`).

    Level 1 cuts at the one-symbol keys.  Level n adds, for each one-symbol
    region that moves, with map y -> s y + c on its floats [lo, hi], and for
    each cut t of level n - 1 with fl(s lo + c) < t <= fl(s hi + c), the
    least float of the region whose one-symbol image reaches t (`_least`).
    A region that does not move keeps its point, so it makes one decision
    L times and needs no cut."""
    keys = step.keys
    # a region that moves lies between two keys (regions 0 and len(keys)
    # lie outside the hull), and one between equal keys, where a breakpoint
    # is the float after another, holds no float
    moves = step.inside[0] & (step.park[0] == 0)
    moves[1:-1] &= keys[:-1] < keys[1:]
    moving = moves.nonzero()[0]
    lo, hi = keys[moving - 1], np.nextafter(keys[moving], -math.inf)
    s, c = step.slope[moving], step.intercept[moving]
    image_lo, image_hi = s * lo + c, s * hi + c
    cuts = keys
    for _ in range(length - 1):
        first = cuts.searchsorted(image_lo, side="right")
        counts = cuts.searchsorted(image_hi, side="right") - first
        which = np.repeat(np.arange(moving.size), counts)
        # the cuts first[k] .. first[k] + counts[k] - 1 of each region k
        at = np.arange(which.size) + np.repeat(
            first - np.cumsum(counts) + counts, counts)
        cuts = _distinct(np.concatenate([keys, _least(
            s[which], c[which], cuts[at], lo[which], hi[which])]))
    return cuts


def _cylinder_table(system: IFSystem) -> Optional["_FloatTable"]:
    """The `_FloatTable` of L symbols of `_orbit_tables`' proof, or None
    on a system with a custom or a decreasing branch, or with more than 16
    branches (L = 1).

    Its keys are the cuts of `_level_cuts`, and every float of a region
    takes the one-symbol path of the region's first float, along which the
    table gathers the decisions.  Its maps are A_w and B_w on a system
    whose every float step is exact (`_composed`), else the path's L
    one-symbol maps, which a block step replays."""
    d = system.branch_count
    length = 1
    while d ** (length + 1) <= _CYLINDERS:
        length += 1
    if length < 2 or not system.is_affine \
            or not (system._float_maps[0] > 0).all():
        return None
    step = system._step
    keys = _level_cuts(step, length)
    firsts = np.concatenate([[np.nextafter(keys[0], -math.inf)], keys])
    y, path = firsts, []
    for _ in range(length):
        r = step.region(y)
        path.append(r)
        y = step.slope[r] * y + step.intercept[r]
    path = np.array(path)
    maps = _composed(system, keys, firsts, path, y) \
        or (step.slope[path], step.intercept[path])
    # the one-symbol decisions along each region's path
    park, window, inside = (o[0][path]
                            for o in (step.park, step.window, step.inside))
    return _FloatTable(keys, park, window, inside, *maps)


def _composed(system: IFSystem, keys, firsts, path, images) -> Optional[tuple]:
    """(A_w, B_w) of the regions of an L-symbol table, with firsts, paths
    and L-th orbit points images of their first floats, on a system whose
    every float step is exact and whose every B_w is a float; else None.

    The steps are exact when every slope and intercept is a float, every
    slope is 2^k, and on each float window y -> s y + c has c = 0 or s y
    and -c within a factor of two at both ends (Sterbenz's lemma)."""
    slopes, intercepts = system._float_maps
    u, v = system._float_windows
    for br, s, c, lo, hi in zip(system.branches, slopes.tolist(),
                                intercepts.tolist(), u.tolist(), v.tolist()):
        if br.slope != s or br.intercept != c or math.frexp(s)[0] != 0.5:
            return None
        # Sterbenz: s y and -c within a factor of two at both window ends
        if c and not all(min(-c / 2, -2 * c) <= s * t <= max(-c / 2, -2 * c)
                         for t in (lo, hi)):
            return None
    step = system._step
    # A_w: the product of the one-symbol slopes along the path (powers of
    # two: exact); 0 on a region right of t_0 whose next float is a key
    slope = step.slope[path].prod(axis=0)
    slope[1:][np.nextafter(keys, math.inf) == np.append(keys[1:], math.inf)] = 0
    term = -slope * firsts
    intercept = images + term
    # TwoSum: the rounding error of images + term, exactly; 0 iff B_w is a
    # float
    back = intercept - images
    if np.any((images - (intercept - back)) + (term - back)):
        return None
    return slope, intercept


def _walk_table(system: IFSystem) -> Optional[tuple]:
    """The L-symbol table (`IFSystem._cylinders`) in the form the scalar
    walk reads, by `_walk_blocks`, or None when the system has no L-symbol
    table or its own coding table lacks the breaks of the table's float
    image, which the scalar walk compares with exactly.  Only a float
    point's walk reads it, so it is built on the first read of
    `IFSystem._float_walk`, not with the array table."""
    cyl = system._cylinders
    if cyl is None \
            or system._coding.table[0] != system._step.keys[::2].tolist():
        return None
    return _walk_blocks(system, cyl.keys, cyl.slope, cyl.intercept, cyl.park,
                        cyl.window, cyl.inside)


def _replay(maps: tuple, y):
    """y after the one-symbol maps (s, c) in turn, y <- s y + c."""
    for s, c in maps:
        y = s * y + c
    return y


def _walk_blocks(system: IFSystem, keys, slope, intercept, park, window,
                 inside) -> tuple:
    """The region table (breaks, regions) of `_walk` of an L-symbol table's
    arrays, each region with its map and the events (park, sym, gap) of
    its decisions up to a gap (then slope None) or a parking (then slope 0
    and as intercept the hull end's one-symbol image: its window's float
    map at the hull end).  A region whose L steps all move maps y by its
    A_w and B_w, or, on a replay table (slope and intercept L x regions),
    by a `_replay` of its L maps, as (callable, None).  A float point walks
    the table alone, to any depth: the first k events of a region, its
    `_Events.prefixes`, are the one-symbol walk's for every float of it.

    Search-right region i holds the floats [keys[i - 1], keys[i]), and
    `_walk` reads a break t at its own slot and the floats between t and
    the next break at the slot after.  So a key t is a break, with slots
    for its region and, when the next key is the float after t (t's
    region holds t alone), for the next region, whose key is then no
    break; else both slots are t's region.  On keys that interleave
    breakpoints with the float after each, the breaks are every other key
    and slot j is region j."""
    ends = [float(t) for t in system._coding.hull]
    slopes, intercepts = (o.tolist() for o in system._float_maps)
    replay = slope.ndim > 1
    prefix = cache(_Events)     # one per distinct prefix, shared by regions
    regions = []
    for s, c, *path in zip(slope.T.tolist(), intercept.T.tolist(),
                           park.T.tolist(), window.T.tolist(),
                           inside.T.tolist()):
        events = []
        for parked, k, held in zip(*path):
            events.append((parked, k + 1, not held))
            if not held:                # a gap
                s = c = None
                break
            if parked:                  # on a hull end
                s, c = 0.0, slopes[k] * ends[parked > 0] + intercepts[k]
                break
        else:
            if replay:
                s, c = partial(_replay, tuple(zip(s, c))), None
        events = _Events(events)
        events.prefixes = tuple(prefix(events[:k]) for k in range(len(events)))
        regions.append((s, c, events))
    cuts, breaks, slots = keys.tolist(), [], regions[:1]
    k = 0
    while k < len(cuts):
        t = cuts[k]
        breaks.append(t)
        paired = k + 1 < len(cuts) \
            and cuts[k + 1] == math.nextafter(t, math.inf)
        slots += [regions[k + 1], regions[k + 1 + paired]]
        k += 1 + paired
    return breaks, slots


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
    log_p = np.array([math.log(w) for w in
                      _checked_weights(system, p).as_floats().weights])
    if system.is_affine:
        phi = np.array([-math.log(a) for a in system._float_maps[0]])[idx]
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
    words from `random.Random(7)`.  A depth that is not an integer of at
    least 0 raises ValueError.
    """
    _checked_least("depth", depth, 0)
    if system.is_affine or depth == 0:
        return 1.0
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

# the decimal exponent of a numeric string, as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


def system_from_json(doc: dict):
    """Build (system, weights, mode) from the canonical JSON layout.

    Layout: {"branches": [{"slope": a, "intercept": b}, ...],
             "open_set": [lo, hi], "p": [p_1, ..., p_s],
             "mode": "float" | "rational"}.
    The last weight is derived, never stored.  Every number is read as
    Fraction(v) (an int, a float, or a string like "1/3"), kept in rational
    mode, where a JSON float is the double it denotes (write "3/10" for
    three tenths, not 0.3), and made a float in float mode; NaN, inf, "1/0",
    a number past the float range, or a decimal exponent beyond +-9999
    (which Fraction expands in full) is a ConfigurationError in either mode.
    """
    try:
        mode = doc.get("mode", "float")
        if mode not in ("float", "rational"):
            raise ConfigurationError(f"unknown mode {mode!r}")

        def conv(v):
            exp = _EXPONENT.search(v) if isinstance(v, str) else None
            if exp and abs(int(exp[1])) > 9999:
                raise ConfigurationError(f"{v!r}: exponent beyond +-9999")
            v = Fraction(v)     # ValueError on NaN, OverflowError on inf
            f = float(v)        # OverflowError past the float range
            return v if mode == "rational" else f
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
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
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

