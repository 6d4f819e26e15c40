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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

Word = tuple  # tuple of 1-based branch symbols


class ConfigurationError(ValueError):
    """Raised when a system or probability vector is structurally invalid."""


class OutsideHullError(ValueError):
    """Raised when a point that must lie in the attractor hull does not."""


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
        """Product of weights along a word (the cylinder mass)."""
        m = Fraction(1) if self.is_rational else 1.0
        for sym in word:
            m *= self[sym]
        return m

    def log_mass(self, word: Sequence[int]) -> float:
        return sum(math.log(float(self[sym])) for sym in word)

    def left_mass(self, symbol: int):
        """Total weight of symbols strictly below the given one."""
        zero = Fraction(0) if self.is_rational else 0.0
        return sum(self.weights[: symbol - 1], zero)

    @property
    def is_rational(self) -> bool:
        return any(isinstance(w, Fraction) for w in self.weights)

    def as_floats(self) -> "ProbVector":
        if not self.is_rational:
            return self
        return ProbVector.of(*[float(w) for w in self.weights[:-1]])


# ---------------------------------------------------------------------------
# the system


@dataclass(frozen=True)
class IFSystem:
    """An ordered family of expanding branches with a separating open interval.

    ``flags`` records which disjointness condition the branch preimages were
    verified to satisfy: "osc" means the open preimages are pairwise disjoint
    inside O, "separating" means even the closures are disjoint.
    """

    branches: tuple
    open_set: tuple
    expansion: float = field(default=0.0)
    osc: bool = field(default=False)
    separating: bool = field(default=False)

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def branch(self, symbol: int) -> Branch:
        return self.branches[symbol - 1]

    @property
    def is_affine(self) -> bool:
        return all(b.is_affine for b in self.branches)

    @property
    def is_rational(self) -> bool:
        return self.is_affine and all(
            isinstance(b.slope, Fraction) and isinstance(b.intercept, Fraction)
            for b in self.branches
        )

    def symbols(self):
        return range(1, len(self.branches) + 1)


def affine_system(slopes, intercepts, open_set) -> IFSystem:
    branches = tuple(Branch.affine(a, b) for a, b in zip(slopes, intercepts))
    lam = min(float(a) for a in slopes)
    return IFSystem(branches=branches, open_set=tuple(open_set), expansion=lam)


def attractor_hull(system: IFSystem):
    """Smallest interval containing the attractor: between the fixed points
    of the first and the last branch."""
    lo = _branch_fixed_point(system.branch(1), system.open_set)
    hi = _branch_fixed_point(system.branch(system.branch_count), system.open_set)
    if not lo < hi:
        raise ConfigurationError("degenerate attractor hull")
    return lo, hi


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
    a, b = attractor_hull(system)
    return [br.preimage_interval(a, b) for br in system.branches]


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple            # (name, passed, witness) triples
    osc: bool
    separating: bool
    ok: bool

    def failures(self):
        return [c for c in self.checks if not c[1]]


def validate(system: IFSystem, p: Optional[ProbVector] = None,
             samples: int = 33) -> ValidationReport:
    """Check monotonicity, expansion, inverse consistency and the ordering
    and disjointness of branch preimages.  Structural impossibilities raise
    ConfigurationError; the disjointness grade is reported, not raised.
    """
    lo, hi = system.open_set
    if not lo < hi:
        raise ConfigurationError("open interval is empty")
    if system.branch_count < 2:
        raise ConfigurationError("need at least two branches")
    checks = []

    pts = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
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
            if rt > 1e-12:
                raise ConfigurationError(
                    f"branch {i} inverse round-trip error {rt:.2e}")
            checks.append((f"branch {i} increasing", True, f"min derivative {dmin:.6g}"))

    pre = [br.preimage_interval(lo, hi) for br in system.branches]
    inside = all(u >= lo - 1e-12 and v <= hi + 1e-12 for u, v in pre)
    checks.append(("preimages inside O", inside,
                   "; ".join(f"[{float(u):.6g}, {float(v):.6g}]" for u, v in pre)))

    ordered = all(pre[i][0] <= pre[i + 1][0] and pre[i][1] <= pre[i + 1][1]
                  for i in range(len(pre) - 1))
    checks.append(("preimages ordered by branch index", ordered, ""))

    osc = True
    separating = True
    for i in range(len(pre) - 1):
        gap = pre[i + 1][0] - pre[i][1]
        if gap < -1e-12:
            osc = False
            separating = False
            checks.append((f"preimages {i + 1},{i + 2} disjoint", False,
                           f"overlap of width {float(-gap):.6g}"))
        elif gap <= 1e-12:
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


def validated(system: IFSystem, p: Optional[ProbVector] = None) -> IFSystem:
    """Return a copy of the system with disjointness flags set by validation."""
    report = validate(system, p)
    if not report.ok:
        raise ConfigurationError(
            "system failed validation: "
            + "; ".join(name for name, passed, _ in report.checks if not passed))
    return IFSystem(branches=system.branches, open_set=system.open_set,
                    expansion=system.expansion, osc=report.osc,
                    separating=report.separating)


# ---------------------------------------------------------------------------
# cylinders and coding


def cylinder(system: IFSystem, word: Sequence[int]):
    """Closed interval f_{w_1}^{-1} o ... o f_{w_n}^{-1}(closure of O)."""
    lo, hi = system.open_set
    for sym in reversed(tuple(word)):
        lo, hi = system.branch(sym).preimage_interval(lo, hi)
    return lo, hi


def _branch_arrays(system: IFSystem):
    """Float arrays of the slopes and intercepts of an affine system."""
    return (np.array([float(br.slope) for br in system.branches]),
            np.array([float(br.intercept) for br in system.branches]))


def _cylinder_maps(system: IFSystem, words: np.ndarray):
    """Prefix cylinder maps of many words of an affine system at once.

    words is an (m, n) array of 1-based symbols.  The inverse-branch
    composition f_{w_1}^{-1} o ... o f_{w_k}^{-1} is affine, x -> c x + d,
    and entry (i, k - 1) of the returned (c, d) belongs to the prefix of
    length k of word i: c_k = c_{k-1} / a and d_k = d_{k-1} - c_k b for the
    branch (a, b) of w_k, so every word extends by one symbol per column.
    """
    idx = words - 1
    slopes, intercepts = _branch_arrays(system)
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
    cylinder containing it and gap=True.
    """
    a, b = attractor_hull(system)
    if x < a or x > b:
        raise OutsideHullError(f"{x} outside attractor hull [{a}, {b}]")
    word = []
    for _, sym, gap in _walk(system, x, depth, hull_preimages(system)):
        if gap:
            return EncodeResult(word=tuple(word), gap=True)
        word.append(sym)
    return EncodeResult(word=tuple(word), gap=False)


def _walk(system: IFSystem, x, depth: int, pre):
    """Coding walk of x: yields (y, sym, gap) for at most depth steps.

    y is the orbit point before the step and sym the smallest index whose
    window in pre = hull_preimages(system) holds it; the walk then applies
    that branch.  In a gap, sym is the first window right of y (len(pre)
    + 1 right of them all), gap is True and the walk stops.
    """
    y = x
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
        y = system.branch(sym)(y)


def pi_approx(system: IFSystem, word: Sequence[int]):
    """Midpoint of the cylinder of the word and half its diameter as error."""
    lo, hi = cylinder(system, word)
    half = (hi - lo) / 2
    return lo + half, half


def ergodic_sums(system: IFSystem, p: ProbVector, word: Sequence[int]):
    """Arrays of partial sums (S_k phi, S_k psi) for k = 1 .. len(word).

    phi is minus the log branch derivative along the orbit, psi the log
    branch weight.  Affine systems are exact; otherwise the derivative is
    taken at the midpoint of the remaining suffix cylinder, with an error
    controlled by the distortion of the system.
    """
    word = tuple(word)
    mids = None if system.is_affine else _tail_midpoints(system, word)
    s_phi, s_psi = [], []
    tphi = tpsi = 0.0
    for k, sym in enumerate(word):
        br = system.branch(sym)
        deriv = float(br.slope) if br.is_affine else br.derivative(mids[k])
        tphi -= math.log(deriv)
        tpsi += math.log(float(p[sym]))
        s_phi.append(tphi)
        s_psi.append(tpsi)
    return s_phi, s_psi


def _tail_midpoints(system: IFSystem, word: Sequence[int]) -> list:
    """pi_approx(system, word[k:])[0] for every k, by one backward pass."""
    lo, hi = system.open_set
    mids = [None] * len(word)
    for k in range(len(word) - 1, -1, -1):
        lo, hi = system.branch(word[k]).preimage_interval(lo, hi)
        mids[k] = lo + (hi - lo) / 2
    return mids


def distortion_constant(system: IFSystem, depth: int, samples: int = 5,
                        max_words: int = 4096, seed: int = 7) -> float:
    """Supremum of f_w'(x)/f_w'(y) over words up to the given depth.

    Equals 1.0 exactly for affine systems.  For others the supremum is taken
    over sampled point pairs in each cylinder, enumerating all words when
    feasible and falling back to a seeded sample otherwise.
    """
    if system.is_affine or depth == 0:
        return 1.0
    import itertools
    import random

    rng = random.Random(seed)
    syms = list(system.symbols())
    worst = 1.0
    for n in range(1, depth + 1):
        count = len(syms) ** n
        if count <= max_words:
            words = itertools.product(syms, repeat=n)
        else:
            words = (tuple(rng.choice(syms) for _ in range(n))
                     for _ in range(max_words))
        for w in words:
            lo, hi = cylinder(system, w)
            pts = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
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
