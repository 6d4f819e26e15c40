"""Correctness oracles, one per job kind.

`check(job, output)` returns None when the output is right, and otherwise a
`Failure`: a one-line reason plus the id of the known defect it matches, or
None when it matches none.  Each oracle compares against a path independent
of the one timed: the exact or scalar evaluator, a brute-force scan, finite
differences, the closed-form pressure of affine systems, or the defining
self-consistency of the cdf.  Oracles run outside the timed region.

Known defects are failures too: they count in `failed` and lower the pass
ratio.  They are listed here so that a run can tell them from new breakage.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

import holderlab as hl

from .workloads import AFFINE, DENOM, affine, bent_system, float_points, \
    weights

KNOWN_DEFECTS = {
    "takagi.derivative_grids_bound":
        "derivative_grids reports a tail bound near 1e-12 where its error on "
        "grids whose nodes miss the branch images is near 1e-3 "
        "(ROADMAP item 2)",
    "transition.float_orbit_bound":
        "float eval_cdf reports bound 0 at attractor points whose float orbit "
        "drifts under a slope that is not a power of two; the value is off by "
        "up to 1e-10",
    "cli.grid_size_exit_code":
        "a non-integer grid_size exits 2, README documents 1 for config "
        "errors (ROADMAP item 5)",
    "cli.malformed_system_traceback":
        "a malformed system block ends in a traceback instead of a config "
        "error (ROADMAP item 5)",
}


class Failure(NamedTuple):
    reason: str
    defect: Optional[str] = None


CDF_TOL = 1e-12          # default undecided-mass tolerance of cdf_values
FD_TOL = {1: 1e-6, 2: 1e-5}  # finite-difference truncation, h = 1e-4
BRUTE_MAX_NODES = 2049   # largest grid scanned pair by pair


def _inputs(params):
    return affine(params["system"]), weights(params["p"])


def _judge(misses, defect):
    """Failure for the entries of one job that missed their check, each given
    as (reason, shows_defect): tagged with the known defect only if every miss
    shows it, so that a new error beside a known one is still new."""
    if not misses:
        return None
    new = [reason for reason, known in misses if not known]
    reason = (new or [misses[0][0]])[0]
    if len(misses) > 1:
        reason += f" ({len(misses)} entries miss)"
    return Failure(reason, None if new else defect)


# ---------------------------------------------------------------------------
# independent references


def brute_seminorm(nodes, values, alpha):
    """Largest |h(x)-h(y)| / d(x,y)^alpha over all node pairs of a cdf, with
    the boundary points -inf (value 0) and +inf (value 1), scanned in blocks
    of 256 rows to keep memory small."""
    pos = np.concatenate(([-1.0], nodes / (1.0 + np.abs(nodes)), [1.0]))
    vals = np.concatenate(([0.0], values, [1.0]))
    best = 0.0
    for i in range(0, pos.size, 256):
        d = pos[None, :] - pos[i:i + 256, None]
        v = np.abs(vals[None, :] - vals[i:i + 256, None])
        keep = d > 0
        if keep.any():
            best = max(best, float((v[keep] / d[keep] ** alpha).max()))
    return best


def affine_pressure_root(name, free, betas):
    """t(beta) solving sum_i p_i^beta s_i^-t = 1, and t'(beta), by bisection
    on the closed form; vectorised over betas."""
    ws = np.array([k / DENOM for k in free] + [1.0 - sum(free) / DENOM])
    lw = np.log(ws)
    ls = np.log(np.array(AFFINE[name][0], dtype=float))
    b = np.asarray(betas, dtype=float)[:, None]

    def press(t):
        v = b * lw - t[:, None] * ls
        m = v.max(axis=1)
        return m + np.log(np.exp(v - m[:, None]).sum(axis=1))

    lo = (b * lw / ls).min(axis=1) - 1.0
    hi = (b * lw / ls).max(axis=1) + math.log(len(ws)) / ls.min() + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = press(mid) > 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    t = 0.5 * (lo + hi)
    q = np.exp(b * lw - t[:, None] * ls)
    tp = (q * lw).sum(axis=1) / (q * ls).sum(axis=1)
    return t, tp


# ---------------------------------------------------------------------------
# grid


def _check_cdf_values(p, values):
    system, pv = _inputs(p)
    nodes = np.linspace(p["lo"], p["hi"], p["n"])
    if values.shape != nodes.shape:
        return Failure(f"shape {values.shape} for {nodes.shape} nodes")
    for i in np.linspace(0, p["n"] - 1, 48).astype(int):
        ref, err = hl.eval_cdf(system, pv, float(nodes[i]))
        if not abs(values[i] - ref) <= err + CDF_TOL + 1e-15:
            return Failure(f"node {nodes[i]!r}: {values[i]!r} vs scalar "
                           f"{ref!r} (bound {err:.3g})")
    # exact values at dyadic nodes, against the Fraction-mode evaluator
    exact_sys = affine(p["system"], exact=True)
    exact_p = weights(p["p"], exact=True)
    dyadic = [Fraction(k, 256) for k in range(1, 256, 17)]
    got = hl.cdf_values(system, pv, [float(x) for x in dyadic])
    for x, v in zip(dyadic, got):
        ref, err = hl.eval_cdf(exact_sys, exact_p, x)
        if not abs(v - float(ref)) <= err + CDF_TOL + 1e-15:
            return Failure(f"dyadic node {x}: {v!r} vs exact {ref} (bound {err:.3g})")
    return None


def _check_holder_seminorm(p, out):
    h, value = out
    if h.nodes.size <= BRUTE_MAX_NODES:
        ref = brute_seminorm(h.nodes, h.values, p["alpha"])
        if not abs(value - ref) <= 1e-12 * ref:
            return Failure(f"seminorm {value!r} vs brute force {ref!r}")
        return None
    # larger grids: a brute-force scan of a node subset is a lower bound
    sub = np.linspace(0, h.nodes.size - 1, BRUTE_MAX_NODES).astype(int)
    ref = brute_seminorm(h.nodes[sub], h.values[sub], p["alpha"])
    if not value >= ref * (1 - 1e-12):
        return Failure(f"seminorm {value!r} below subset scan {ref!r}")
    return None


def _check_gap_probe(p, report):
    wrong = "growing" if p["side"] == "below" else "bounded"
    if report.verdict == wrong:
        return Failure(f"alpha {p['alpha']:.4f} {p['side']} alpha_minus judged {wrong}")
    return None


def _check_iterate_transition(p, diag):
    r = diag.residuals
    if diag.diverged or not diag.rate < 1.0 or not r[-1] < r[0]:
        return Failure(f"no convergence: rate {diag.rate:.4g}, residuals "
                       f"{r[0]:.3g} -> {r[-1]:.3g}")
    return None


# ---------------------------------------------------------------------------
# pointwise


def _check_eval_cdf_float(p, out):
    system, pv = _inputs(p)
    xs = float_points(p)
    ref = hl.cdf_values(system, pv, xs)
    for x, (v, err), r in zip(xs, out, ref):
        if not abs(v - r) <= err + CDF_TOL + 1e-15:
            return Failure(f"x={x!r}: {v!r} vs vectorised {r!r} (bound {err:.3g})")
    # the rational points against the exact evaluator at the same float
    exact_sys = affine(p["system"], exact=True)
    exact_p = weights(p["p"], exact=True)
    misses = []
    for x, (v, err) in list(zip(xs, out))[len(p["xs"]):]:
        ref, ref_err = hl.eval_cdf(exact_sys, exact_p, Fraction(x))
        gap = abs(v - float(ref))
        if not gap <= err + ref_err + 1e-13:
            # the defect: bound 0 with an orbit-drift error near 1e-10; a
            # nonzero bound or a larger error is new
            misses.append((f"x={x!r}: {v!r} with bound {err:.3g}, "
                           f"exact {float(ref)!r}", err == 0 and gap <= 1e-8))
    return _judge(misses, "transition.float_orbit_bound")


def _check_eval_cdf_exact(p, out):
    system = affine(p["system"], exact=True)
    pv = weights(p["p"], exact=True)
    xs = [Fraction(a, b) for a, b in p["xs"]]
    for x, (v, err) in zip(xs, out):
        if not isinstance(v, Fraction):
            return Failure(f"x={x}: {type(v).__name__} value in exact mode")
    if p["dyadic"]:
        # under slope 2 the orbit of a dyadic point stays dyadic and exact in
        # floating point too: the value is a dyadic rational, and the float
        # path at the same point agrees within both bounds
        ref = hl.cdf_values(affine("dyadic"), weights(p["p"]),
                            [float(x) for x in xs])
        for x, (v, err), r in zip(xs, out, ref):
            d = v.denominator
            if d & (d - 1) or not err <= CDF_TOL:
                return Failure(f"dyadic x={x}: value {v} with bound {err}")
            if not abs(float(v) - r) <= err + CDF_TOL + 1e-15:
                return Failure(f"dyadic x={x}: exact {v} vs float {r!r}")
        return None
    # other rationals: the exact cdf is the fixed point of
    # h -> sum_i p_i h(f_i(x)), checked in exact arithmetic
    for x, (v, err) in list(zip(xs, out))[:6]:
        rhs, rhs_err = Fraction(0), 0.0
        for k in system.symbols():
            val, e = hl.eval_cdf(system, pv, system.branch(k)(x))
            rhs += pv[k] * val
            rhs_err += float(pv[k]) * e
        if not abs(float(v - rhs)) <= err + rhs_err:
            return Failure(f"x={x}: {float(v)!r} vs averaged images {float(rhs)!r}")
    return None


def _check_encode(p, out):
    system, _ = _inputs(p)
    for x, enc in zip(p["xs"], out):
        if not enc.gap and len(enc.word) != p["depth"]:
            return Failure(f"x={x!r}: word of length {len(enc.word)}")
        lo, hi = hl.cylinder(system, enc.word)
        # deep cylinders shrink below float resolution; allow a few ulps
        slack = 8 * math.ulp(1.0)
        if not lo - slack <= x <= hi + slack:
            return Failure(f"x={x!r} outside the cylinder [{lo!r}, {hi!r}] of its word")
    return None


def _check_eval_derivative_point(p, out):
    system, pv = _inputs(p)
    fd = hl.fd_derivative(system, pv, p["order"], p["xs"])
    tol = FD_TOL[sum(p["order"])]
    for x, (v, err), r in zip(p["xs"], out, fd):
        if not abs(v - r) <= err + tol:
            return Failure(f"x={x!r}: {v!r} vs finite differences {r!r} "
                           f"(bound {err:.3g})")
    return None


def _check_fd_derivative(p, out):
    system, pv = _inputs(p)
    tol = FD_TOL[sum(p["order"])]
    for x, v in zip(p["xs"], out):
        ref, err = hl.eval_derivative_point(system, pv, p["order"], x)
        if not abs(v - ref) <= err + tol:
            return Failure(f"x={x!r}: {v!r} vs pointwise {ref!r} (bound {err:.3g})")
    return None


def _check_derivative_grids(p, grids):
    system, pv = _inputs(p)
    dg = grids[tuple(p["order"])]
    nodes = dg.grid.nodes
    misses = []
    for i in np.linspace(1, nodes.size - 2, 16).astype(int):
        ref, err = hl.eval_derivative_point(system, pv, p["order"],
                                            float(nodes[i]))
        gap = abs(dg.grid.values[i] - ref)
        if not gap <= dg.tail_estimate + err + 1e-10:
            # the interpolation error stays below 0.4 on these grids; one
            # above 5, or not finite, is new
            misses.append((f"node {nodes[i]!r}: error {gap:.3g} vs pointwise "
                           f"exceeds reported bound {dg.tail_estimate:.3g}",
                           gap <= 5.0))
    return _judge(misses, "takagi.derivative_grids_bound")


def _check_phi(p, out):
    system, pv = _inputs(p)
    for x, v in zip(p["xs"], out):
        ref, err = hl.eval_cdf(system, pv, x)
        if not abs(float(v) - ref) <= err + 1e-12 + 1e-14:
            return Failure(f"x={x!r}: phi {float(v)!r} vs cdf {ref!r}")
    return None


def _check_conjugacy_residual(p, residual):
    if not residual <= 1e-8:
        return Failure(f"conjugacy residual {residual:.3g} above 1e-8")
    return None


def _check_cdf_nonaffine(p, values):
    system, pv = bent_system(), weights(p["p"])
    if np.any(np.diff(values) < -CDF_TOL) or values.min() < 0 or values.max() > 1:
        return Failure("values not monotone in [0, 1]")
    # the cdf is the fixed point of h -> sum_i p_i h(f_i(x))
    nodes = np.linspace(p["lo"], p["hi"], p["n"])
    for i in np.linspace(0, p["n"] - 1, 8).astype(int):
        x = float(nodes[i])
        rhs = sum(float(pv[k]) * hl.eval_cdf(system, pv, system.branch(k)(x))[0]
                  for k in system.symbols())
        if not abs(values[i] - rhs) <= 4 * CDF_TOL:
            return Failure(f"x={x!r}: {values[i]!r} vs averaged images {rhs!r}")
    return None


# ---------------------------------------------------------------------------
# spectrum


def _check_pressure_samples(p, rows):
    betas = np.array([r[0] for r in rows])
    t = np.array([r[1] for r in rows])
    tp = np.array([r[2] for r in rows])
    ref_t, ref_tp = affine_pressure_root(p["system"], p["p"], betas)
    if np.any(np.diff(t) >= 0):
        return Failure("t(beta) not decreasing")
    k = int(np.argmax(np.abs(t - ref_t)))
    if not abs(t[k] - ref_t[k]) <= 1e-9:
        return Failure(f"t({betas[k]:.4g}) = {t[k]!r}, closed form {ref_t[k]!r}")
    k = int(np.argmax(np.abs(tp - ref_tp)))
    if not abs(tp[k] - ref_tp[k]) <= 1e-9:
        return Failure(f"t'({betas[k]:.4g}) = {tp[k]!r}, closed form {ref_tp[k]!r}")
    return None


def _check_spectrum(p, points):
    system, pv = _inputs(p)
    (delta,), (tp0,) = affine_pressure_root(p["system"], p["p"], [0.0])
    inner = [pt for pt in points if not pt.empty and not pt.clamped]
    if not inner:
        return Failure("no regular spectrum point")
    a = np.array([pt.alpha for pt in inner])
    g = np.array([pt.g for pt in inner])
    if not np.all(np.isfinite(g)):
        return Failure("non-finite g at a regular spectrum point")
    slopes = np.diff(g) / np.diff(a)
    if np.any(np.diff(slopes) > 1e-6):
        return Failure("spectrum not concave")
    if g.max() > delta + 1e-9:
        return Failure(f"g exceeds the dimension {delta!r}")
    bs = np.array([pt.beta_argmin for pt in inner])
    ref_t, ref_tp = affine_pressure_root(p["system"], p["p"], bs)
    k = int(np.argmax(np.abs(g - (ref_t + bs * a))))
    if not abs(g[k] - (ref_t[k] + bs[k] * a[k])) <= 1e-8:
        return Failure(f"g({a[k]:.4g}) = {g[k]!r} off the Legendre transform")
    top = hl.spectrum_point(hl.PressureCurve(system, pv), -tp0)
    if not abs(top.g - delta) <= 1e-9:
        return Failure(f"g(alpha_zero) = {top.g!r}, dimension {delta!r}")
    return None


def _check_spectrum_experiment(p, rows):
    t, tp = affine_pressure_root(p["system"], p["p"], p["betas"])
    for row, tb, tpb in zip(rows, t, tp):
        if not abs(row["alpha_pred"] + tpb) <= 1e-8:
            return Failure(f"beta {row['beta']:.4g}: alpha_pred "
                           f"{row['alpha_pred']!r} vs {-tpb!r}")
        # beta is the Legendre minimiser at alpha_pred, so g = t + beta*alpha
        if not abs(row["g"] - (tb - row["beta"] * tpb)) <= 1e-8:
            return Failure(f"beta {row['beta']:.4g}: g {row['g']!r} vs "
                           f"{tb - row['beta'] * tpb!r}")
        spread = 4 * row["dyn_sigma"] / math.sqrt(row["count"]) + 0.15
        if not abs(row["dyn_mean"] - row["alpha_pred"]) <= spread:
            return Failure(f"beta {row['beta']:.4g}: dynamical mean "
                           f"{row['dyn_mean']:.4g} far from "
                           f"{row['alpha_pred']:.4g}")
        if p["empirical"] and not math.isfinite(row["emp_mean"]):
            return Failure(f"beta {row['beta']:.4g}: empirical mean not finite")
    return None


def _check_pressure_root_nonaffine(p, roots):
    t0, t1, tb = roots
    # beta = 1: pressure of log p alone is log sum p_i = 0, at t = 0 exactly
    if not abs(t1) <= 1e-9:
        return Failure(f"t(1) = {t1!r}, expected 0")
    # beta = 0: dimension of the full-branch attractor [0, 1]
    if not abs(t0 - 1.0) <= 0.05:
        return Failure(f"t(0) = {t0!r}, expected 1")
    if not tb < t1:
        return Failure(f"t({p['betas'][2]:.4g}) = {tb!r} not below t(1)")
    return None


_CHECK = {name[len("_check_"):]: fn for name, fn in globals().items()
          if name.startswith("_check_")}


def check(job, output) -> Optional[Failure]:
    """None if the job's output is right, else why not."""
    return _CHECK[job.kind](job.params, output)
