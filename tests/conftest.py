import decimal
import math

import numpy as np
import pytest

from holderlab import Branch, IFSystem, ProbVector, affine_system, validated

acceptance_lines = []


@pytest.fixture
def report_line():
    """Collect one verdict line per acceptance check for the final summary."""
    def _add(line):
        print(line)
        acceptance_lines.append(line)
    return _add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def dyadic():
    """Two full branches of slope 2 on (0, 1)."""
    return affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))


def bent_system():
    """A quadratic left branch 2.5x - 0.5x^2 (slope 1.5 to 2.5 on its
    window) and the affine 2x - 1, both as callables, so the walks call the
    maps on arrays and the pressure takes the cylinder sandwich.  Module
    level tables call this function; tests take the `bent` fixture."""
    return validated(IFSystem(branches=(
        Branch.custom(fn=lambda x: 2.5 * x - 0.5 * x * x,
                      dfn=lambda x: 2.5 - x,
                      inv=lambda y: 2.5 - math.sqrt(6.25 - 2.0 * y)),
        Branch.custom(fn=lambda x: 2.0 * x - 1.0, dfn=lambda x: 2.0,
                      inv=lambda y: (y + 1.0) / 2.0)),
        open_set=(0.0, 1.0), expansion=1.5))


def legendre_value(system, q):
    """The Legendre value at the Gibbs weights q of an affine system: their
    entropy over their Lyapunov exponent, -sum q log q / sum q log a, with
    0 log 0 = 0 and a zero written as +0.0."""
    q = np.asarray(q, dtype=float)
    log_q = np.array([math.log(w) if w > 0 else 0.0 for w in q.tolist()])
    log_a = np.array([math.log(float(br.slope)) for br in system.branches])
    return float(-(q * log_q).sum() / (q * log_a).sum() + 0.0)


def legendre_reference(system, p, beta, digits=50):
    """(t - beta t', |t| + |beta t'|) at the pressure root t(beta) of an
    affine system, as floats, from t and t' solved in `decimal` at this
    many digits: the logs of the float weights and slopes the library reads
    (`as_floats()` and `float(slope)`), Newton on sum exp(beta log p_i -
    t log a_i) = 1 from the left end of the root's bracket, where every
    term is at least 1, and t' = <log p>_q / <log a>_q at the Gibbs weights
    q.  The reference carries no double's rounding, so a bound of a few
    eps of the scale covers a computed t - beta t'."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        lw = [decimal.Decimal(w).ln() for w in p.as_floats().weights]
        ls = [decimal.Decimal(float(br.slope)).ln() for br in system.branches]
        b = decimal.Decimal(beta)
        t = min(b * w / s for w, s in zip(lw, ls))
        tiny = decimal.Decimal(10) ** (10 - digits)
        for _ in range(10_000):
            q = [(b * w - t * s).exp() for w, s in zip(lw, ls)]
            step = (sum(q) - 1) / sum(s * e for s, e in zip(ls, q))
            t += step
            if abs(step) <= tiny * (1 + abs(t)):
                break
        else:
            raise AssertionError(f"no pressure root at beta {beta}")
        q = [(b * w - t * s).exp() for w, s in zip(lw, ls)]
        tp = sum(e * w for e, w in zip(q, lw)) \
            / sum(e * s for e, s in zip(q, ls))
        return float(t - b * tp), float(abs(t) + abs(b * tp))


@pytest.fixture
def bent():
    return bent_system()


@pytest.fixture
def cantor():
    """Separating middle-third system: 3x and 3x - 2 on (0, 1)."""
    return affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0))


@pytest.fixture
def quarter():
    return ProbVector.of(0.25)


@pytest.fixture
def half():
    return ProbVector.of(0.5)
