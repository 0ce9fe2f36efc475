"""Catalog of closed-form and semi-closed-form exact solutions.

Every builder returns a `hgf.model.Solution`: an immutable record
bundling the evaluator, the coefficient set of the system the family
solves, its validity constraints, wave speed and asymptotic endpoints.
The families (`hgf.cli.FAMILIES` lists them under these keys):

    fisher      scalar traveling front of the logistic equation (u only)
    fam40-*     three-parameter separable families, cases i / ii / iii
    semi35-*    front-shaped v, w with an injected numeric u-profile
    semi50/51   front-shaped u, w with an injected numeric v-profile
    tf63        one-parameter family of three-component fronts
    tf65        fixed-speed front family of the decoupled (a1 = 0) system

Semi-exact families take their numeric profile as an injected dependency
(any vectorized callable); integration policy lives in `hgf.reduction`.
`reconstruct` is the one copy of the ansatz algebra that maps profiles
back to fields: the semi-exact families and `hgf.reduction` both use it.
Evaluators leave broadcasting to the shape of t and x to
`Solution.__call__`, so a -0.0 keeps its sign.
R38's closed solution lives in `SeparableCase.closed` (read by fam40,
`reduction.closed_form_R38` and ``hgf reduce --case``), and `semi_case`
is the one function that checks a semi-exact case and maps it to its
L36/L52 system and its family's parts.
Parameter choices that are mathematically exact but biologically invalid
(negative a2 or a5) construct fine and carry a warning instead of failing,
so residual tests can exercise them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintError, DomainError
from .model import Params, Solution, check_coefficients

SQRT6 = math.sqrt(6.0)
FISHER_SPEED = 5.0 / SQRT6


def _front2(om, q=1.0):
    """(1 - tanh(q omega / (2 sqrt 6)))^2: the squared front shape of the
    logistic front and of every closed profile of the semi families."""
    return (1.0 - np.tanh(q * np.asarray(om) / (2.0 * SQRT6))) ** 2


# ---------------------------------------------------------------------------
# scalar logistic front
# ---------------------------------------------------------------------------

_FISHER_PARAMS = Params(a1=0.0, a2=0.0, a3=0.0, a4=1.0, a5=0.0)


def _fisher_u(t, x):
    return 0.25 * _front2(np.asarray(x, dtype=float)
                          - FISHER_SPEED * np.asarray(t, dtype=float))


def fisher_tf() -> Solution:
    """Front u = (1/4)(1 - tanh(omega/(2 sqrt 6)))^2 at speed 5/sqrt(6).

    Defines the u component only; v and w are left undefined (treated as
    zero wherever kinetics are needed).
    """

    def evaluate(t, x):
        return (_fisher_u(t, x), None, None)

    return Solution(
        evaluate=evaluate,
        params=_FISHER_PARAMS,
        components=("u",),
        speed=FISHER_SPEED,
        endpoint_states=((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        key="fisher",
        meta={"speed": FISHER_SPEED},
    )


def embed_fisher(params: Params | None = None) -> Solution:
    """The logistic front embedded as (u, 0, 0) in the full system.

    Valid for any coefficient set with d1 = 1: both remaining equations are
    annihilated by v = w = 0.
    """
    p = _FISHER_PARAMS if params is None else params
    if p.d1 != 1.0:
        raise ConstraintError("embed_fisher requires d1 = 1")

    def evaluate(t, x):
        return (_fisher_u(t, x), 0.0, 0.0)

    return Solution(
        evaluate=evaluate,
        params=p,
        speed=FISHER_SPEED,
        endpoint_states=((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        key="fisher-embedded",
    )


# ---------------------------------------------------------------------------
# tf63: one-parameter family of three-component fronts
# ---------------------------------------------------------------------------


def tf63_parameter_values(a1: float, delta: float, a3: float, d3: float) -> dict:
    """Derived wave speed and coefficients of the tf63 family.

    Requires delta > 0 and a1*delta < 1/2; the remaining coefficients are
    forced by the front shape:

        alpha = (5 - 4 a1 d) / sqrt(6 - 12 a1 d)
        d2    = (-3 - 5 d + 6 a1 d + 4 a1 d^2) / (d (-3 + 2 a1 d))
        a2    = (3 - 10 d + 6 a1 d + 8 a1 d^2) / (6 d (-3 + 2 a1 d))
        a4    = d3 / 3
        a5    = (5 - d3 + 6 a3 - 4 a1 d + 2 a1 d3 d) / (12 d)

    with d = delta.  A derived value that overflows (finite inputs whose
    products leave the floats) is refused, naming it.
    """
    check_coefficients("tf63", dict(a1=a1, delta=delta, a3=a3, d3=d3),
                       ("a1", "delta", "a3", "d3"))
    if not delta > 0:
        raise ConstraintError("tf63 requires delta > 0 (v would be negative)")
    ad = a1 * delta
    if ad > 0.5:
        raise ConstraintError(
            "tf63 requires a1*delta <= 1/2 (steepness would be complex)"
        )
    if ad == 0.5:
        raise ConstraintError(
            "tf63 requires a1*delta < 1/2 (zero steepness, speed undefined)"
        )
    alpha = (5.0 - 4.0 * ad) / math.sqrt(6.0 - 12.0 * ad)
    den = delta * (-3.0 + 2.0 * ad)  # nonzero: -3 + 2 ad < -2 here
    d2 = (-3.0 - 5.0 * delta + 6.0 * ad + 4.0 * ad * delta) / den
    a2 = (3.0 - 10.0 * delta + 6.0 * ad + 8.0 * ad * delta) / (6.0 * den)
    a4 = d3 / 3.0
    a5 = (5.0 - d3 + 6.0 * a3 - 4.0 * ad + 2.0 * ad * d3) / (12.0 * delta)
    vals = {"alpha": alpha, "d2": d2, "a2": a2, "a4": a4, "a5": a5,
            "mu": math.sqrt(1.0 - 2.0 * ad) / (2.0 * SQRT6)}
    for name, v in vals.items():
        if not math.isfinite(v):
            raise ConstraintError(f"tf63: derived {name} = {v} is not finite")
    return vals


def _tf63_advisory_bounds(a1: float, delta: float, a3: float, d3: float) -> dict:
    """Companion inequalities as printed in the source catalog (advisory).

    The printed a3 bound points the opposite way from what direct
    nonnegativity of a5 requires, and the printed d3 bound excludes
    coefficient sets whose direct checks pass; both are therefore recorded
    but never enforced.
    """
    ad = a1 * delta
    bounds = {
        "a3_upper_printed": (-5.0 + 4.0 * ad + d3 - 2.0 * ad * d3) / 6.0,
        "d3_lower_printed": (5.0 - 4.0 * ad) / (1.0 - 2.0 * ad),
    }
    bounds["a3_ok_printed"] = a3 <= bounds["a3_upper_printed"]
    bounds["d3_ok_printed"] = d3 >= bounds["d3_lower_printed"]
    if delta > 1.0:
        a1_up = 1.0 / (2.0 * delta)
    elif delta >= 0.3:
        a1_up = (-3.0 + 10.0 * delta) / (2.0 * delta * (3.0 + 4.0 * delta))
    else:
        a1_up = None
    bounds["a1_upper_printed"] = a1_up
    bounds["a1_ok_printed"] = None if a1_up is None else a1 <= a1_up
    return bounds


def make_tf63(a1: float, delta: float, a3: float = 1.0,
              d3: float = 3.0) -> Solution:
    """One-parameter front family connecting (1-2*a1*delta, 2*delta, 0)
    to (0, 0, 1).

    The first diffusivity is normalized to 1; d2, a2, a4, a5 and the speed
    are forced by (a1, delta, a3, d3).  d2 is positive wherever it is
    finite (its numerator is below -3 delta and its denominator negative);
    negative a2 or a5 only warns (exactness is unaffected, the biological
    reading is not).
    """
    vals = tf63_parameter_values(a1, delta, a3, d3)
    warnings = [f"derived {k} = {vals[k]} < 0: solution exact, biology "
                f"invalid" for k in ("a2", "a5") if vals[k] < 0]
    advisory = _tf63_advisory_bounds(a1, delta, a3, d3)
    direct_ok = vals["a2"] >= 0 and vals["a5"] >= 0
    printed_ok = bool(advisory["a3_ok_printed"] and advisory["d3_ok_printed"])
    if direct_ok != printed_ok:
        warnings.append(
            "advisory printed bounds disagree with directly evaluated "
            "coefficient signs; direct evaluation is authoritative"
        )
    p = Params(a1=a1, a2=vals["a2"], a3=a3, a4=vals["a4"], a5=vals["a5"],
               d1=1.0, d2=vals["d2"], d3=d3)
    alpha, mu = vals["alpha"], vals["mu"]
    amp = 0.25 * (1.0 - 2.0 * a1 * delta)
    # the template U = s1 phi^k1, V = s2 phi^k2, W = 1 - s3 phi^k3 with
    # phi = 1 - tanh(mu omega); its endpoints (U0, V0, 0) and (0, 0, 1)
    # force 1 - 2^k1 s1 - a1 2^k2 s2 = 0 and 1 - 2^k3 s3 = 0
    shape = dict(sigma1=amp, sigma2=delta, sigma3=0.5, k1=2.0, k2=1.0,
                 k3=1.0, mu=mu)

    def evaluate(t, x):
        om = np.asarray(x, dtype=float) - alpha * np.asarray(t, dtype=float)
        T = np.tanh(mu * om)
        u = amp * (1.0 - T) ** 2
        v = delta - delta * T
        w = 0.5 + 0.5 * T
        return (u, v, w)

    left = (1.0 - 2.0 * a1 * delta, 2.0 * delta, 0.0)
    return Solution(
        evaluate=evaluate,
        params=p,
        speed=alpha,
        endpoint_states=(left, (0.0, 0.0, 1.0)),
        warnings=tuple(warnings),
        key="tf63",
        meta={"a1": a1, "delta": delta, "a3": a3, "d3": d3, **vals,
              "advisory_bounds": advisory, "tanh_shape": shape},
    )


# ---------------------------------------------------------------------------
# tf65: fixed-speed front of the decoupled system
# ---------------------------------------------------------------------------


def make_tf65(d: float) -> Solution:
    """Front family of the a1 = 0 system

        u_t = u_xx + u(1-u)
        v_t = (1/2) v_xx + v(1-u) + u w
        w_t = d w_xx + ((5-d)/6) w(1-w) - (5/3) u w

    at the fixed speed 5/sqrt(6), connecting (1, 8(3d-5)/(3(d-5)), 0) to
    the origin.  Admissible for 0 < d <= 5/3; d = 5/3 collapses v and w to
    zero and leaves the scalar logistic front.
    """
    check_coefficients("tf65", dict(d=d), ("d",))
    if not (0.0 < d <= 5.0 / 3.0):
        raise ConstraintError("tf65 requires 0 < d <= 5/3")
    amp = (3.0 * d - 5.0) / (3.0 * (d - 5.0))
    p = Params(a1=0.0, a2=1.0, a3=(5.0 - d) / 6.0, a4=5.0 / 3.0, a5=0.0,
               d1=1.0, d2=0.5, d3=d)
    mu = 1.0 / (2.0 * SQRT6)
    alpha = FISHER_SPEED

    def evaluate(t, x):
        om = np.asarray(x, dtype=float) - alpha * np.asarray(t, dtype=float)
        T = np.tanh(mu * om)
        ph = 1.0 - T
        u = 0.25 * ph**2
        v = amp * ph**3
        w = 1.5 * amp * (1.0 - T**2)
        return (u, v, w)

    return Solution(
        evaluate=evaluate,
        params=p,
        speed=alpha,
        endpoint_states=((1.0, 8.0 * amp, 0.0), (0.0, 0.0, 0.0)),
        key="tf65",
        meta={"d": d, "v_amplitude": amp},
    )


# ---------------------------------------------------------------------------
# fam40: separable three-parameter families (cases i / ii / iii)
# ---------------------------------------------------------------------------


def fam40_restrictions(a1: float, a4: float) -> dict:
    """Positivity restrictions of the case-(i) family.

    Components stay nonnegative on x in (0, inf), t >= 0 when beta takes
    the balanced value sqrt((1-a4)/(a1(1+a1 a4))), a4 < 1, delta1 > 1 and
    delta2 < (1+a1)/(1+a1 a4).
    """
    if a1 <= 0 or not a4 < 1:
        raise ConstraintError(
            "positivity restrictions need a1 > 0 and a4 < 1"
        )
    return {
        "beta": math.sqrt((1.0 - a4) / (a1 * (1.0 + a1 * a4))),
        "delta1_min": 1.0,
        "delta2_max": (1.0 + a1) / (1.0 + a1 * a4),
    }


@dataclass(frozen=True)
class SeparableCase:
    """Resolved wiring of one separable case: the fam40 families and the
    closed solutions of R38 (`closed`) both read it.

    Both carry the shared denominator D = 1 - delta1 + delta1 e^(r t),
    the u-amplitude delta2 e^(growth t) D^(-kappa), V = cV g with
    g = delta1 e^(r t) / D, and W = cW g in case i, cW / D otherwise.
    """

    case: str
    a3: float
    a4: float
    r: float
    kappa: float
    growth: float
    delta1: float
    delta2: float
    cV: float
    cW: float

    def closed(self, t, decay=0.0):
        """R38's closed (U e^(-decay), V, W) at the times t, broadcast
        against `decay` (fam40 passes beta a1 x).  D > 0 fails only for
        t < 0 with delta1 > 1; the error names the critical time."""
        t = np.asarray(t, dtype=float)
        m = (1.0 - self.delta1) * np.exp(-self.r * t) + self.delta1
        if np.any(m <= 0):  # m = e^(-r t) D
            tcrit = math.log((self.delta1 - 1.0) / self.delta1) / self.r
            raise DomainError(
                f"denominator 1 - delta1 + delta1*e^(r t) vanishes at "
                f"t = {tcrit}; requested times must stay above it"
            )
        logD = self.r * t + np.log(m)
        U = self.delta2 * np.exp(self.growth * t - decay - self.kappa * logD)
        g = self.delta1 / m
        W = self.cW * g if self.case == "i" else self.cW * np.exp(-logD)
        return (U, self.cV * g, W + np.zeros_like(U))


def _forced_a4(label: str, a4: float | None, a4_fixed: float,
               rule: str) -> float:
    """The a4 a case forces; a given a4 must match it to roundoff."""
    if a4 is not None and abs(a4 - a4_fixed) > 1e-12 * max(1.0, abs(a4_fixed)):
        raise ConstraintError(
            f"{label} forces a4 = {rule} = {a4_fixed}, got {a4}")
    return a4_fixed


def _q1_case(label: str, case: str, a1: float, a3: float | None,
             a4: float | None) -> tuple[float, float]:
    """(a3, a4) of case i, ii or iii of the Q1 reductions (R38, fam40,
    semi35): i fixes a3 = 1 and ii a3 = 0, both need a4; iii needs
    a3 != 0 and forces a4 = 1 + a1 + a3.  A given a3 or a4 that the case
    fixes must equal the fixed value; `label` names the case in errors."""
    if case == "iii":
        if a3 is None or a3 == 0.0:
            raise ConstraintError(f"{label} needs a3 != 0")
        return float(a3), _forced_a4(label, a4, 1.0 + a1 + a3,
                                     "1 + a1 + a3")
    a3_fixed = 1.0 if case == "i" else 0.0
    if a3 is not None and a3 != a3_fixed:
        raise ConstraintError(f"{label} fixes a3 = {a3_fixed:g}, got {a3}")
    if a4 is None:
        raise ConstraintError(f"{label} needs a4")
    return a3_fixed, float(a4)


def separable_case(case: str, a1: float, beta: float, delta1: float,
                   delta2: float, a4: float | None = None,
                   a3: float | None = None) -> SeparableCase:
    """Check and resolve the case wiring: (i) a3 = 1, (ii) a3 = 0 with
    a4 != 0, (iii) a4 = 1 + a1 + a3 with a3 != 0.  A given a3 or a4 that
    the case fixes must equal the fixed value (`_q1_case`).  Every case
    divides by a1, case ii by a4 too."""
    check_coefficients(f"case {case}", dict(a1=a1, beta=beta, delta1=delta1,
                                            delta2=delta2, a4=a4, a3=a3),
                       divisors=("a1", "a4") if case == "ii" else ("a1",))
    if not (delta1 > 0 and delta2 > 0):
        raise ConstraintError("separable cases need delta1 > 0 and delta2 > 0")
    if case not in ("i", "ii", "iii"):
        raise ConstraintError(
            f"unknown separable case {case!r} (expected i, ii or iii)")
    a3, a4 = _q1_case(f"case {case}", case, a1, a3, a4)
    if case == "i":
        r, kappa = 1.0, (1.0 + a1) / (1.0 + a1 * a4)
        cV = (1.0 + a1) / (a1 * (1.0 + a1 * a4))
        cW = (1.0 - a4) / (1.0 + a1 * a4)
    elif case == "ii":
        r, kappa = a4, 1.0 / a4
        cV, cW = 1.0 / a1, (1.0 - a4) * (delta1 - 1.0) / a1
    else:
        r, kappa = 1.0 + a1, 1.0 / (1.0 + a1)
        cV, cW = 1.0 / a1, 1.0 - delta1
    return SeparableCase(case=case, a3=a3, a4=a4, r=r, kappa=kappa,
                         growth=1.0 + beta * beta * a1 * a1, delta1=delta1,
                         delta2=delta2, cV=cV, cW=cW)


def make_fam40(case: str, a1: float, a4: float | None, beta: float,
               delta1: float, delta2: float, a3: float | None = None,
               d3: float = 1.0) -> Solution:
    """Separable family u = e^(-beta a1 x) * U(t), v = V(t) - u/a1, w = W(t),
    with (U, V, W) the closed solution of R38 (`SeparableCase.closed`).

    Case wiring and checks: `separable_case`.  The w-diffusivity d3 is
    free because w depends on t only.  The evaluator fails with the
    critical time when the shared denominator is not positive.
    """
    sc = separable_case(case, a1, beta, delta1, delta2, a4=a4, a3=a3)
    p = Params(a1=a1, a2=1.0, a3=sc.a3, a4=sc.a4, a5=a1 * sc.a4,
               d1=1.0, d2=1.0, d3=d3)
    ba1 = beta * a1

    def evaluate(t, x):
        u, V, w = sc.closed(t, ba1 * np.asarray(x, dtype=float))
        return (u, V - u / a1, w)

    t_limit = None
    if case == "i":
        u_amp = delta2 * delta1**-sc.kappa

        def t_limit(x):
            decay = np.exp(-ba1 * np.asarray(x, dtype=float))
            u = u_amp * decay
            return (u, sc.cV - (u_amp / a1) * decay, sc.cW + np.zeros_like(u))

    return Solution(
        evaluate=evaluate,
        params=p,
        t_limit=t_limit,
        key=f"fam40-{case}",
        meta={"case": case, "a1": a1, "a4": sc.a4, "a3": sc.a3,
              "beta": beta, "delta1": delta1, "delta2": delta2,
              "growth_exponent": sc.growth, "kappa": sc.kappa},
    )


# ---------------------------------------------------------------------------
# ansatz reconstruction: profiles -> PDE fields
# ---------------------------------------------------------------------------

# each ansatz's coefficients; one that takes alpha has profiles of x - alpha t
ANSATZ_COEFFS = {
    "A34": ("alpha", "beta", "a1"),
    "A37": ("beta", "a1"),
    "A44": ("alpha", "beta", "gamma"),
    "plane": ("alpha",),
    "T2a": ("alpha", "beta", "gamma", "a1", "a4"),
    "T2b": ("alpha", "gamma", "a1", "a4"),
    "T2c": ("beta", "gamma", "a1", "a4"),
    "T2d": ("gamma", "a1", "a4"),
}


@dataclass(frozen=True)
class Ansatz:
    """Algebraic reconstruction rule from profiles to PDE fields."""

    aid: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    a1: float = 0.0
    a4: float = 0.0

    @property
    def omega_based(self) -> bool:
        return "alpha" in ANSATZ_COEFFS[self.aid]


def make_ansatz(aid: str, **kw) -> Ansatz:
    """Ansatz `aid` with the coefficients `ANSATZ_COEFFS` names; every
    ansatz that reads a1 divides by it."""
    if aid not in ANSATZ_COEFFS:
        raise ConstraintError(f"unknown ansatz id {aid!r}")
    check_coefficients(aid, kw, ANSATZ_COEFFS[aid], divisors=("a1",))
    if aid == "T2a" and 1.0 + kw["beta"] * kw["a1"] == 0.0:
        raise ConstraintError("T2a requires 1 + beta*a1 != 0 (use T2b)")
    if aid == "T2c" and kw["beta"] == 0.0:
        raise ConstraintError("T2c requires beta != 0 (use T2d)")
    return Ansatz(aid=aid, **kw)


def reconstruct(ansatz: Ansatz, profiles, t, x):
    """Compose profiles through the ansatz at (t, x); exact algebra only.

    The profiles read omega = x - alpha t for an ansatz that takes alpha,
    t otherwise; a missing profile reads 0.0.  The entries need not have
    the broadcast shape of t and x: `Solution.__call__` broadcasts them.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    a = ansatz
    arg = x - a.alpha * t if a.omega_based else t
    U, V, W = (0.0 if f is None else f(arg) for f in map(profiles.get, "UVW"))
    if a.aid == "plane":
        return (U, V, W)
    if a.aid == "A44":
        shift = a.beta * t + a.gamma * np.exp(t)
        return (U, V + shift * U - a.gamma * np.exp(t), W)
    # the Q1-type ansaetze: each builds u, and all share v = V - u/a1, w = W
    if a.aid in ("A34", "A37"):
        u = np.exp(-a.beta * a.a1 * (t if a.aid == "A34" else x)) * U
    else:
        s = (a.a4 - 1.0) * V + W + (1.0 - a.a4) / a.a1
        if a.aid == "T2a":
            u = np.exp(-a.beta * a.a1 * t) * U \
                + a.gamma * np.exp(t) / (1.0 + a.beta * a.a1) * s
        elif a.aid == "T2b":
            u = np.exp(t) * (U + a.gamma * s * t)
        elif a.aid == "T2c":
            u = np.exp(-a.beta * a.a1 * x) * U \
                + a.gamma * np.exp(t) / (a.beta * a.a1) * s
        else:
            u = U + a.gamma * np.exp(t) * s * x
    return (u, V - u / a.a1, W)


def ansatz_solution(ansatz: Ansatz, profiles, params: Params, key: str = "",
                    speed: float | None = None,
                    meta: dict | None = None) -> Solution:
    """Wrap an ansatz + profiles as a full (t, x) sampler."""

    def evaluate(t, x):
        return reconstruct(ansatz, profiles, t, x)

    return Solution(evaluate=evaluate, params=params, speed=speed, key=key,
                    meta={"ansatz": ansatz.aid} if meta is None else meta)


# ---------------------------------------------------------------------------
# semi-exact families: closed tanh parts plus one injected numeric profile
# ---------------------------------------------------------------------------


def semi_case(case: str, *, a1: float | None = None,
              a4: float | None = None, a3: float | None = None,
              beta: float = 0.0, gamma: float | None = None) -> dict:
    """One semi-exact case, resolved: its free profile ("free") solves the
    linear equation "system" (an `hgf.reduction` id) with the coefficients
    "coeffs", and the family composes it with the "closed" profiles
    through the ansatz "aid" (coefficients "ansatz") and solves "params".
    35-* (Q1): free U of L36, ansatz A34, a1 given and != 0, the a3/a4
    rules of `_q1_case` (35-ii also needs a4 > 0, 35-iii 1 + a1 > 0),
    closed V, W of phi^2 = `_front2`(omega, kappa2).  50/51 fix a1 = 0:
    free V of L52, ansatz A44, the logistic U and a closed W of
    phi^2 = `_front2`(omega): 50 fixes a3 = 1, needs a4 and has
    W = (1 - a4) phi^2 / 4; 51 needs a3, forces a4 = 1 + a3 and has
    W = 1 - phi^2 / 4.  Only 50/51 read gamma, 0 if not given."""
    q1 = case in ("35-i", "35-ii", "35-iii")
    if q1 and gamma is not None:
        raise ConstraintError(f"semi{case} does not take gamma "
                              f"(only semi50 and semi51 read it)")
    check_coefficients(f"semi{case}", dict(a1=a1, a4=a4, a3=a3, beta=beta,
                                           gamma=gamma),
                       divisors=("a1",) if q1 else ())
    if q1:
        if a1 is None:
            raise ConstraintError(f"semi{case} needs a1")
        a3, a4 = _q1_case(f"semi{case}", case[3:], a1, a3, a4)
        if case == "35-i":
            q = 1.0 + a1 * a4
            kappa1, kappa2 = (1.0 + a1) / (4.0 * q), 1.0
            cV, cW = (1.0 + a1) / (4.0 * a1 * q), (1.0 - a4) / (4.0 * q)
            v_of, w_of = (lambda f: cV * f), (lambda f: cW * f)
        elif case == "35-ii":
            if a4 <= 0:
                raise ConstraintError("semi35-ii needs a4 > 0")
            kappa1, kappa2 = 0.25, math.sqrt(a4)
            v_of, w_of = ((lambda f: f / (4.0 * a1)),
                          (lambda f: (1.0 - a4) / (4.0 * a1) * (f - 4.0)))
        else:
            if 1.0 + a1 <= 0:
                raise ConstraintError("semi35-iii needs 1 + a1 > 0")
            kappa1, kappa2 = 0.25, math.sqrt(1.0 + a1)
            v_of, w_of = (lambda f: f / (4.0 * a1)), (lambda f: 1.0 - 0.25 * f)
        alpha = FISHER_SPEED * kappa2
        return {"system": "L36", "free": "U",
                "coeffs": dict(alpha=alpha, a1=a1, beta=beta,
                               kappa1=kappa1, kappa2=kappa2),
                "closed": {"V": lambda om: v_of(_front2(om, kappa2)),
                           "W": lambda om: w_of(_front2(om, kappa2))},
                "aid": "A34", "ansatz": dict(alpha=alpha, beta=beta, a1=a1),
                "params": Params(a1=a1, a2=1.0, a3=a3, a4=a4, a5=a1 * a4,
                                 d1=1.0, d2=1.0, d3=1.0),
                "meta": {"case": case, "a1": a1, "a4": a4, "a3": a3,
                         "beta": beta, "alpha": alpha, "kappa1": kappa1,
                         "kappa2": kappa2}}
    if case not in ("50", "51"):
        raise ConstraintError(f"unknown semi-exact case {case!r}")
    if a1 is not None and a1 != 0.0:
        raise ConstraintError(f"semi{case} fixes a1 = 0, got {a1}")
    gamma = 0.0 if gamma is None else gamma
    if case == "50":
        if a3 is not None and a3 != 1.0:
            raise ConstraintError(f"semi50 fixes a3 = 1, got {a3}")
        if a4 is None:
            raise ConstraintError("semi50 needs a4")
        a3, a4 = 1.0, float(a4)
        W = lambda om: 0.25 * (1.0 - a4) * _front2(om)
        coeffs = dict(beta=beta, case=case, a4=a4)
    else:
        if a3 is None:
            raise ConstraintError("semi51 needs a3")
        a3 = float(a3)
        a4 = _forced_a4("semi51", a4, 1.0 + a3, "1 + a3")
        W = lambda om: 1.0 - 0.25 * _front2(om)
        coeffs = dict(beta=beta, case=case)
    return {"system": "L52", "free": "V", "coeffs": coeffs,
            "closed": {"U": lambda om: 0.25 * _front2(om), "W": W},
            "aid": "A44",
            "ansatz": dict(alpha=FISHER_SPEED, beta=beta, gamma=gamma),
            "params": Params(a1=0.0, a2=1.0, a3=a3, a4=a4, a5=0.0, d1=1.0,
                             d2=1.0, d3=1.0),
            "meta": {"case": case, "a3": a3, "a4": a4, "beta": beta,
                     "gamma": gamma, "alpha": FISHER_SPEED}}


def make_semi_exact(case: str, profile: Callable, *, a1: float | None = None,
                    a4: float | None = None, a3: float | None = None,
                    beta: float = 0.0, gamma: float | None = None) -> Solution:
    """Assemble a semi-exact family from closed tanh parts and a numeric
    profile (`semi_case`: ansatz A34 for cases 35-*, A44 for 50/51).

    For the 35-cases `profile` is the u-profile U(omega) of the linear
    equation L36; for cases 50/51 it is the v-profile V(omega) of L52.
    The profile is injected, not solved here: integrate it with
    `hgf.reduction` (see `reduction.semi_exact_family` for the checked
    one-call builder).  Its `domain`, if it has one, is the one window of
    the family: an L52 profile that is identically zero there ((-30, 30)
    for a plain callable) while the forcing is not gets rejected.
    """
    sc = semi_case(case, a1=a1, a4=a4, a3=a3, beta=beta, gamma=gamma)
    ansatz = make_ansatz(sc["aid"], **sc["ansatz"])
    closed = sc["closed"]
    if sc["system"] == "L52":
        # a zero v-profile solves the linear equation only when the
        # forcing U (W - beta) vanishes identically
        probe = np.linspace(*getattr(profile, "domain", (-30.0, 30.0)), 601)
        pv = np.asarray(profile(probe), dtype=float)
        if np.max(np.abs(pv)) == 0.0:
            forcing = closed["U"](probe) * (closed["W"](probe) - beta)
            if np.max(np.abs(forcing)) > 1e-12:
                raise ConstraintError(
                    "zero v-profile demanded but the linear equation's "
                    "forcing U*(W - beta) is nonzero"
                )
    return ansatz_solution(ansatz, {**closed, sc["free"]: profile},
                           sc["params"], key=f"semi{case}",
                           speed=ansatz.alpha, meta=sc["meta"])
