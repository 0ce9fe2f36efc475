import dataclasses
import functools
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hgf import calculus, model, reduction, solutions, symmetry
from hgf.errors import ConstraintError
from hgf.model import OriginalParams, Params


def test_rescale_zero_conversion_case():
    orig = OriginalParams(d_f=1, d_c=1, d_h=1, r_f=1, r_c=0, r_h=0,
                          K=1, L=1, e1=1, e2=0)
    p = model.rescale_params(orig)
    assert (p.a1, p.a2, p.a3, p.a4, p.a5) == (0, 0, 0, 1, 0)
    assert p.diffusivities == (1, 1, 1)


def test_rescale_derived_values():
    orig = OriginalParams(d_f=1, d_c=2, d_h=3, r_f=2, r_c=1, r_h=2,
                          K=4, L=3, e1=0.5, e2=1)
    p = model.rescale_params(orig)
    assert p == Params(a1=1.5, a2=0.5, a3=1.0, a4=2.0, a5=3.0,
                       d1=1, d2=2, d3=3)


def test_rescale_image_satisfies_a5_identity(rng):
    # a5 = a1 * a4 holds identically for every coefficient set reachable
    # from dimensional parameters
    for _ in range(20):
        orig = OriginalParams(
            d_f=rng.uniform(0.1, 3), d_c=rng.uniform(0.1, 3),
            d_h=rng.uniform(0.1, 3), r_f=rng.uniform(0.1, 3),
            r_c=rng.uniform(0, 2), r_h=rng.uniform(0, 2),
            K=rng.uniform(0.1, 4), L=rng.uniform(0.1, 4),
            e1=rng.uniform(0.1, 2), e2=rng.uniform(0, 2))
        p = model.rescale_params(orig)
        assert p.a5 == pytest.approx(p.a1 * p.a4, rel=1e-12)


def test_zero_K_rejected():
    with pytest.raises(ConstraintError, match="K"):
        OriginalParams(d_f=1, d_c=1, d_h=1, r_f=1, r_c=0, r_h=0,
                       K=0, L=1, e1=1, e2=0)


@pytest.mark.parametrize("name", ["e2", "r_c", "r_h"])
def test_original_params_rejects_negative_rates(name):
    kw = dict(d_f=1, d_c=1, d_h=1, r_f=1, r_c=0, r_h=0, K=1, L=1, e1=1,
              e2=0)
    kw[name] = -0.5
    with pytest.raises(ConstraintError,
                       match=f"^OriginalParams requires {name} >= 0 "
                             f"\\(got {name} = -0\\.5\\)$"):
        OriginalParams(**kw)


def test_params_validation():
    with pytest.raises(ConstraintError, match="a4"):
        Params(a1=1, a2=1, a3=1, a4=0, a5=1)
    with pytest.raises(ConstraintError, match="d2"):
        Params(a1=1, a2=1, a3=1, a4=1, a5=1, d2=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4", "a5", "d1", "d2",
                                  "d3"])
def test_params_rejects_non_finite(name, bad):
    kw = dict(a1=1.0, a2=1.0, a3=1.0, a4=1.0, a5=1.0)
    kw[name] = bad
    message = f"Params coefficient {name} must be finite, got {bad!r}"
    with pytest.raises(ConstraintError, match=f"^{re.escape(message)}$"):
        Params(**kw)


# a valid value of every coefficient name the records below read
_SAMPLE = dict(alpha=1.2, beta=0.3, gamma=0.1, a1=0.5, a2=2.0, a3=1.0,
               a4=0.7, a5=0.35, d=1.0, d1=1.0, d2=1.5, d3=2.0, kappa1=0.3,
               kappa2=1.0, a=0.7, b=0.4, mu=1.0)


# a valid value of every coefficient of each semi-exact case
_SEMI_CASES = {"35-i": dict(a1=0.5, a4=0.5, beta=0.3),
               "35-ii": dict(a1=0.5, a4=0.81, beta=0.3),
               "35-iii": dict(a1=0.5, a3=0.7, beta=0.3),
               "50": dict(a4=0.5, beta=0.3, gamma=0.1),
               "51": dict(a3=0.7, beta=0.3, gamma=0.1)}


def _semi_profile(profile_lo, profile_hi, profile_step, anchor, y0, dy0):
    """`semi_exact_family`'s profile inputs under their flag names."""
    return reduction.semi_exact_family(
        "35-i", **_SEMI_CASES["35-i"], window=(profile_lo, profile_hi),
        step=profile_step, y0=(y0, dy0), anchor=anchor)


def _coefficient_records():
    """(label, build, base, reads, divisors, unread) of every record that
    `check_coefficients` guards, generated from the record tables: build
    (**base) makes the record, `reads` is the name tuple its messages
    list (None: it takes any subset of its keywords), and `unread` is a
    coefficient it does not read (None: its constructor takes no other
    keyword)."""
    for sid, spec in reduction.SYSTEMS.items():
        base = {n: _SAMPLE.get(n) for n in spec.arguments}
        if spec.takes_params:
            base["params"] = Params(0.5, 2.0, 1.0, 0.7, 0.35, d2=1.5)
        if "case" in base:
            base["case"] = "50"
        yield pytest.param(
            sid, functools.partial(reduction.reduced_system, sid), base,
            spec.arguments, spec.divisors, "a5", id=f"system-{sid}")
    for aid, names in solutions.ANSATZ_COEFFS.items():
        # every ansatz that reads a1 divides by it
        yield pytest.param(
            aid, functools.partial(solutions.make_ansatz, aid),
            {n: _SAMPLE[n] for n in names}, names, ("a1",), "a5",
            id=f"ansatz-{aid}")
    fields = ("a1", "a2", "a4", "d2")
    for kind in symmetry.OP_KINDS:
        names = symmetry.OP_COEFFS.get(kind, ())
        yield pytest.param(
            kind, functools.partial(symmetry.SymmetryOp, kind),
            {n: _SAMPLE[n] for n in names}, names,
            symmetry.OP_DIVISORS.get(kind, ()),
            next(n for n in fields if n not in names), id=f"op-{kind}")
    for kind, names in symmetry.HeatProfile.COEFFS.items():
        yield pytest.param(
            f"heat kind {kind}", functools.partial(symmetry.HeatProfile, kind),
            {n: _SAMPLE[n] for n in names}, names, (),
            next((n for n in ("a", "b", "mu") if n not in names), None),
            id=f"heat-{kind}")
    yield pytest.param("Params", Params,
                       {n: _SAMPLE[n] for n in model.PARAM_NAMES},
                       model.PARAM_NAMES, (), None, id="Params")
    names = tuple(f.name for f in dataclasses.fields(OriginalParams))
    yield pytest.param("OriginalParams", OriginalParams,
                       dict.fromkeys(names, 1.5), names, (), None,
                       id="OriginalParams")
    tf63 = dict(a1=0.1, delta=0.35, a3=1.0, d3=3.0)
    for build in (solutions.tf63_parameter_values, solutions.make_tf63):
        yield pytest.param("tf63", build, tf63, tuple(tf63), (), None,
                           id=build.__name__)
    yield pytest.param("tf65", solutions.make_tf65, dict(d=1.0), ("d",), (),
                       None, id="make_tf65")
    for case, base in _SEMI_CASES.items():
        yield pytest.param(
            f"semi{case}", functools.partial(solutions.semi_case, case),
            base, None, ("a1",) if "a1" in base else (), None,
            id=f"semi_case-{case}")
    yield pytest.param(
        "semi35-i", _semi_profile,
        dict(profile_lo=-3.0, profile_hi=3.0, profile_step=0.05,
             anchor=-3.0, y0=1.0, dy0=0.0), None, (), None,
        id="semi_exact_family-profile")


@pytest.mark.parametrize("label,build,base,reads,divisors,unread",
                         list(_coefficient_records()))
def test_every_record_follows_the_coefficient_rule(label, build, base, reads,
                                                   divisors, unread):
    # one rule, one message each: a coefficient is a finite real, a
    # divisor is not zero, and the names are exactly those the record
    # reads (None means not given)
    def refused(message, **kw):
        with pytest.raises(ConstraintError,
                           match=f"^{re.escape(message)}$"):
            build(**{**base, **kw})

    build(**base)
    for name, value in base.items():
        if not isinstance(value, float):
            continue  # R58's Params record, L52's case label
        # a bool is not a number, though Python counts it an int
        for bad in (math.nan, math.inf, -math.inf, str(value), True):
            refused(f"{label} coefficient {name} must be finite, got "
                    f"{bad!r}", **{name: bad})
        if name in divisors:
            refused(f"{label} divides by {name}, which must not be zero",
                    **{name: 0.0})
        if reads is not None:
            refused(f"{label} expects coefficients {reads}; missing "
                    f"[{name!r}], unexpected []", **{name: None})
    if unread is None:
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build(**base, zeta=1.0)
    else:
        refused(f"{label} expects coefficients {reads}; missing [], "
                f"unexpected [{unread!r}]", **{unread: 0.5})


def test_with_unit_d1():
    p = Params(0.5, 1, 1, 1, 0.5, d1=2.0, d2=4.0, d3=1.0)
    q = p.with_unit_d1()
    assert (q.d1, q.d2, q.d3) == (1.0, 2.0, 0.5)
    assert q.a_coefficients == p.a_coefficients


def test_kinetics_steady_001(rng):
    for _ in range(5):
        p = Params(*rng.uniform(0.1, 2, 5))
        assert p.reaction(0.0, 0.0, 1.0) == (0.0, 0.0, 0.0)


def test_kinetics_coexistence_line(rng):
    # (1 - 2 a1 d, 2 d, 0) lies on u + a1 v = 1 for any d
    for _ in range(20):
        p = Params(*rng.uniform(0.05, 2, 5))
        d = rng.uniform(-2, 2)
        rates = p.reaction(1 - 2 * p.a1 * d, 2 * d, 0.0)
        assert max(abs(r) for r in rates) <= 1e-14


def test_kinetics_hand_value():
    p = Params(1, 1, 1, 1, 1)
    assert p.reaction(0.5, 0.5, 0.5) == (0.0, 0.5, -0.25)


def _scan_zeros(p, spacing=0.25, lo=-1.5, hi=1.5):
    grid = np.arange(lo, hi + spacing / 2, spacing)
    zeros = []
    for u in grid:
        for v in grid:
            for w in grid:
                c = p.reaction(u, v, w)
                if max(abs(x) for x in c) < model.STEADY_TOL:
                    zeros.append((u, v, w))
    return zeros, spacing


# a5 = -a2*a3 + 1e-6: the u = 0 point (0, v, v - 1), v near 2e6, solves
# its linear system, but its kinetics at v ~ 2e6 miss STEADY_TOL
NEAR_SINGULAR = Params(1.0, 1.0, 1.0, 1.0, -0.999999)


def _readme_rates():
    """The kinetics as README.md writes them, parsed by sympy: (C1, C2,
    C3) and the symbols u, v, w.  An oracle that shares no code with
    `model.kinetics` or `model.inert_components`."""
    import sympy as sp
    from sympy.parsing.sympy_parser import (implicit_multiplication,
                                            parse_expr,
                                            standard_transformations)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rates = [parse_expr(re.search(rf"^ *{c}_t = d\d {c}_xx \+ (.*)$",
                                  readme, re.M).group(1),
                        transformations=(*standard_transformations,
                                         implicit_multiplication))
             for c in "uvw"]
    return rates, sp.symbols("u v w")


def test_inert_components_are_the_zero_sets_the_kinetics_keep():
    # for each set of zero components, the rule returns the largest
    # subset whose own rates vanish identically once it is zero, whatever
    # the other components hold (such subsets are closed under union)
    rates, uvw = _readme_rates()
    assert len(rates[0].free_symbols) > 1

    def kept(subset):
        zero = {uvw[c]: 0 for c in subset}
        return all(rates[c].subs(zero).expand() == 0 for c in subset)

    for size in range(4):
        for zero in itertools.combinations(range(3), size):
            got = model.inert_components(zero)
            assert kept(got), zero
            largest = max((s for k in range(size + 1)
                           for s in itertools.combinations(zero, k)
                           if kept(s)), key=len)
            assert got == largest, zero
    # v alone is not kept: u w feeds it
    u, v, w = uvw
    assert model.inert_components((1,)) == ()
    assert rates[1].subs(v, 0).expand() == u * w


@pytest.mark.parametrize("p", [
    Params(1, 1, 1, 1, 1),
    Params(0.0, 1.0, 2.0 / 3.0, 5.0 / 3.0, 0.0, d2=0.5),   # tf65-like
    Params(1.0, 0.0, 1.0, 1.0, 1.0),                        # a2 = 0 line
    Params(1.0, 1.0, 0.0, 1.0, 1.0),                        # a3 = 0 line
    Params(0.0, 0.0, 0.0, 1.0, 0.0),                        # case-12 pattern
    Params(0.0, 0.0, 0.0, 1.0, 1.0),
    Params(1.0, 1.0, 0.0, 1.0, 0.0),                        # a5 = -a2*a3 branch
    Params(1.0, -1.0, 0.5, 1.0, -0.5),
    # every zero pattern of (a1, a2, a3, a5) on the grid values
    # (1, 0.5, 1, 0.5), whose u = 0 point (0, 1.5, 0.25) is a grid node
    *(Params(a1, a2, a3, 1.0, a5)
      for a1 in (0.0, 1.0) for a2 in (0.0, 0.5) for a3 in (0.0, 1.0)
      for a5 in (0.0, 0.5)),
    Params(1.0, -1.0, 0.5, 1.0, 0.5),     # a5 = -a2*a3, a1 + a2 = 0: line
    Params(1.0, 1.0, 1.0, 1.0, -1.0),     # a5 = -a2*a3, a1 + a2 != 0: empty
    Params(0.0, 0.0, 1.0, 1.0, 0.5),      # a1 = a2 = 0, a3 != 0: line
    NEAR_SINGULAR,
])
def test_steady_states_brute_force_oracle(p):
    states = model.steady_states(p)
    if p is NEAR_SINGULAR:
        assert min(s.distance((0.0, 2e6, 2e6 - 1.0)) for s in states) > 1.0
    # every reported representative is a kinetics zero
    for s in states:
        samples = [s.point]
        if s.directions:
            samples += [s.sample(0.4), s.sample(-0.7)]
        if len(s.directions) == 2:
            samples.append(s.sample(0.3, 0.5))
        for q in samples:
            assert max(abs(c) for c in p.reaction(*q)) <= model.STEADY_TOL
    # every grid zero is close to a reported state or family
    zeros, spacing = _scan_zeros(p)
    assert zeros, "scan must at least find the origin"
    for q in zeros:
        assert min(s.distance(q) for s in states) <= spacing


def test_steady_states_generic_content():
    p = Params(1, 1, 1, 1, 1)
    states = model.steady_states(p)
    assert any(s.kind == "isolated-point" and s.point == (0, 0, 0)
               for s in states)
    assert any(s.kind == "isolated-point" and s.point == (0, 0, 1)
               for s in states)
    line = [s for s in states if s.kind == "line-family"
            and s.contains((1, 0, 0)) and s.contains((0, 1, 0))]
    assert line, "coexistence line u + a1 v = 1, w = 0 missing"


def test_steady_states_a1_zero_line_houses_tf65_endpoint():
    tf65 = solutions.make_tf65(1.0)
    states = model.steady_states(tf65.params)
    target = (1.0, 8 * (3 - 5) / (3 * (1 - 5)), 0.0)  # (1, 4/3, 0)
    assert any(s.contains(target, tol=1e-12) for s in states)


def test_steady_states_a3_zero_reports_w_axis_line():
    p = Params(1.0, 1.0, 0.0, 1.0, 1.0)
    states = model.steady_states(p)
    assert any(s.kind == "line-family" and s.contains((0, 0, 0.37))
               for s in states)


def test_reflect_involution(tf63_std, rng):
    twice = model.reflect_solution(model.reflect_solution(tf63_std))
    t = rng.uniform(0, 2, 50)
    x = rng.uniform(-10, 10, 50)
    for a, b in zip(twice.evaluate(t, x), tf63_std.evaluate(t, x)):
        np.testing.assert_array_equal(a, b)


def test_reflect_tf63_w_decreases(tf63_std):
    refl = model.reflect_solution(tf63_std)
    x = np.linspace(-20, 20, 101)
    w = refl.evaluate(0.7, x)[2]
    assert np.all(np.diff(w) < 0)
    assert refl.speed == pytest.approx(-tf63_std.speed)
    assert refl.endpoint_states[0] == (0.0, 0.0, 1.0)


def test_unrescale_maps_solutions_of_the_rescaled_system(fam40_std):
    # dimensional parameters whose rescaling gives the fam40-i coefficient
    # set (a1 = 0.1, a2 = a3 = 1, a4 = 0.5, a5 = a1 a4, unit diffusivities)
    orig = OriginalParams(d_f=1, d_c=1, d_h=1, r_f=2, r_c=2, r_h=2,
                          K=1, L=1, e1=0.7, e2=0.2)
    p = model.rescale_params(orig)
    for k in ("a1", "a2", "a3", "a4", "a5"):
        assert getattr(p, k) == pytest.approx(getattr(fam40_std.params, k),
                                              rel=1e-12)
    dim_sol = model.unrescale_solution(orig, fam40_std)
    rep = calculus.refinement_study(orig, dim_sol, (0.25, 0.0, 5.0),
                                    [8e-3, 4e-3, 2e-3])
    assert all(1.8 <= o <= 2.2 for o in rep.order_estimate)


def test_called_solution_returns_three_full_arrays():
    # undefined components come back as zeros, scalars are broadcast, and
    # nothing is added to zeros: tf65 at d = 5/3 has amplitude -0.0
    t, x = np.array([[0.0], [0.5]]), np.linspace(-2.0, 2.0, 5)
    fisher = solutions.fisher_tf()
    u, v, w = fisher(t, x)
    assert u.shape == v.shape == w.shape == (2, 5)
    np.testing.assert_array_equal(u, fisher.evaluate(t, x)[0])
    assert not (v.any() or w.any())
    _, v, w = solutions.make_tf65(5.0 / 3.0)(0.3, x)
    assert v.shape == w.shape == (5,)
    assert np.signbit(v).all() and np.signbit(w).all()
    const = model.Solution(evaluate=lambda t, x: (1.5, -0.0, None))
    u, v, w = const(t, x)
    assert u.shape == (2, 5) and (u == 1.5).all()
    assert np.signbit(v).all() and not np.signbit(w).any()
    assert not any(np.shares_memory(a, b) for a, b in ((u, v), (v, w), (u, w)))
