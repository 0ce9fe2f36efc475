import math
import re

import numpy as np
import pytest

from hgf import model, reduction, solutions
from hgf.errors import ConstraintError, DomainError
from hgf.model import Params
from hgf.solutions import FISHER_SPEED

from conftest import same_bits


def test_fisher_values_and_limits():
    f = solutions.fisher_tf()
    u0 = f.evaluate(0.0, np.array([0.0]))[0]
    assert u0[0] == pytest.approx(0.25, abs=1e-15)
    u = f.evaluate(0.0, np.array([-200.0, 200.0]))[0]
    assert u[0] == pytest.approx(1.0, abs=1e-12)
    assert u[1] == pytest.approx(0.0, abs=1e-12)
    assert f.speed == pytest.approx(5 / math.sqrt(6), rel=1e-15)
    assert f.components == ("u",)


def test_tf63_reference_coefficients(tf63_std):
    vals = tf63_std.meta
    assert vals["alpha"] == pytest.approx(81 / (5 * math.sqrt(62)), rel=1e-12)
    assert vals["d2"] == pytest.approx(8982 / 2051, rel=1e-12)
    assert vals["a2"] == pytest.approx(64 / 2051, rel=1e-12)
    assert tf63_std.params.a4 == pytest.approx(1.0, rel=1e-12)
    assert tf63_std.params.a5 == pytest.approx(269 / 140, rel=1e-12)


def test_tf63_profile_at_center(tf63_std):
    u, v, w = tf63_std.evaluate(0.0, 0.0)
    assert float(u) == pytest.approx(0.2325, abs=1e-15)
    assert float(v) == pytest.approx(0.35, abs=1e-15)
    assert float(w) == pytest.approx(0.5, abs=1e-15)


def test_tf63_complex_steepness_rejected():
    with pytest.raises(ConstraintError, match="complex"):
        solutions.make_tf63(1.0 / (2 * 1.0) + 0.1, 1.0)
    with pytest.raises(ConstraintError, match="delta > 0"):
        solutions.make_tf63(0.1, -0.5)
    with pytest.raises(ConstraintError, match="zero steepness"):
        solutions.make_tf63(0.5, 1.0)


def test_tf63_negative_a2_warns_not_errors():
    inst = solutions.make_tf63(0.0, 0.1)
    assert inst.params.a2 < 0
    assert any("a2" in w for w in inst.warnings)


def test_tf63_d2_check_catches_a_nan_coefficient():
    # d2 > 0 for every finite a1, delta > 0 with a1 delta < 1/2 (its
    # numerator is at most -3 delta there), so only an overflow to
    # -inf / -inf can spoil it: the derived-value check refuses it
    with pytest.raises(ConstraintError,
                       match="^tf63: derived d2 = nan is not finite$"):
        solutions.make_tf63(0.0, 1e308)


@pytest.mark.parametrize("args,name,value", [
    ((0.0, 1e308, 1.0, 3.0), "d2", "nan"),
    ((0.0, 5e-324, 1.0, 3.0), "d2", "inf"),
    ((0.1, 0.35, 1e308, 3.0), "a5", "inf"),
    ((-1e308, 1e308, 1.0, 3.0), "alpha", "nan"),
], ids=["d2-nan", "d2-inf", "a5-inf", "alpha-nan"])
def test_tf63_parameter_values_refuses_an_overflowed_coefficient(
        args, name, value):
    # finite inputs whose products overflow: these returned the non-finite
    # value without an error
    with pytest.raises(ConstraintError,
                       match=f"^tf63: derived {name} = {value} is not "
                             "finite$"):
        solutions.tf63_parameter_values(*args)


def test_tf63_negative_a5_warns_not_errors():
    inst = solutions.make_tf63(0.1, 0.35, a3=1.0, d3=20.0)
    # a5 = (5 - d3 + 6 a3 - 4 a1 delta + 2 a1 delta d3) / (12 delta)
    assert inst.params.a5 == pytest.approx(-7.74 / 4.2, rel=1e-14)
    assert inst.warnings[0] == (f"derived a5 = {inst.params.a5} < 0: "
                                "solution exact, biology invalid")


def test_embed_fisher_needs_unit_d1():
    p = Params(1.0, 1.0, 1.0, 1.0, 1.0, d1=2.0)
    with pytest.raises(ConstraintError,
                       match="^embed_fisher requires d1 = 1$"):
        solutions.embed_fisher(p)


@pytest.mark.parametrize("a1,a4", [(0.0, 0.5), (-0.1, 0.5), (0.1, 1.0)])
def test_fam40_restrictions_need_positive_a1_and_a4_below_one(a1, a4):
    with pytest.raises(ConstraintError,
                       match="^positivity restrictions need a1 > 0 and "
                             "a4 < 1$"):
        solutions.fam40_restrictions(a1, a4)


def test_tf63_monotonicity(tf63_std):
    om = np.linspace(-50, 50, 2001)
    u, v, w = tf63_std.evaluate(0.0, om)
    assert np.all(np.diff(u) < 0)
    assert np.all(np.diff(v) < 0)
    assert np.all(np.diff(w) > 0)
    assert np.all((w >= 0) & (w <= 1))


def test_tf65_endpoints_and_collapse():
    tf = solutions.make_tf65(1.0)
    assert tf.endpoint_states[0] == pytest.approx((1.0, 4.0 / 3.0, 0.0))
    assert tf.endpoint_states[1] == (0.0, 0.0, 0.0)
    u, v, w = tf.evaluate(0.0, np.array([-300.0, 300.0]))
    assert v[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert max(abs(u[1]), abs(v[1]), abs(w[1])) < 1e-12

    degen = solutions.make_tf65(5.0 / 3.0)
    x = np.linspace(-10, 10, 101)
    u, v, w = degen.evaluate(0.3, x)
    np.testing.assert_array_equal(v, 0.0)
    np.testing.assert_array_equal(w, 0.0)
    np.testing.assert_allclose(u, solutions._fisher_u(0.3, x), rtol=1e-12)


def test_tf65_bounds():
    for d in (0.0, -1.0, 2.0, 5.0):
        with pytest.raises(ConstraintError):
            solutions.make_tf65(d)


def test_fam40_t0_values(fam40_std):
    a1, a4, d1 = 0.1, 0.5, 2.0
    u, v, w = fam40_std.evaluate(0.0, 0.0)
    assert float(u) == pytest.approx(0.5, rel=1e-14)  # delta2
    V0 = (1 + a1) * d1 / (a1 * (1 + a1 * a4))
    W0 = (1 - a4) * d1 / (1 + a1 * a4)
    assert float(v) == pytest.approx(V0 - 0.5 / a1, rel=1e-13)
    assert float(w) == pytest.approx(W0, rel=1e-14)


def test_fam40_positivity_under_restrictions(fam40_std):
    x = np.linspace(1e-3, 20, 80)
    for t in (0.0, 0.5, 2.0, 5.0):
        u, v, w = fam40_std.evaluate(t, x)
        assert np.all(u >= 0) and np.all(v >= -1e-14) and np.all(w >= 0)


def test_fam40_exponent_identity(rng):
    # 1 + beta^2 a1^2 = (1 + a1)/(1 + a1 a4) under the balanced beta
    for _ in range(100):
        a1 = rng.uniform(0.05, 3.0)
        a4 = rng.uniform(0.0, 0.999)
        beta = solutions.fam40_restrictions(a1, a4)["beta"]
        lhs = 1 + beta**2 * a1**2
        rhs = (1 + a1) / (1 + a1 * a4)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_fam40_t_limit(fam40_std):
    x = np.linspace(0, 10, 201)
    far = fam40_std.evaluate(25.0, x)
    lim = fam40_std.t_limit(x)
    for a, b in zip(far, lim):
        assert np.max(np.abs(a - b)) < 1e-8


def test_fam40_case_wiring_errors():
    with pytest.raises(ConstraintError, match="a3"):
        solutions.make_fam40("iii", 0.5, None, 0.1, 1.0, 1.0)
    with pytest.raises(ConstraintError, match="forces a4"):
        solutions.make_fam40("iii", 0.5, 99.0, 0.1, 1.0, 1.0, a3=0.5)
    with pytest.raises(ConstraintError, match="delta1"):
        solutions.make_fam40("i", 0.5, 0.5, 0.1, -1.0, 1.0)
    with _raises("case i divides by a1, which must not be zero"):
        solutions.make_fam40("i", 0.0, 0.5, 0.1, 1.0, 1.0)
    # kappa = 1/a4: a ZeroDivisionError used to escape the CLI as a traceback
    with _raises("case ii divides by a4, which must not be zero"):
        solutions.make_fam40("ii", 0.5, 0.0, 0.2, 1.5, 0.7)


def test_fam40_denominator_error(fam40_std):
    with pytest.raises(DomainError, match="t ="):
        fam40_std.evaluate(-1.0, 0.0)


@pytest.mark.parametrize("case,kw", [
    ("ii", dict(a4=0.6)),
    ("iii", dict(a3=0.5)),
])
def test_fam40_other_cases_residual_order(case, kw):
    from hgf import calculus

    inst = solutions.make_fam40(case, 0.3, kw.get("a4"), 0.2, 1.5, 0.7,
                                a3=kw.get("a3"))
    rep = calculus.refinement_study(inst.params, inst, (0.5, 0.0, 8.0),
                                    [8e-3, 4e-3, 2e-3])
    assert all(1.8 <= o <= 2.2 or o == float("inf")
               for o in rep.order_estimate)


def test_fam40_case_ii_a4_one_kills_w():
    inst = solutions.make_fam40("ii", 0.5, 1.0, 0.2, 1.5, 0.7)
    w = inst.evaluate(np.linspace(0, 2, 20), 0.0)[2]
    np.testing.assert_array_equal(w, 0.0)


def test_semi35_case_table():
    a1, a4 = 0.5, 0.5
    c1 = solutions.semi_case("35-i", a1=a1, a4=a4)["meta"]
    assert c1["kappa1"] == pytest.approx((1 + a1) / (4 * (1 + a1 * a4)),
                                         rel=1e-15)
    assert c1["kappa2"] == 1.0
    c2 = solutions.semi_case("35-ii", a1=a1, a4=0.81)["meta"]
    assert c2["kappa1"] == 0.25
    assert c2["kappa2"] == pytest.approx(0.9, rel=1e-15)
    c3 = solutions.semi_case("35-iii", a1=a1, a3=0.7)["meta"]
    assert c3["kappa2"] == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert c3["a4"] == pytest.approx(1 + a1 + 0.7, rel=1e-15)


def _raises(message):
    """pytest.raises for a ConstraintError that says exactly `message`."""
    return pytest.raises(ConstraintError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("case,a1,a4,a3,message", [
    pytest.param("35-i", 0.5, 0.5, 7.0, "semi35-i fixes a3 = 1, got 7.0",
                 id="35-i-0.5-7.0"),
    pytest.param("35-ii", 0.5, 0.81, 1.0, "semi35-ii fixes a3 = 0, got 1.0",
                 id="35-ii-0.81-1.0"),
    pytest.param("35-iii", 0.5, 9.0, 0.7,
                 "semi35-iii forces a4 = 1 + a1 + a3 = 2.2, got 9.0",
                 id="35-iii-9.0-0.7"),
    pytest.param("35-i", 0.5, None, None, "semi35-i needs a4",
                 id="35-i-no-a4"),
    pytest.param("35-ii", 0.5, 0.0, 0.0, "semi35-ii needs a4 > 0",
                 id="35-ii-a4-zero"),
    pytest.param("35-iii", 0.5, None, None, "semi35-iii needs a3 != 0",
                 id="35-iii-no-a3"),
    pytest.param("35-iii", -1.5, None, 0.7, "semi35-iii needs 1 + a1 > 0",
                 id="35-iii-a1-below-minus-1"),
    pytest.param("35-i", 0.0, 0.5, None, "semi35-i divides by a1, which must not be zero",
                 id="a1-zero"),
    pytest.param("35-i", None, 0.5, None, "semi35-i needs a1",
                 id="35-i-no-a1"),
    pytest.param("35-iv", 0.5, 0.5, None, "unknown semi-exact case '35-iv'",
                 id="unknown-case")])
def test_semi35_case_rejects_values_it_fixes(case, a1, a4, a3, message):
    # 35-i fixes a3 = 1, 35-ii a3 = 0 and 35-iii a4 = 1 + a1 + a3 (a
    # different value used to be dropped); every other wiring error names
    # its case too
    with _raises(message):
        solutions.semi_case(case, a1=a1, a4=a4, a3=a3)


def _zero_profile(om):
    return np.zeros_like(np.asarray(om, dtype=float))


@pytest.mark.parametrize("build", [
    lambda case: solutions.make_semi_exact(case, _zero_profile, a4=0.5),
    lambda case: reduction.semi_exact_family(case, a4=0.5)],
    ids=["make_semi_exact", "semi_exact_family"])
@pytest.mark.parametrize("case", ["35-i", "35-ii"])
def test_semi35_without_a1_names_it(build, case):
    # a1 defaults to None in both builders (and in `semi_case`, see
    # 35-i-no-a1 above): kappa1 used to fail as "unsupported operand
    # type(s) for *: 'NoneType' and 'float'"
    with _raises(f"semi{case} needs a1"):
        build(case)


@pytest.mark.parametrize("case,kw", [("50", dict(a4=0.5)),
                                     ("51", dict(a3=0.7))])
def test_a1_zero_cases_reject_a_given_a1(case, kw):
    # 50 and 51 come from the a1 = 0 reduction: a given a1 used to be
    # dropped, and the family built with a1 = 0 without a word
    with _raises(f"semi{case} fixes a1 = 0, got 5.0"):
        solutions.semi_case(case, a1=5.0, **kw)
    with _raises(f"semi{case} fixes a1 = 0, got 5.0"):
        reduction.semi_exact_family(case, a1=5.0, window=(-6.0, 6.0), **kw)
    assert solutions.semi_case(case, a1=0.0, **kw)["params"].a1 == 0.0


def test_semi_cases_accept_the_values_they_fix():
    def meta(case, **kw):
        return solutions.semi_case(case, **kw)["meta"]

    assert meta("35-i", a1=0.5, a4=0.5, a3=1.0)["a3"] == 1.0
    assert meta("35-ii", a1=0.5, a4=0.81, a3=0.0)["a3"] == 0.0
    assert meta("35-iii", a1=0.5, a4=2.2, a3=0.7)["a4"] == \
        pytest.approx(2.2, rel=1e-15)
    assert meta("50", a4=0.5, a3=1.0)["a4"] == 0.5
    assert meta("51", a4=1.7, a3=0.7)["a4"] == 1.7


@pytest.mark.parametrize("case,a4,a3,match", [
    ("50", None, None, "needs a4"), ("50", 0.5, 0.7, "fixes a3"),
    ("51", 0.5, None, "needs a3"), ("51", 9.0, 0.7, "forces a4"),
    ("52", 0.5, 0.7, "unknown"),
    pytest.param("35-iv", 0.5, None, "^unknown semi-exact case '35-iv'$",
                 id="35-iv-unknown")])
def test_semi50_case_checks(case, a4, a3, match):
    # every case but 35-i, 35-ii and 35-iii is checked as 50 or 51
    with pytest.raises(ConstraintError, match=match):
        solutions.semi_case(case, a4=a4, a3=a3)


def test_semi51_w_component():
    def vprof(om):
        return 0.5 + 0.0 * np.asarray(om, dtype=float)

    inst = solutions.make_semi_exact("51", vprof, a3=0.7, beta=0.0)
    om = np.linspace(-5, 5, 41)
    w = inst.evaluate(0.0, om)[2]
    expect = 1 - 0.25 * (1 - np.tanh(om / (2 * math.sqrt(6)))) ** 2
    np.testing.assert_allclose(w, expect, rtol=1e-15)


def test_semi50_zero_profile_rejected_when_forced():
    def zero(om):
        return np.zeros_like(np.asarray(om, dtype=float))

    with pytest.raises(ConstraintError, match="forcing"):
        solutions.make_semi_exact("50", zero, a4=0.5, beta=0.3)
    # with a4 = 1 the closed w vanishes and beta = 0 kills the forcing:
    # the zero profile is then a genuine solution
    inst = solutions.make_semi_exact("50", zero, a4=1.0, beta=0.0)
    v = inst.evaluate(0.0, np.linspace(-3, 3, 11))[1]
    np.testing.assert_array_equal(v, 0.0)


def test_semi_exact_builds_on_a_trajectory_profile_without_a_window():
    # the L52 zero-profile probe sampled (-30, 30) unless a window was
    # given: a profile tabulated on (-25, 25) raised DomainError
    fam, traj = reduction.semi_exact_family("50", a4=0.5, beta=0.3)
    inst = solutions.make_semi_exact("50", traj.component(0), a4=0.5,
                                     beta=0.3)
    x = np.linspace(-5.0, 5.0, 11)
    for got, want in zip(inst.evaluate(0.3, x), fam.evaluate(0.3, x)):
        np.testing.assert_array_equal(got, want)
    with pytest.raises(TypeError, match="window"):
        solutions.make_semi_exact("50", traj.component(0), a4=0.5,
                                  window=(-5.0, 5.0))


def test_semi_zero_profile_is_probed_on_its_own_domain():
    def zero(om):
        om = np.asarray(om, dtype=float)
        if om.min() < -5.0 or om.max() > 5.0:
            raise DomainError("evaluation outside (-5, 5)")
        return np.zeros_like(om)

    zero.domain = (-5.0, 5.0)
    with pytest.raises(ConstraintError, match="forcing"):
        solutions.make_semi_exact("50", zero, a4=0.5, beta=0.3)


def test_endpoints_are_model_steady_states(tf63_std):
    for fam in (tf63_std, solutions.make_tf65(1.0), solutions.fisher_tf()):
        states = model.steady_states(fam.params)
        for endpoint in fam.endpoint_states:
            rates = fam.params.reaction(*endpoint)
            assert max(abs(r) for r in rates) <= 1e-12
            assert min(s.distance(endpoint) for s in states) <= 1e-9


def test_speed_values(tf63_std):
    assert solutions.make_tf65(0.5).speed == pytest.approx(FISHER_SPEED)
    assert tf63_std.speed == pytest.approx(
        (5 - 4 * 0.1 * 0.35) / math.sqrt(6 - 12 * 0.1 * 0.35), rel=1e-15)


def _endpoint_defects(shape, a1):
    """The endpoint constraints of the tanh template: connecting
    (U0, V0, 0) to (0, 0, 1) forces both to zero."""
    return (1.0 - 2.0 ** shape["k1"] * shape["sigma1"]
            - a1 * 2.0 ** shape["k2"] * shape["sigma2"],
            1.0 - 2.0 ** shape["k3"] * shape["sigma3"])


def test_tf63_tanh_shape_endpoint_constraints(tf63_std, rng):
    shape = tf63_std.meta["tanh_shape"]
    d1, d2 = _endpoint_defects(shape, 0.1)
    assert abs(d1) <= 1e-15 and abs(d2) <= 1e-15
    # and for random admissible instances
    for _ in range(20):
        a1 = rng.uniform(-0.5, 1.0)
        delta = rng.uniform(0.05, 1.2)
        if a1 * delta >= 0.5:
            continue
        inst = solutions.make_tf63(a1, delta)
        d1, d2 = _endpoint_defects(inst.meta["tanh_shape"], a1)
        assert abs(d1) <= 1e-14 and abs(d2) <= 1e-14


_SEPARABLE = dict(a1=0.5, beta=0.2, delta1=1.5, delta2=0.7)


_SEPARABLE_NON_FINITE = [
    ("i", "a1", math.nan), ("i", "beta", math.nan), ("ii", "beta", math.inf),
    ("i", "delta1", math.inf), ("ii", "delta2", math.inf),
    ("i", "a4", math.nan), ("iii", "a3", math.inf)]
_SEPARABLE_WIRING = [
    ("i", "a4", None, "case i needs a4"),
    ("ii", "a4", None, "case ii needs a4"),
    ("ii", "a4", 0.0, "case ii divides by a4, which must not be zero"),
    ("i", "a3", 0.4, "case i fixes a3 = 1, got 0.4"),
    ("iii", "a3", 0.0, "case iii needs a3 != 0"),
    ("iii", "a4", 9.0, "case iii forces a4 = 1 + a1 + a3 = 1.9, got 9.0"),
    ("iv", "a4", 0.6, "unknown separable case 'iv' (expected i, ii or iii)")]


@pytest.mark.parametrize("case,name,value,message", [
    *((case, name, value, f"case {case} coefficient {name} must be finite, "
                          f"got {value!r}")
      for case, name, value in _SEPARABLE_NON_FINITE),
    *_SEPARABLE_WIRING], ids=[
    f"{case}-{name}-{value}" for case, name, value, *_ in
    [*_SEPARABLE_NON_FINITE, *_SEPARABLE_WIRING]])
def test_separable_case_rejects_non_finite_coefficients(case, name, value,
                                                        message):
    # NaN or inf coefficients gave NaN or inf fields and no error; the
    # delta checks let inf through.  The case wiring's own errors follow.
    kw = {**_SEPARABLE, "a4": 0.6 if case != "iii" else None,
          "a3": 0.4 if case == "iii" else None, name: value}
    with _raises(message):
        solutions.separable_case(case, **kw)


@pytest.mark.parametrize("aid,kw,name", [
    ("A44", dict(alpha=1.2, beta=0.3, gamma=math.inf), "gamma"),
    ("A34", dict(alpha=math.nan, beta=0.3, a1=0.5), "alpha"),
    ("T2d", dict(gamma=0.1, a1=0.5, a4=-math.inf), "a4")])
def test_make_ansatz_rejects_non_finite_coefficients(aid, kw, name):
    with pytest.raises(ConstraintError, match=f"{aid} coefficient {name} "
                                              f"must be finite"):
        solutions.make_ansatz(aid, **kw)


@pytest.mark.parametrize("aid,kw,message", [
    ("A99", {}, "unknown ansatz id 'A99'"),
    ("A37", dict(beta=0.3, alpha=1.0),
     "A37 expects coefficients ('beta', 'a1'); missing ['a1'], "
     "unexpected ['alpha']"),
    ("T2a", dict(alpha=1.0, beta=2.0, gamma=0.1, a1=-0.5, a4=0.7),
     "T2a requires 1 + beta*a1 != 0 (use T2b)"),
    ("T2c", dict(beta=0.0, gamma=0.1, a1=0.5, a4=0.7),
     "T2c requires beta != 0 (use T2d)"),
    # a raw TypeError from math.isfinite before
    ("A37", dict(beta="0.3", a1=0.5),
     "A37 coefficient beta must be finite, got '0.3'"),
], ids=["unknown", "coefficients", "T2a-degenerate", "T2c-degenerate",
        "string"])
def test_make_ansatz_errors(aid, kw, message):
    with pytest.raises(ConstraintError, match=f"^{re.escape(message)}$"):
        solutions.make_ansatz(aid, **kw)


@pytest.mark.parametrize("aid", sorted(
    aid for aid, coeffs in solutions.ANSATZ_COEFFS.items() if "a1" in coeffs))
def test_make_ansatz_a1_zero_rejected_where_a1_is_a_coefficient(aid):
    kw = dict.fromkeys(solutions.ANSATZ_COEFFS[aid], 0.5)
    kw["a1"] = 0.0
    with _raises(f"{aid} divides by a1, which must not be zero"):
        solutions.make_ansatz(aid, **kw)



def _reconstruct_zero_filled(ansatz, profiles, t, x):
    """`solutions.reconstruct` as it was before the broadcast moved to
    `Solution.__call__`: every branch zero-fills its components to the
    broadcast shape, and a missing profile reads zeros.  Kept as the
    reference the reconstruction is pinned against bit for bit."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)

    def profile(name):
        fn = profiles.get(name)
        if fn is None:
            return lambda s: np.zeros_like(np.asarray(s, dtype=float))
        return fn

    U, V, W = profile("U"), profile("V"), profile("W")
    a = ansatz
    if a.omega_based:
        om = x - a.alpha * t
        if a.aid == "A34":
            up = np.exp(-a.beta * a.a1 * t) * U(om)
            return (up, V(om) - up / a.a1, W(om) + np.zeros_like(up))
        if a.aid == "A44":
            u = U(om)
            shift = a.beta * t + a.gamma * np.exp(t)
            v = V(om) + shift * u - a.gamma * np.exp(t)
            return (u + np.zeros_like(v), v, W(om) + np.zeros_like(v))
        if a.aid == "plane":
            u = U(om)
            z = np.zeros_like(u)
            return (u, V(om) + z, W(om) + z)
        s = (a.a4 - 1.0) * V(om) + W(om) + (1.0 - a.a4) / a.a1
        if a.aid == "T2a":
            u = np.exp(-a.beta * a.a1 * t) * U(om) \
                + a.gamma * np.exp(t) / (1.0 + a.beta * a.a1) * s
        else:
            u = np.exp(t) * (U(om) + a.gamma * s * t)
        return (u, V(om) - u / a.a1, W(om) + np.zeros_like(u))
    if a.aid == "A37":
        e = np.exp(-a.beta * a.a1 * x)
        u = U(t) * e
        return (u, V(t) - u / a.a1, W(t) + np.zeros_like(u))
    s = (a.a4 - 1.0) * V(t) + W(t) + (1.0 - a.a4) / a.a1
    if a.aid == "T2c":
        u = np.exp(-a.beta * a.a1 * x) * U(t) \
            + a.gamma * np.exp(t) / (a.beta * a.a1) * s
    else:
        u = U(t) + a.gamma * np.exp(t) * s * x
    return (u, V(t) - u / a.a1, W(t) + np.zeros_like(u))


_ANSATZ_SAMPLE = dict(alpha=1.3, beta=0.4, gamma=0.2, a1=0.6, a4=0.7)


@pytest.mark.parametrize("missing", ["", "U", "V", "W"])
@pytest.mark.parametrize("aid", sorted(solutions.ANSATZ_COEFFS))
def test_every_ansatz_matches_the_zero_filled_reconstruction(aid, missing,
                                                             rng):
    # random t of shape (3, 1) against x of shape (5,); sin, cos and tanh
    # are not exactly zero there, so no component meets a -0.0 (the one
    # place where the two differ by design)
    ansatz = solutions.make_ansatz(aid, **{
        k: _ANSATZ_SAMPLE[k] for k in solutions.ANSATZ_COEFFS[aid]})
    profiles = {n: f for n, f in zip("UVW", (np.sin, np.cos, np.tanh))
                if n != missing}
    t = rng.uniform(0.0, 2.0, (3, 1))
    x = rng.uniform(-5.0, 5.0, 5)
    got = solutions.ansatz_solution(ansatz, profiles, None)(t, x)
    want = _reconstruct_zero_filled(ansatz, profiles, t, x)
    for name, g, w in zip("uvw", got, want):
        assert g.shape == (3, 5), name
        assert same_bits(g, w), name


def test_a_negative_zero_component_keeps_its_sign():
    # a4 = 2 makes w = cW phi^2 with cW < 0; at omega = 95 tanh rounds to
    # 1, so w = -0.0, which adding zeros turned into +0.0
    sol, _ = reduction.semi_exact_family("35-i", a1=0.5, a4=2.0, beta=0.3,
                                         window=(-25.0, 100.0))
    w = sol(0.0, np.array([95.0, 0.0]))[2]
    assert w[0] == 0.0 and np.signbit(w[0])
    assert w[1] < 0.0


@pytest.mark.parametrize("build,name", [
    (lambda: solutions.semi_case("35-i", a1=0.5, a4=math.nan), "a4"),
    (lambda: solutions.semi_case("35-iii", a1=math.inf, a3=0.7), "a1"),
    (lambda: solutions.semi_case("51", a3=math.inf), "a3")],
    ids=["semi35-i-a4", "semi35-iii-a1", "semi51-a3"])
def test_semi_cases_name_non_finite_coefficients(build, name):
    # these were caught later, under the name of a derived coefficient
    # (L36's kappa1) or not at all (semi51's a4 = 1 + a3 = inf)
    with pytest.raises(ConstraintError, match=f"{name} must be finite"):
        build()


@pytest.mark.parametrize("gamma", [0.1, 0.0, math.nan])
@pytest.mark.parametrize("build", [
    solutions.semi_case,
    lambda case, **kw: solutions.make_semi_exact(case, np.cos, **kw),
    reduction.semi_exact_family],
    ids=["semi_case", "make_semi_exact", "semi_exact_family"])
def test_semi35_cases_take_no_gamma(build, gamma):
    # gamma was accepted and dropped, NaN included: only 50/51 read it
    with pytest.raises(ConstraintError, match="^semi35-i does not take gamma "
                                              r"\(only semi50 and semi51 "
                                              r"read it\)$"):
        build("35-i", a1=0.5, a4=0.5, gamma=gamma)
