import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eseharnack import (HarnackConstants, best_feasibility, blowup_preset,
                        check_admissible, check_classical_hypothesis,
                        feasible_region, preset, preset_names)
from eseharnack.constants import feasibility_lhs
from eseharnack.errors import InvalidC, UnknownPreset


def test_preset_catalog_values():
    assert preset("hamilton_1d") == (1, 2.0, HarnackConstants(1.0, 0.0, 0.5, 2 / 3))
    assert preset("improved_1d") == (1, 2.0, HarnackConstants(1.0, 0.0, 0.25, 0.5))
    assert preset("dim2") == (2, 2.0, HarnackConstants(1.0, 0.0, 0.5, 1.0))
    assert preset("blowup(1,2,1)") == (1, 2.0, HarnackConstants(2.0, 1.0, 1.0, 2.0))


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("nope")
    assert "hamilton_1d" in preset_names()


def test_blowup_preset_c_range():
    with pytest.raises(InvalidC):
        blowup_preset(1, 2.0, 2.0)       # c must stay below 2
    with pytest.raises(InvalidC):
        blowup_preset(1, 2.0, 0.5)       # c below n(p-1)


def test_every_preset_is_admissible():
    for name in ("hamilton_1d", "improved_1d", "dim2", "blowup(1,2,1)"):
        n, p, k = preset(name)
        assert check_admissible(n, p, k).admissible, name


def test_admissible_examples():
    assert check_admissible(1, 2.0, HarnackConstants(1, 0, 0.5, 2 / 3)).admissible
    assert check_admissible(1, 2.0, HarnackConstants(1, 0, 0.25, 0.5)).admissible
    assert check_admissible(2, 2.0, HarnackConstants(1, 0, 0.5, 1.0)).admissible


def test_inadmissible_example_names_the_bound():
    v = check_admissible(1, 2.0, HarnackConstants(1, 0, 0.24, 0.5))
    assert not v.admissible
    assert [x.name for x in v.violated] == ["c_lower"]
    assert v.violated[0].slack == pytest.approx(0.24 - 0.25)


def test_single_constraint_perturbations():
    n, p = 1, 2.0
    reg = feasible_region(n, p, 1.0, 0.0)
    low_c = check_admissible(n, p, HarnackConstants(1, 0, reg.c_lo - 1e-6, reg.a_min))
    assert [x.name for x in low_c.violated] == ["c_lower"]
    low_a = check_admissible(n, p, HarnackConstants(1, 0, reg.c_lo, reg.a_min - 1e-6))
    assert [x.name for x in low_a.violated] == ["a_lower"]
    eq_ab = check_admissible(n, p, HarnackConstants(1, 1, 0.5, 1.0))
    assert [x.name for x in eq_ab.violated] == ["alpha_gt_beta"]


def test_feasible_region_values():
    reg = feasible_region(1, 2.0, 1.0, 0.0)
    assert (reg.c_lo, reg.c_hi, reg.a_min) == (0.25, 0.5, 0.5)
    assert reg.feasible

    # alpha=2, beta=1: c_hi = 2, c_lo = n(p-1), a_min = 2n
    for n, p in ((1, 2.0), (2, 1.5), (1, 3.0)):
        reg = feasible_region(n, p, 2.0, 1.0)
        assert reg.c_hi == pytest.approx(2.0)
        assert reg.c_lo == pytest.approx(n * (p - 1))
        assert reg.a_min == pytest.approx(2.0 * n)
        assert reg.feasible == (n * (p - 1) <= 2.0)

    assert not feasible_region(3, 2.0, 2.0, 1.0).feasible
    assert feasible_region(3, 2.0, 2.0, 1.0).c_interval is None


def test_feasible_region_preconditions():
    with pytest.raises(ValueError):
        feasible_region(1, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        feasible_region(1, 1.0, 1.0, 0.0)


def test_region_endpoints_have_zero_binding_slack():
    n, p, alpha, beta = 1, 2.5, 1.7, 0.3
    reg = feasible_region(n, p, alpha, beta)
    assert reg.feasible
    at_lo = check_admissible(n, p, HarnackConstants(alpha, beta, reg.c_lo, reg.a_min))
    assert at_lo.admissible
    assert at_lo.slacks["c_lower"] == 0.0
    assert at_lo.slacks["a_lower"] == 0.0
    at_hi = check_admissible(n, p, HarnackConstants(alpha, beta, reg.c_hi, reg.a_min))
    assert at_hi.admissible
    assert at_hi.slacks["c_upper"] == 0.0


def test_best_feasibility_p2():
    best = best_feasibility(1, 2.0)
    assert best.lhs_max == pytest.approx(4.5, abs=1e-8)
    assert best.s_opt == pytest.approx(0.25, abs=1e-8)
    assert best.n_limit == pytest.approx(2.25, abs=1e-8)
    assert best_feasibility(2, 2.0).feasible
    assert not best_feasibility(3, 2.0).feasible


def test_best_feasibility_is_exact_for_p2():
    # closed form: vertex s = (3-p)/4 with value (p+1)^2/2, no search error
    best = best_feasibility(1, 2.0)
    assert best.s_opt == 0.25
    assert best.lhs_max == 4.5


def test_best_feasibility_endpoint_cases():
    # s = 0 endpoint value is 4(p-1)
    assert feasibility_lhs(2.0, 0.0) == pytest.approx(4.0)
    # p = 3: the quadratic peaks at the s = 0 endpoint with value 8
    best = best_feasibility(1, 3.0)
    assert best.lhs_max == pytest.approx(8.0, abs=1e-8)
    assert best.s_opt == pytest.approx(0.0, abs=1e-7)
    assert best.n_limit == pytest.approx(8.0 / 6.0, abs=1e-8)


def test_optimizer_dominates_grid_scan():
    best = best_feasibility(1, 2.0)
    grid = np.linspace(0.0, 1.0, 10_000, endpoint=False)
    scan = max(feasibility_lhs(2.0, s) for s in grid)
    assert best.lhs_max >= scan - 1e-12


@given(s=st.floats(0.05, 0.95), scale=st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_admissibility_is_scale_invariant(s, scale):
    # pick a strictly feasible tuple from the ratio s = beta/alpha, then scale
    n, p = 1, 2.0
    alpha, beta = 1.0, s
    reg = feasible_region(n, p, alpha, beta)
    if not reg.feasible or reg.c_hi - reg.c_lo < 1e-9:
        return
    k = HarnackConstants(alpha, beta, 0.5 * (reg.c_lo + reg.c_hi), reg.a_min * 1.1)
    assert check_admissible(n, p, k).admissible
    assert check_admissible(n, p, k.scaled(scale)).admissible


def test_classical_hypothesis_predicates():
    assert check_classical_hypothesis(1, 2.0, preset("hamilton_1d")[2]).admissible
    # beta too large relative to alpha
    v = check_classical_hypothesis(1, 2.0, HarnackConstants(1.0, 0.6, 0.9, 2.0))
    assert "alpha_ge_2beta" in [x.name for x in v.violated]
    # a exceeding n*alpha trips the path bound
    v2 = check_classical_hypothesis(1, 2.0, HarnackConstants(1.0, 0.0, 0.5, 1.5))
    assert "a_le_n_alpha" in [x.name for x in v2.violated]


def test_check_admissible_preconditions():
    with pytest.raises(ValueError):
        check_admissible(1, 1.0, HarnackConstants(1, 0, 0.5, 1))
    with pytest.raises(ValueError):
        check_admissible(0, 2.0, HarnackConstants(1, 0, 0.5, 1))
