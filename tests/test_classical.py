import math

import numpy as np
import pytest

from eseharnack import (PathSpec, RescaleSpec, classical_harnack_check,
                        dp_min_path_cost, min_path_cost, path_cost,
                        random_pairs, rescale_trace)
from eseharnack.errors import NonMonotoneTime, NonPositiveTime, OutOfWindow


# ---------------------------------------------------------------------------
# path cost

def test_stationary_path_cost_is_exact_log():
    p = PathSpec.from_endpoints((1.0,), 1.0, (1.0,), 2.0)
    assert path_cost(p, 1) == pytest.approx(math.log(2.0), rel=1e-14)
    assert path_cost(p, 3) == pytest.approx(3 * math.log(2.0), rel=1e-14)


def test_straight_line_cost_value():
    p = PathSpec.from_endpoints((0.0,), 1.0, (1.0,), 2.0)
    assert path_cost(p, 1) == pytest.approx(0.5 + math.log(2.0), rel=1e-14)


def test_waypoints_only_raise_the_cost():
    rng = np.random.default_rng(3)
    straight = min_path_cost((0.0,), 1.0, (1.0,), 2.0, 1)
    for _ in range(1000):
        t_mid = rng.uniform(1.05, 1.95)
        x_line = 0.0 + (t_mid - 1.0) / 1.0
        x_mid = x_line + rng.normal(scale=0.5)
        p = PathSpec.from_endpoints((0.0,), 1.0, (1.0,), 2.0,
                                    waypoints=[((x_mid,), t_mid)])
        cost = path_cost(p, 1)
        assert cost >= straight - 1e-12
        if abs(x_mid - x_line) > 1e-6:
            assert cost > straight


def test_path_time_validation():
    with pytest.raises(NonMonotoneTime):
        PathSpec.from_endpoints((0.0,), 2.0, (1.0,), 1.0)
    with pytest.raises(NonMonotoneTime):
        PathSpec.from_endpoints((0.0,), 1.0, (1.0,), 2.0,
                                waypoints=[((0.5,), 2.5)])
    with pytest.raises(NonPositiveTime):
        PathSpec.from_endpoints((0.0,), 0.0, (1.0,), 1.0)


# ---------------------------------------------------------------------------
# closed-form infimum and the DP oracle

def test_min_cost_closed_form_values():
    assert min_path_cost((0.0,), 1.0, (0.0,), 2.0, 1) == pytest.approx(math.log(2.0))
    assert min_path_cost((0.0,), 1.0, (2.0,), 2.0, 1) == pytest.approx(2.0 + math.log(2.0))
    # 2-D displacement uses the euclidean norm
    got = min_path_cost((0.0, 0.0), 1.0, (1.0, 1.0), 2.0, 2)
    assert got == pytest.approx(1.0 + 2 * math.log(2.0))


def test_min_cost_requires_ordered_positive_times():
    with pytest.raises(NonMonotoneTime):
        min_path_cost((0.0,), 2.0, (1.0,), 1.0, 1)
    with pytest.raises(NonMonotoneTime):
        min_path_cost((0.0,), 0.0, (1.0,), 1.0, 1)


def test_dp_matches_closed_form_on_default_lattice():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x1, x2 = rng.uniform(-3, 3, size=2)
        t1 = rng.uniform(0.2, 1.0)
        t2 = t1 + rng.uniform(0.3, 2.0)
        cf = min_path_cost((x1,), t1, (x2,), t2, 1)
        dp = dp_min_path_cost((x1,), t1, (x2,), t2, 1)
        assert dp >= cf - 1e-12          # a lattice path cannot beat the infimum
        assert dp == pytest.approx(cf, rel=1e-2)


def test_dp_incommensurate_lattice_still_close():
    cf = min_path_cost((0.0,), 1.0, (1.0,), 2.0, 1)
    dp = dp_min_path_cost((0.0,), 1.0, (1.0,), 2.0, 1, n_time=15, n_space=27)
    assert dp >= cf
    assert dp == pytest.approx(cf, rel=2e-2)


def test_dp_2d():
    cf = min_path_cost((0.0, 0.0), 1.0, (1.0, 0.5), 2.0, 2)
    dp = dp_min_path_cost((0.0, 0.0), 1.0, (1.0, 0.5), 2.0, 2,
                          n_time=12, n_space=12)
    assert dp == pytest.approx(cf, rel=1e-2)


# ---------------------------------------------------------------------------
# the integrated inequality on solved traces

def test_hundred_seeded_pairs_pass(gauss256):
    pairs = random_pairs(gauss256, 100, seed=0)
    verdicts = classical_harnack_check(gauss256, pairs, 1)
    assert len(verdicts) == 100
    assert all(v.passed for v in verdicts)
    assert all(v.log_slack >= math.log1p(-1e-3) for v in verdicts)


def test_slack_tends_to_one_for_collapsing_pairs(gauss256):
    x = (0.5,)
    t1 = 0.4
    slacks = []
    for eps in (1e-1, 1e-2, 1e-3):
        v, = classical_harnack_check(gauss256, [(x, t1, x, t1 * (1 + eps))], 1)
        assert v.slack >= 1 - 1e-9
        slacks.append(v.slack - 1.0)
    assert slacks[0] > slacks[1] > slacks[2] >= 0
    assert slacks[2] < 1e-2


def test_pure_heat_run_satisfies_the_inequality(heat256):
    pairs = random_pairs(heat256, 50, seed=1)
    verdicts = classical_harnack_check(heat256, pairs, 1)
    assert all(v.passed for v in verdicts)


def test_slack_invariant_under_rescaling(gauss256):
    lam = 2.0
    scaled = rescale_trace(gauss256, RescaleSpec(lam, 2.0))
    pairs = random_pairs(gauss256, 20, seed=5)
    base = classical_harnack_check(gauss256, pairs, 1)
    moved = [(tuple(lam * np.asarray(x1)), lam ** 2 * t1,
              tuple(lam * np.asarray(x2)), lam ** 2 * t2)
             for x1, t1, x2, t2 in pairs]
    other = classical_harnack_check(scaled, moved, 1)
    for a, b in zip(base, other):
        assert b.log_slack == pytest.approx(a.log_slack, rel=1e-9, abs=1e-9)


def test_out_of_window_errors(gauss256):
    t_lo, t_hi = gauss256.times[0], gauss256.times[-1]
    with pytest.raises(OutOfWindow):
        classical_harnack_check(gauss256, [((0.0,), t_lo + 0.1, (0.0,), t_hi + 5.0)], 1)
    with pytest.raises(OutOfWindow):
        classical_harnack_check(gauss256, [((9.0,), 0.2, (0.0,), 0.5)], 1)
    with pytest.raises(OutOfWindow):   # endpoints of another dimension
        classical_harnack_check(gauss256, [((0.0, 0.0), 0.2, (0.0, 0.0), 0.5)], 1)


def test_no_pairs_give_no_verdicts(gauss256):
    assert classical_harnack_check(gauss256, [], 1) == []


def test_pair_time_order_validation(gauss256):
    with pytest.raises(NonMonotoneTime):
        classical_harnack_check(gauss256, [((0.0,), 0.5, (0.0,), 0.5)], 1)


def test_random_pairs_are_reproducible(gauss256):
    a = random_pairs(gauss256, 10, seed=42)
    b = random_pairs(gauss256, 10, seed=42)
    assert a == b
    c = random_pairs(gauss256, 10, seed=43)
    assert a != c
