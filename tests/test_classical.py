import math
import random

import numpy as np
import pytest

from eseharnack import (Grid, PathSpec, RescaleSpec, classical_harnack_check,
                        dp_min_path_cost, min_path_cost, path_cost,
                        random_pairs, rescale_trace)
from eseharnack.errors import NonMonotoneTime, NonPositiveTime, OutOfWindow
from eseharnack.harnack import default_window
from eseharnack.integrate import SolveTrace, TraceStatus


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


# ---------------------------------------------------------------------------
# the draws of random.Random(seed)

def _box_trace(box):
    grid = Grid(box, (4,) * len(box), "reflecting")
    return SolveTrace(grid, 2.0, np.linspace(0.0, 1.0, 5), np.ones((5,) + (4,) * len(box)),
                      TraceStatus.reached(), np.zeros(0))


def test_random_pairs_golden_stream_at_seed_zero():
    # random.Random guarantees this stream for an integer seed on every
    # Python version; any change to the draw shows here
    pairs = random_pairs(_box_trace(((-1.0, 3.0),)), 2, 0, (0.25, 0.75))
    got = [(x1[0].hex(), t1.hex(), x2[0].hex(), t2.hex()) for x1, t1, x2, t2 in pairs]
    assert got == [
        ("0x1.5d54a20a5d2f0p-1", "0x1.4d5d076882eeep-1",
         "0x1.242f1f728b4c0p-5", "0x1.76d78143e42cfp-1"),
        ("0x1.114e0c751c4f5p+1", "0x1.f8af1c3a582adp-2",
         "0x1.b4bce3df06f60p-3", "0x1.39458c1956de3p-1"),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_random_pairs_draw_t1_t2_x1_x2_in_turn(dim, seed):
    # the order of the draws, per pair and per axis, on top of the golden stream
    box = ((-1.0, 1.0), (0.0, 3.0), (-2.0, 0.5))[:dim]
    u, gap = random.Random(seed).random, 0.05 * (0.9 - 0.1)
    want = []
    for _ in range(20):
        t1 = 0.1 + (0.9 - gap - 0.1) * u()
        t2 = t1 + gap + (0.9 - (t1 + gap)) * u()
        x1, x2 = (tuple(lo + (hi - lo) * u() for lo, hi in box) for _ in range(2))
        want.append((x1, t1, x2, t2))
    assert random_pairs(_box_trace(box), 20, seed, (0.1, 0.9)) == want


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_pairs_lie_in_the_box_and_window(dim):
    box = ((-1.0, 1.0), (0.0, 3.0), (-2.0, 0.5))[:dim]
    trace = _box_trace(box)
    t_lo, t_hi = default_window(trace)
    for x1, t1, x2, t2 in random_pairs(trace, 200, 3):
        assert len(x1) == len(x2) == dim
        assert all(lo <= c <= hi for x in (x1, x2) for c, (lo, hi) in zip(x, box))
        assert t_lo <= t1 and t1 + 0.05 * (t_hi - t_lo) <= t2 <= t_hi


@pytest.mark.parametrize("seed, error", [(None, TypeError), (1.5, TypeError),
                                         (-1, ValueError)],
                         ids=["none", "float", "negative"])
def test_random_pairs_refuse_a_seed_that_is_not_a_non_negative_integer(seed, error):
    # None would draw from fresh OS entropy, which no seed reproduces, and
    # Random(-1) would silently equal Random(1)
    with pytest.raises(error):
        random_pairs(_box_trace(((-1.0, 1.0),)), 1, seed)
