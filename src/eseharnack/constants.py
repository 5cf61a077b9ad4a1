"""Harnack constant tuples, admissibility checks, and feasibility analysis.

A constant tuple (alpha, beta, c, a) is admissible for dimension n and
exponent p when

    alpha > beta >= 0,
    (alpha(p-1) + 2 beta)/p  >=  c  >=  (p-1) n alpha^2 / (4 (alpha - beta)),
    a >= n alpha^2 / (2 (alpha - beta)),

which is exactly what guarantees nonnegativity of the Harnack quantity
H0 = alpha*lap(u) + beta*|grad u|^2 + c*exp(u(p-1)) + a/t for positive
solutions of f_t = lap(f) + f^p, u = log f.

The c-interval is nonempty iff

    4 (alpha(p-1) + 2 beta)(alpha - beta) / alpha^2  >=  p (p-1) n,

whose left side depends only on the ratio s = beta/alpha; maximizing over s
tells us for which (n, p) any admissible tuple exists at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvalidC, UnknownPreset


@dataclass(frozen=True)
class HarnackConstants:
    alpha: float
    beta: float
    c: float
    a: float

    def scaled(self, s: float) -> "HarnackConstants":
        """All four constants multiplied by s > 0 (H0 scales linearly)."""
        return HarnackConstants(s * self.alpha, s * self.beta, s * self.c, s * self.a)


@dataclass(frozen=True)
class Violation:
    name: str
    slack: float  # signed distance to the bound; negative (or zero for strict bounds) = violated


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    violated: tuple[Violation, ...]
    slacks: dict[str, float]


@dataclass(frozen=True)
class FeasibleRegion:
    c_lo: float
    c_hi: float
    a_min: float

    @property
    def feasible(self) -> bool:
        return self.c_lo <= self.c_hi

    @property
    def c_interval(self) -> tuple[float, float] | None:
        return (self.c_lo, self.c_hi) if self.feasible else None


def c_lower(n: int, p: float, alpha: float, beta: float) -> float:
    return (p - 1.0) * n * alpha ** 2 / (4.0 * (alpha - beta))


def c_upper(p: float, alpha: float, beta: float) -> float:
    return (alpha * (p - 1.0) + 2.0 * beta) / p


def a_lower(n: int, alpha: float, beta: float) -> float:
    return n * alpha ** 2 / (2.0 * (alpha - beta))


def check_admissible(n: int, p: float, k: HarnackConstants) -> AdmissibilityVerdict:
    """Evaluate the admissibility conditions with signed slacks.

    Slack convention: slack >= 0 means satisfied, except the strict
    'alpha_gt_beta' bound where slack must be > 0.  When alpha <= beta the
    c and a bounds are undefined (they divide by alpha - beta) and are not
    reported, so a beta = alpha tuple fails on exactly one constraint.
    """
    if p <= 1:
        raise ValueError("need p > 1")
    if n < 1:
        raise ValueError("need n >= 1")
    slacks: dict[str, float] = {}
    violated: list[Violation] = []

    slacks["alpha_gt_beta"] = k.alpha - k.beta
    if not k.alpha > k.beta:
        violated.append(Violation("alpha_gt_beta", slacks["alpha_gt_beta"]))
    slacks["beta_nonneg"] = k.beta
    if k.beta < 0:
        violated.append(Violation("beta_nonneg", k.beta))

    if k.alpha > k.beta:
        slacks["c_lower"] = k.c - c_lower(n, p, k.alpha, k.beta)
        slacks["c_upper"] = c_upper(p, k.alpha, k.beta) - k.c
        slacks["a_lower"] = k.a - a_lower(n, k.alpha, k.beta)
        for name in ("c_lower", "c_upper", "a_lower"):
            if slacks[name] < 0:
                violated.append(Violation(name, slacks[name]))

    return AdmissibilityVerdict(not violated, tuple(violated), slacks)


def check_classical_hypothesis(n: int, p: float, k: HarnackConstants) -> AdmissibilityVerdict:
    """Admissibility extended with the path-integration hypotheses.

    The classical (integrated) Harnack comparison additionally needs
    alpha >= 2 beta, c <= alpha and a <= n alpha, so the cost integrand
    |xdot|^2/2 + n/t dominates the differential inequality along paths.
    """
    base = check_admissible(n, p, k)
    slacks = dict(base.slacks)
    violated = list(base.violated)
    extra = {
        "alpha_ge_2beta": k.alpha - 2.0 * k.beta,
        "c_le_alpha": k.alpha - k.c,
        "a_le_n_alpha": n * k.alpha - k.a,
    }
    for name, slack in extra.items():
        slacks[name] = slack
        if slack < 0:
            violated.append(Violation(name, slack))
    return AdmissibilityVerdict(not violated, tuple(violated), slacks)


def feasible_region(n: int, p: float, alpha: float, beta: float) -> FeasibleRegion:
    """Valid c-interval and minimal a for fixed (alpha, beta); empty iff infeasible."""
    if not alpha > beta >= 0:
        raise ValueError("need alpha > beta >= 0")
    if p <= 1:
        raise ValueError("need p > 1")
    return FeasibleRegion(c_lo=c_lower(n, p, alpha, beta),
                          c_hi=c_upper(p, alpha, beta),
                          a_min=a_lower(n, alpha, beta))


def feasibility_lhs(p: float, s: float) -> float:
    """4((p-1) + 2s)(1 - s) with s = beta/alpha; scale-invariant in alpha."""
    return 4.0 * ((p - 1.0) + 2.0 * s) * (1.0 - s)


@dataclass(frozen=True)
class BestFeasibility:
    lhs_max: float   # sup over s of 4((p-1) + 2s)(1 - s)
    s_opt: float     # maximizing ratio beta/alpha
    n_limit: float   # lhs_max / (p (p-1)): constants exist iff n <= n_limit
    feasible: bool   # whether the queried n passes


def best_feasibility(n: int, p: float) -> BestFeasibility:
    """Maximize the feasibility margin over the ratio s = beta/alpha in [0, 1).

    4((p-1) + 2s)(1 - s) is a concave quadratic with vertex s = (3-p)/4 and
    vertex value (p+1)^2/2.  For p >= 3 the vertex lies at or left of s = 0,
    so the endpoint value 4(p-1) is the maximum.
    """
    if p <= 1:
        raise ValueError("need p > 1")
    if p < 3.0:
        s_opt, lhs_max = (3.0 - p) / 4.0, (p + 1.0) ** 2 / 2.0
    else:
        s_opt, lhs_max = 0.0, 4.0 * (p - 1.0)
    n_limit = lhs_max / (p * (p - 1.0))
    return BestFeasibility(lhs_max, s_opt, n_limit, feasible=lhs_max >= p * (p - 1.0) * n)


# ---------------------------------------------------------------------------
# named presets

_FIXED_PRESETS: dict[str, tuple[int, float, HarnackConstants]] = {
    # 1-D, p = 2: Hamilton's inequality f_t + 2f/(3t) >= f_x^2/f + f^2/2
    "hamilton_1d": (1, 2.0, HarnackConstants(1.0, 0.0, 0.5, 2.0 / 3.0)),
    # 1-D, p = 2, sharper: f_t + f/(2t) >= f_x^2/f + 3 f^2/4
    "improved_1d": (1, 2.0, HarnackConstants(1.0, 0.0, 0.25, 0.5)),
    # 2-D, p = 2.  Note the f-form coefficients here are (1, 1, 1/2),
    # not the 1-D improved (1/2, 1, 3/4); see f_form.
    "dim2": (2, 2.0, HarnackConstants(1.0, 0.0, 0.5, 1.0)),
}

_BLOWUP_RE = re.compile(r"^blowup\(\s*([^,]+)\s*,\s*([^,]+)\s*,\s*([^)]+)\s*\)$")


def blowup_preset(n: int, p: float, c: float) -> tuple[int, float, HarnackConstants]:
    """(alpha, beta, a) = (2, 1, 2n) with user c in [n(p-1), 2), the choice
    that turns H0 >= 0 into the blowup threshold criterion."""
    if not n * (p - 1.0) <= c < 2.0:
        raise InvalidC(f"blowup preset needs n(p-1) <= c < 2, got c={c} for n={n}, p={p}")
    return (n, p, HarnackConstants(2.0, 1.0, float(c), 2.0 * n))


def preset(name: str) -> tuple[int, float, HarnackConstants]:
    """Catalog lookup; 'blowup(n,p,c)' is a parameterized family."""
    if name in _FIXED_PRESETS:
        return _FIXED_PRESETS[name]
    m = _BLOWUP_RE.match(name.strip())
    if m:
        n, p, c = int(m.group(1)), float(m.group(2)), float(m.group(3))
        return blowup_preset(n, p, c)
    raise UnknownPreset(f"unknown preset {name!r}; known: {preset_names()}")


def preset_names() -> list[str]:
    return sorted(_FIXED_PRESETS) + ["blowup(n,p,c)"]
