"""Solver and differential-Harnack verification harness for f_t = lap(f) + f^p."""

from .blowup import (BlowupReport, blowup_report, blowup_threshold,
                     center_monotonicity_check, classify_regime, grows_from,
                     normalize_threshold_time, ode_blowup_time, ode_oracle,
                     tail_fit, threshold_hit)
from .classical import (PairVerdict, PathSpec, classical_harnack_check,
                        dp_min_path_cost, min_path_cost, path_cost,
                        random_pairs)
from .constants import (AdmissibilityVerdict, BestFeasibility, FeasibleRegion,
                        HarnackConstants, best_feasibility, blowup_preset,
                        check_admissible, check_classical_hypothesis,
                        feasible_region, preset, preset_names)
from .field import Grid, gaussian, log_field, require_positive
from .harnack import (HarnackReport, LocalizerSpec, ResidualStats,
                      default_window, evolution_residual, f_form, h0_report,
                      localizer_min_b, make_localizer, phi_r)
from .integrate import (ProblemSpec, RescaleSpec, SolveTrace, StepConfig,
                        TraceStatus, rescale_problem, rescale_trace, solve,
                        step)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
