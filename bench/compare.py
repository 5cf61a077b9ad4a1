"""Compare two result sets written by `run.py --out`.

Pair i is the i-th untraced result of a workload in each file; the runs of
a pair should alternate which side ran first.  Per end-to-end metric and
workload the verdict is:

    improved    at least 10 pairs, the change wins >= 9/10 of them (ties count
                for neither side) and the medians differ, in the change's
                favour, by more than the parent's interquartile range
    regressed   the change's median is worse than the parent's by more than
                the metric's bound, or the change failed more runs
    unresolved  fewer than 10 pairs, or the parent's own spread is wider than
                the bound and not every change run beats every parent run
    unchanged   otherwise
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, lower_better: bool,
            more_failures: bool) -> str:
    sign = 1.0 if lower_better else -1.0
    n = min(len(parent), len(change))
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_med = statistics.median(change)
    worse_by = sign * (c_med - p_med) / abs(p_med)
    if more_failures or worse_by > bound:
        return "regressed"
    if n < MIN_PAIRS:
        return "unresolved"
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if wins >= WIN_SHARE * n and sign * (p_med - c_med) > p_q3 - p_q1:
        return "improved"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(parent_path: str, change_path: str, spec: dict) -> int:
    parent, change = _load(parent_path), _load(change_path)
    print(f"{'workload':<18} {'metric':<12} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'wins':>6}  verdict")
    for name in sorted(set(parent) & set(change)):
        p_recs, c_recs = parent[name], change[name]
        more_failures = (sum(r["failed"] for r in c_recs) > sum(r["failed"] for r in p_recs))
        n = min(len(p_recs), len(c_recs))
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in p_recs[:n]]
            cv = [r["metrics"][m["name"]]["value"] for r in c_recs[:n]]
            lower = m["better"] == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
            cells = []
            for vals in (pv, cv):
                q1, med, q3 = _quartiles(vals)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{name:<18} {m['name']:<12} {cells[0]:<32} {cells[1]:<32} "
                  f"{wins:>3}/{n:<2}  {verdict(pv, cv, m['bound'], lower, more_failures)}")
    for name in sorted(set(parent) ^ set(change)):
        print(f"{name}: results on one side only")
    return 0
