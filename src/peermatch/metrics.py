"""Accuracy metrics and the two report shapes the harness emits.

The per-category report carries mean, best, and population standard
deviation over learners. The component-matrix report renders each variant's
total accuracy in percent together with its gain over the baseline row.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .writer import csv_text, write_file

CATEGORY_ORDER = ("STEM", "Social Science", "Humanities", "Total")


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class Stats:
    mean: float
    best: float
    std: float

    def __post_init__(self) -> None:
        if self.best < self.mean - 1e-12 or self.std < 0.0:
            raise MetricsError(f"inconsistent stats: {self}")


# variant -> category -> Stats, in report row order
Table = Mapping[str, Mapping[str, Stats]]
# (variant, role setting, co-learning, Gaussian process, Pareto front)
ComponentRow = tuple[str, bool, bool, bool, bool]


# bits past the float's precision that make the round-to-odd root round once
_SQRT_BIT_WIDTH = 2 * sys.float_info.mant_dig + 3


def _isqrt_of_frac_rto(n: int, m: int) -> int:
    """Square root of n/m as an integer, rounded to odd."""
    a = math.isqrt(n // m)
    return a | (a * a * m != n)


def pstdev(values: Sequence[float]) -> float:
    """Population standard deviation, correctly rounded on every Python version.

    The variance is an exact ratio of integers, and its square root rounds
    once, by the integer method of CPython 3.11's ``statistics``.
    ``statistics.pstdev`` rounds twice before 3.11, so a report's last bit
    would otherwise depend on the interpreter.
    """
    ratios = [v.as_integer_ratio() for v in values]
    # a float's denominator is a power of two, so each divides the largest
    scale = max(den for _, den in ratios)
    xs = [num * (scale // den) for num, den in ratios]
    count, total = len(xs), sum(xs)
    # variance = n / m exactly, with n and m integers
    n, m = count * sum(x * x for x in xs) - total * total, (count * scale) ** 2
    q = (n.bit_length() - m.bit_length() - _SQRT_BIT_WIDTH) // 2
    if q >= 0:
        return float(_isqrt_of_frac_rto(n, m << 2 * q) << q)
    return _isqrt_of_frac_rto(n << -2 * q, m) / (1 << -q)


def compute_metrics(per_learner: Mapping[str, Mapping[str, float]]) -> dict[str, Stats]:
    """Mean/best/population-std over learners, per category.

    ``per_learner`` maps learner id to category accuracies; every learner
    must report the same categories.
    """
    if not per_learner:
        raise MetricsError("no learners")
    learners = sorted(per_learner)
    categories = list(per_learner[learners[0]])
    for lid in learners:
        if list(per_learner[lid]) != categories:
            raise MetricsError(f"learner {lid!r} reports different categories")
    out: dict[str, Stats] = {}
    for category in categories:
        values = [per_learner[lid][category] for lid in learners]
        if not all(map(math.isfinite, values)):
            raise MetricsError(f"{category}: accuracies must be finite numbers, got {values}")
        # correctly rounded: the mean never exceeds the max, and a tiny
        # spread does not underflow to a zero std
        out[category] = Stats(mean=statistics.mean(values), best=max(values), std=pstdev(values))
    return out


def format_gain_cell(total_mean: float, baseline_mean: float) -> str:
    """Percent accuracy with signed gain, e.g. 0.3047 vs 0.26 -> "30.47 (+4.47)"."""
    gain = (total_mean - baseline_mean) * 100.0
    sign = "+" if gain >= 0 else "-"
    return f"{total_mean * 100.0:.2f} ({sign}{abs(gain):.2f})"


def gain_report(table: Table, baseline: str) -> str:
    """Aligned text, one variant per line with its gain over the baseline."""
    if baseline not in table:
        raise MetricsError(f"baseline variant {baseline!r} not in table")
    base = table[baseline]["Total"].mean
    width = max(map(len, table))
    lines = [f"{'variant'.ljust(width)}  accuracy (gain) %"]
    for variant, by_category in table.items():
        lines.append(f"{variant.ljust(width)}  {format_gain_cell(by_category['Total'].mean, base)}")
    return "\n".join(lines) + "\n"


def _aligned_text(header: str, lines: Sequence[str]) -> str:
    return "\n".join([header, "-" * len(header), *lines]) + "\n"


def write_category_table_csv(table: Table, path: str | Path) -> None:
    rows = (
        [variant, category, *(f"{value:.4f}" for value in astuple(by_category[category]))]
        for variant, by_category in table.items()
        for category in CATEGORY_ORDER
    )
    write_file(path, csv_text(["variant", "category", "mean", "best", "std"], rows))


def write_category_table_text(table: Table, path: str | Path) -> None:
    width = max(map(len, [*table, "variant"]))
    header = f"{'variant'.ljust(width)}  metric  " + "  ".join(f"{c:>14}" for c in CATEGORY_ORDER)
    lines = []
    for variant, by_category in table.items():
        for metric in ("mean", "best", "std"):
            values = "  ".join(f"{getattr(by_category[c], metric):>14.4f}" for c in CATEGORY_ORDER)
            lines.append(f"{(variant if metric == 'mean' else '').ljust(width)}  {metric:<6}  {values}")
    write_file(path, _aligned_text(header, lines))


def write_component_table_csv(rows: Sequence[ComponentRow], table: Table, baseline: str, path: str | Path) -> None:
    """Component matrix: variant flags plus the accuracy (gain) cell."""
    base = table[baseline]["Total"].mean
    header = ["variant", "role_setting", "co_learning", "gaussian_process", "pareto_front", "accuracy_gain_pct"]
    cells = (
        [name, *(str(flag).lower() for flag in flags), format_gain_cell(table[name]["Total"].mean, base)]
        for name, *flags in rows
    )
    write_file(path, csv_text(header, cells))


def write_component_table_text(rows: Sequence[ComponentRow], table: Table, baseline: str, path: str | Path) -> None:
    base = table[baseline]["Total"].mean
    width = max(map(len, [*(r[0] for r in rows), "variant"]))
    flag_names = "  ".join(f"{f:>8}" for f in ("role", "co-learn", "gauss", "pareto"))
    header = f"{'variant'.ljust(width)}  {flag_names}  accuracy (gain) %"
    lines = []
    for name, *flags in rows:
        marks = "  ".join(f"{'yes' if flag else 'no':>8}" for flag in flags)
        lines.append(f"{name.ljust(width)}  {marks}  {format_gain_cell(table[name]['Total'].mean, base)}")
    write_file(path, _aligned_text(header, lines))
