"""Accuracy metrics and the two report shapes the harness emits.

The per-category report carries mean, best, and population standard
deviation over learners. The component-matrix report renders each variant's
total accuracy in percent together with its gain over the baseline row.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

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
        # correctly rounded: the mean never exceeds the max, and a tiny
        # spread does not underflow to a zero std
        out[category] = Stats(mean=statistics.mean(values), best=max(values), std=statistics.pstdev(values))
    return out


@dataclass(frozen=True)
class MetricsTable:
    """Rows of (variant, category) -> Stats, in variant order."""

    variants: tuple[str, ...]
    cells: dict[tuple[str, str], Stats]

    def stats(self, variant: str, category: str) -> Stats:
        return self.cells[(variant, category)]

    def total_mean(self, variant: str) -> float:
        return self.cells[(variant, "Total")].mean


def build_table(rows: Sequence[tuple[str, Mapping[str, Stats]]]) -> MetricsTable:
    cells = {}
    for variant, stats in rows:
        for category, cell in stats.items():
            cells[(variant, category)] = cell
    return MetricsTable(variants=tuple(v for v, _ in rows), cells=cells)


def format_gain_cell(total_mean: float, baseline_mean: float) -> str:
    """Percent accuracy with signed gain, e.g. 0.3047 vs 0.26 -> "30.47 (+4.47)"."""
    gain = (total_mean - baseline_mean) * 100.0
    sign = "+" if gain >= 0 else "-"
    return f"{total_mean * 100.0:.2f} ({sign}{abs(gain):.2f})"


def gain_report(table: MetricsTable, baseline: str) -> str:
    """Aligned text, one variant per line with its gain over the baseline."""
    if baseline not in table.variants:
        raise MetricsError(f"baseline variant {baseline!r} not in table")
    base = table.total_mean(baseline)
    width = max(len(v) for v in table.variants)
    lines = [f"{'variant'.ljust(width)}  accuracy (gain) %"]
    for variant in table.variants:
        lines.append(f"{variant.ljust(width)}  {format_gain_cell(table.total_mean(variant), base)}")
    return "\n".join(lines) + "\n"


def write_category_table_csv(table: MetricsTable, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["variant", "category", "mean", "best", "std"])
        for variant in table.variants:
            for category in CATEGORY_ORDER:
                s = table.stats(variant, category)
                writer.writerow([variant, category, f"{s.mean:.4f}", f"{s.best:.4f}", f"{s.std:.4f}"])


def write_category_table_text(table: MetricsTable, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width = max(max(len(v) for v in table.variants), len("variant"))
    header = f"{'variant'.ljust(width)}  metric  " + "  ".join(f"{c:>14}" for c in CATEGORY_ORDER)
    lines = [header, "-" * len(header)]
    for variant in table.variants:
        for metric in ("mean", "best", "std"):
            values = [getattr(table.stats(variant, c), metric) for c in CATEGORY_ORDER]
            label = variant if metric == "mean" else ""
            lines.append(f"{label.ljust(width)}  {metric:<6}  " + "  ".join(f"{v:>14.4f}" for v in values))
    path.write_text("\n".join(lines) + "\n", "utf-8")


def write_component_table_csv(
    rows: Sequence[tuple[str, bool, bool, bool, bool]],
    table: MetricsTable,
    baseline: str,
    path: str | Path,
) -> None:
    """Component matrix: variant flags plus the accuracy (gain) cell."""
    base = table.total_mean(baseline)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["variant", "role_setting", "co_learning", "gaussian_process", "pareto_front", "accuracy_gain_pct"]
        )
        for name, role, co, gauss, front in rows:
            writer.writerow(
                [
                    name,
                    str(role).lower(),
                    str(co).lower(),
                    str(gauss).lower(),
                    str(front).lower(),
                    format_gain_cell(table.total_mean(name), base),
                ]
            )


def write_component_table_text(
    rows: Sequence[tuple[str, bool, bool, bool, bool]],
    table: MetricsTable,
    baseline: str,
    path: str | Path,
) -> None:
    base = table.total_mean(baseline)
    width = max(max(len(r[0]) for r in rows), len("variant"))
    flags = ("role", "co-learn", "gauss", "pareto")
    header = f"{'variant'.ljust(width)}  " + "  ".join(f"{f:>8}" for f in flags) + "  accuracy (gain) %"
    lines = [header, "-" * len(header)]
    for name, role, co, gauss, front in rows:
        marks = "  ".join(f"{'yes' if flag else 'no':>8}" for flag in (role, co, gauss, front))
        lines.append(f"{name.ljust(width)}  {marks}  {format_gain_cell(table.total_mean(name), base)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", "utf-8")
