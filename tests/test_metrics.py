import math
import statistics
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from peermatch.metrics import (
    MetricsError,
    compute_metrics,
    format_gain_cell,
    gain_report,
    pstdev,
    write_category_table_csv,
    write_component_table_csv,
)


def _per_learner(values, category="Total"):
    return {f"L{i}": {category: v} for i, v in enumerate(values)}


def test_two_learner_example():
    stats = compute_metrics(_per_learner([0.2, 0.4]))["Total"]
    assert stats.mean == pytest.approx(0.3)
    assert stats.best == pytest.approx(0.4)
    assert stats.std == pytest.approx(0.1)


def test_single_learner():
    stats = compute_metrics(_per_learner([0.7]))["Total"]
    assert stats.std == 0.0
    assert stats.best == stats.mean == pytest.approx(0.7)


def test_spreadsheet_style_fixture():
    # hand-recomputed: mean=0.5, best=0.9, population std=sqrt((0.16+0.0+0.16)/3)
    stats = compute_metrics(_per_learner([0.1, 0.5, 0.9]))["Total"]
    assert stats.mean == pytest.approx(0.5)
    assert stats.best == pytest.approx(0.9)
    assert stats.std == pytest.approx(math.sqrt(0.32 / 3))


def test_empty_input_rejected():
    with pytest.raises(MetricsError):
        compute_metrics({})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_accuracy_rejected(bad):
    with pytest.raises(MetricsError, match="finite"):
        compute_metrics(_per_learner([0.5, bad]))


def test_inconsistent_categories_rejected():
    with pytest.raises(MetricsError, match="different categories"):
        compute_metrics({"a": {"Total": 0.1}, "b": {"STEM": 0.1}})


@given(st.lists(st.floats(0, 1), min_size=1, max_size=30))
@example([0.09936503945925382] * 3)  # a naive sum/len lands one ulp above the max
@example([0.0, 3.7e-213])  # squared deviations underflow to a zero std
@example([0.0, 5e-324])  # the true std is half the smallest subnormal, which rounds to 0.0
def test_metric_identities(values):
    stats = compute_metrics(_per_learner(values))["Total"]
    assert stats.best >= stats.mean >= 0.0
    assert stats.std >= 0.0
    if len(set(values)) == 1:
        assert stats.std == pytest.approx(0.0, abs=1e-12)
    if stats.std == 0.0:
        # Two values at the extremes alone give squared deviations of at least
        # (max - min)**2 / 2, so the true std is at least (max - min) / sqrt(2n).
        # A std rounded to 0.0 is at most ulp(0.0) / 2, hence
        # max - min <= sqrt(n / 2) * ulp(0.0) <= n * ulp(0.0).
        assert max(values) - min(values) <= len(values) * math.ulp(0.0)


@pytest.mark.parametrize(
    "values, std",
    [
        ([0.0, 3.7e-213], 1.85e-213),
        ([0.0, 5e-324], 0.0),
        ([0.7], 0.0),
        ([0.1, 0.5, 0.9], 0.32659863237109044),
        # lists where Python 3.10's statistics.pstdev is one ulp off
        ([0.30729165121314117, 0.662109973415654, 0.42616813546430454], 0.14745854829008884),
        ([0.39985461808399114, 0.17233733552282648, 0.22350015830550718], 0.09745805011095786),
        ([0.6012547512291391, 0.2574733408427168, 0.007837169551924261], 0.24327586133798293),
    ],
)
def test_pstdev_is_correctly_rounded_on_every_version(values, std):
    assert pstdev(values) == std


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.pstdev rounds twice before 3.11")
@given(st.lists(st.floats(0, 1), min_size=1, max_size=30))
def test_pstdev_matches_statistics_bit_for_bit(values):
    assert pstdev(values) == statistics.pstdev(values)


class TestGainCell:
    def test_paper_row(self):
        assert format_gain_cell(0.3047, 0.2600) == "30.47 (+4.47)"

    def test_baseline_against_itself(self):
        assert format_gain_cell(0.2600, 0.2600) == "26.00 (+0.00)"

    def test_negative_gain(self):
        assert format_gain_cell(0.25, 0.26) == "25.00 (-1.00)"


def _table(rows):
    return {name: compute_metrics(_per_learner(vals)) for name, vals in rows}


def test_gain_report_rows_in_order():
    table = _table([("baseline", [0.26, 0.26]), ("better", [0.30, 0.31])])
    text = gain_report(table, "baseline")
    lines = text.strip().splitlines()
    assert lines[1].startswith("baseline") and lines[1].endswith("26.00 (+0.00)")
    assert lines[2].startswith("better") and lines[2].endswith("30.50 (+4.50)")


def test_gain_report_requires_baseline():
    table = _table([("other", [0.5])])
    with pytest.raises(MetricsError, match="baseline"):
        gain_report(table, "baseline")


def _full_table():
    cats = ("STEM", "Social Science", "Humanities", "Total")
    per_learner = {
        "L0": {c: 0.2 for c in cats},
        "L1": {c: 0.4 for c in cats},
    }
    return {"baseline": compute_metrics(per_learner)}


def test_category_table_csv_shape(tmp_path):
    write_category_table_csv(_full_table(), tmp_path / "t1.csv")
    lines = (tmp_path / "t1.csv").read_text("utf-8").strip().splitlines()
    assert lines[0] == "variant,category,mean,best,std"
    assert len(lines) == 5
    assert lines[1] == "baseline,STEM,0.3000,0.4000,0.1000"


def test_component_table_csv_shape(tmp_path):
    table = _full_table()
    rows = [("baseline", False, False, False, False)]
    write_component_table_csv(rows, table, "baseline", tmp_path / "t2.csv")
    lines = (tmp_path / "t2.csv").read_text("utf-8").strip().splitlines()
    assert lines[0] == "variant,role_setting,co_learning,gaussian_process,pareto_front,accuracy_gain_pct"
    assert lines[1] == "baseline,false,false,false,false,30.00 (+0.00)"
