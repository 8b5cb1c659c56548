import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peermatch.backends import mock_correct_label
from peermatch.corpus import ExerciseBlock, make_synthetic_corpus
from peermatch.features import CoverageError, HashingEmbedder, index_scores
from peermatch.gp import GpFitConfig, GpRegressor, Prediction
from peermatch.pareto import (
    DomainMismatchError,
    EmptyCandidatesError,
    ParetoFront,
    ScoreVector,
    dominates,
    dump_front,
    local_candidates,
    pareto_front,
    rank_candidates,
    score_vector,
)
from peermatch.personas import Learner, enumerate_personas
from peermatch.protocol import ResponseRecord
from oracles import brute_force_front, front_ids


def sv(lid, *values, domains=None):
    domains = domains or [f"d{i}" for i in range(len(values))]
    return ScoreVector(learner_id=lid, scores=dict(zip(domains, values)))


class TestDominates:
    def test_equal_vectors_do_not_dominate(self):
        assert not dominates(sv("a", 0.5, 0.5), sv("b", 0.5, 0.5))

    def test_strictly_better_in_one(self):
        assert dominates(sv("a", 0.6, 0.5), sv("b", 0.5, 0.5))

    def test_incomparable_pair(self):
        a, b = sv("a", 0.6, 0.4), sv("b", 0.5, 0.5)
        assert not dominates(a, b) and not dominates(b, a)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            dominates(sv("a", 0.5, domains=["x"]), sv("b", 0.5, domains=["y"]))

    def test_order_of_dict_insertion_is_irrelevant(self):
        a = ScoreVector("a", {"d1": 0.2, "d2": 0.9})
        b = ScoreVector("b", {"d2": 0.8, "d1": 0.1})
        assert dominates(a, b)


vectors_strategy = st.lists(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=3, max_size=3),
    min_size=1,
    max_size=50,
)


class TestDominanceIsStrictPartialOrder:
    @given(vectors_strategy)
    def test_irreflexive(self, rows):
        for i, row in enumerate(rows):
            v = sv(f"l{i}", *row)
            assert not dominates(v, v)

    @given(vectors_strategy)
    def test_antisymmetric(self, rows):
        vs = [sv(f"l{i}", *row) for i, row in enumerate(rows)]
        for a in vs:
            for b in vs:
                if dominates(a, b):
                    assert not dominates(b, a)

    @given(vectors_strategy)
    def test_transitive(self, rows):
        vs = [sv(f"l{i}", *row) for i, row in enumerate(rows)]
        for a in vs:
            for b in vs:
                for c in vs:
                    if dominates(a, b) and dominates(b, c):
                        assert dominates(a, c)


class TestParetoFront:
    def test_worked_example(self):
        # scaled version of {(3,1),(1,3),(2,2),(1,1)}: the last is dominated
        cands = [sv("a", 0.3, 0.1), sv("b", 0.1, 0.3), sv("c", 0.2, 0.2), sv("d", 0.1, 0.1)]
        front = pareto_front(cands, anchor="z")
        assert front_ids(front) == ("a", "b", "c")

    def test_identical_candidates_all_retained(self):
        cands = [sv(f"l{i}", 0.4, 0.4) for i in range(4)]
        assert len(pareto_front(cands, anchor="z").members) == 4

    def test_single_candidate(self):
        front = pareto_front([sv("only", 0.2, 0.9)], anchor="z")
        assert front_ids(front) == ("only",)

    def test_anchor_removed_before_filtering(self):
        # the anchor would dominate everyone; removing it first must keep "b"
        cands = [sv("anchor", 1.0, 1.0), sv("b", 0.5, 0.5)]
        front = pareto_front(cands, anchor="anchor")
        assert front_ids(front) == ("b",)

    def test_empty_after_anchor_removal(self):
        with pytest.raises(EmptyCandidatesError):
            pareto_front([sv("only", 0.5, 0.5)], anchor="only")

    def test_members_exclude_anchor_invariant(self):
        with pytest.raises(ValueError, match="exclude the anchor"):
            ParetoFront(mode="global", anchor="a", members=(sv("a", 0.1, 0.2),))

    @given(vectors_strategy, st.randoms(use_true_random=False))
    def test_matches_brute_force(self, rows, rnd):
        vs = [sv(f"l{i}", *row) for i, row in enumerate(rows)]
        anchor = "l0" if rnd.random() < 0.5 else "outsider"
        if all(v.learner_id == anchor for v in vs):
            return
        front = pareto_front(vs, anchor=anchor)
        assert set(front_ids(front)) == brute_force_front(vs, anchor)


def _solo(lid, block, outcomes):
    return [ResponseRecord(lid, None, e.id, "A", r, ()) for e, r in zip(block.exercises, outcomes)]


def _paired(lid, pid, block, outcomes):
    return [ResponseRecord(lid, pid, e.id, "A", r, ()) for e, r in zip(block.exercises, outcomes)]


def _blocks():
    exs = make_synthetic_corpus([("alpha", "STEM", 4), ("beta", "Humanities", 2)], seed=2, key_fn=mock_correct_label)
    alpha = ExerciseBlock("alpha", tuple(e for e in exs if e.domain == "alpha"))
    beta = ExerciseBlock("beta", tuple(e for e in exs if e.domain == "beta"))
    return alpha, beta


class TestScoreVectorOp:
    def test_three_of_four_correct(self):
        alpha, beta = _blocks()
        records = _solo("me", alpha, [1, 1, 1, 0]) + _solo("me", beta, [0, 0])
        vec = score_vector("me", index_scores(records), [alpha, beta])
        assert vec.scores == {"alpha": 0.75, "beta": 0.0}

    def test_all_wrong_is_zero_vector(self):
        alpha, beta = _blocks()
        records = _solo("me", alpha, [0, 0, 0, 0]) + _solo("me", beta, [0, 0])
        assert all(v == 0.0 for v in score_vector("me", index_scores(records), [alpha, beta]).scores.values())

    def test_hand_fixture(self):
        alpha, beta = _blocks()
        records = _solo("me", alpha, [1, 0, 1, 0]) + _solo("me", beta, [1, 0])
        vec = score_vector("me", index_scores(records), [alpha, beta])
        assert vec.scores == {"alpha": 0.5, "beta": 0.5}

    def test_missing_coverage(self):
        alpha, beta = _blocks()
        with pytest.raises(CoverageError, match="beta"):
            score_vector("me", index_scores(_solo("me", alpha, [1, 1, 1, 1])), [alpha, beta])


class TestLocalCandidates:
    def test_empty_history(self):
        assert local_candidates("me", {}, _blocks()) == []

    def test_single_partner_half_right(self):
        alpha, _ = _blocks()
        history = _paired("me", "pal", alpha, [1, 1, 0, 0])
        (vec,) = local_candidates("me", index_scores(history), _blocks())
        assert vec.learner_id == "pal"
        assert vec.scores == {"alpha": 0.5}

    def test_hand_enumeration_two_partners(self):
        alpha, beta = _blocks()
        history = (
            _paired("me", "p1", alpha, [1, 1, 1, 1])
            + _paired("me", "p1", beta, [0, 1])
            + _paired("me", "p2", alpha, [0, 0, 1, 0])
        )
        vecs = {v.learner_id: v.scores for v in local_candidates("me", index_scores(history), _blocks())}
        assert vecs == {"p1": {"alpha": 1.0, "beta": 0.5}, "p2": {"alpha": 0.25, "beta": 0.0}}

    def test_ignores_other_learners_history(self):
        alpha, _ = _blocks()
        history = _paired("someone_else", "p1", alpha, [1, 1, 1, 1])
        assert local_candidates("me", index_scores(history), _blocks()) == []


class _ConstantRegressor:
    def __init__(self, value=0.0):
        self.value = value

    def predict(self, x):
        return Prediction(mean=self.value, variance=0.0)


class _FavorSecondCoordinate:
    """Scores by the partner's subject preference entry of the sample vector."""

    def predict(self, x):
        return Prediction(mean=float(x[2]), variance=0.0)


def _selection_setup():
    personas = enumerate_personas()
    cohort = {f"L{i}": Learner(f"L{i}", p) for i, p in enumerate(personas[:6])}
    vectors = [sv(lid, 0.5, 0.5) for lid in cohort]  # mutually non-dominating
    front = pareto_front(vectors, anchor="L0")
    block, _ = _blocks()
    return cohort, front, block


def test_constant_regressor_breaks_ties_by_smallest_id():
    cohort, front, block = _selection_setup()
    chosen = rank_candidates(cohort["L0"], front, _ConstantRegressor(), block, HashingEmbedder(), cohort)[0].learner_id
    assert chosen == "L1"


def test_scripted_regressor_picks_favorite():
    cohort, front, block = _selection_setup()
    # partner subject preference is x[2]; personas L3..L5 have subject 0, L0..L2 have -1
    chosen = rank_candidates(cohort["L0"], front, _FavorSecondCoordinate(), block, HashingEmbedder(), cohort)[0].learner_id
    best = max(
        front_ids(front),
        key=lambda pid: (cohort[pid].persona.subject_pref, pid == min(front_ids(front))),
    )
    assert cohort[chosen].persona.subject_pref == cohort[best].persona.subject_pref


def test_selection_never_returns_anchor():
    cohort, front, block = _selection_setup()
    for rule in ("mean", "poi"):
        chosen = rank_candidates(cohort["L0"], front, _ConstantRegressor(), block, HashingEmbedder(), cohort, rule)[0]
        assert chosen.learner_id != "L0"


def test_fitted_gp_selection_matches_exhaustive_argmax():
    cohort, front, block = _selection_setup()
    emb = HashingEmbedder()
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 4 + emb.dim))
    y = rng.standard_normal(20) * 0.2
    fitted = GpRegressor(GpFitConfig(seed=0, restarts=0, max_iters=30)).fit(X, y)
    scored = rank_candidates(cohort["L0"], front, fitted, block, emb, cohort)
    chosen = scored[0].learner_id
    exhaustive = sorted(scored, key=lambda s: (-s.mean, s.learner_id))[0].learner_id
    assert chosen == exhaustive


def test_argmax_invariant_under_increasing_transform():
    cohort, front, block = _selection_setup()
    emb = HashingEmbedder()

    class Raw:
        def predict(self, x):
            return Prediction(mean=float(np.tanh(x[2] + 0.3 * x[3])), variance=0.0)

    class Transformed:
        def predict(self, x):
            inner = Raw().predict(x).mean
            return Prediction(mean=float(3.0 * inner + 11.0), variance=0.0)

    a = rank_candidates(cohort["L0"], front, Raw(), block, emb, cohort)[0].learner_id
    b = rank_candidates(cohort["L0"], front, Transformed(), block, emb, cohort)[0].learner_id
    assert a == b


def test_poi_rule_prefers_confident_positive():
    cohort, front, block = _selection_setup()

    class VaryingVariance:
        def predict(self, x):
            # same positive mean everywhere, variance grows with partner subject entry
            return Prediction(mean=0.1, variance=0.01 + 0.5 * abs(float(x[2])))

    scored = rank_candidates(cohort["L0"], front, VaryingVariance(), block, HashingEmbedder(), cohort, rule="poi")
    assert scored[0].variance <= scored[-1].variance


def test_dump_front_shape():
    cohort, front, block = _selection_setup()
    scored = rank_candidates(cohort["L0"], front, _ConstantRegressor(0.2), block, HashingEmbedder(), cohort)
    dump = dump_front(front, scored)
    assert dump["mode"] == "global"
    assert dump["anchor"] == "L0"
    assert {m["learner_id"] for m in dump["members"]} == set(front_ids(front))
    member = dump["members"][0]
    assert set(member) == {"learner_id", "scores", "mean", "variance", "value"}


def test_score_vector_values_validated():
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ScoreVector("x", {"d": 1.5})
    with pytest.raises(ValueError, match="no domains"):
        ScoreVector("x", {})
