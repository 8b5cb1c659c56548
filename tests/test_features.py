import inspect
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from peermatch import features

from peermatch.backends import mock_correct_label
from peermatch.corpus import ExerciseBlock, make_synthetic_corpus
from peermatch.features import (
    CoverageError,
    EmbeddingError,
    HashingEmbedder,
    build_dataset,
    build_sample_vector,
    domain_vector,
    index_scores,
    learner_short_vector,
    pair_gain,
)
from peermatch.personas import Learner, Persona, enumerate_personas
from peermatch.protocol import ResponseRecord
from oracles import reference_embed


def _block(domain="blk", n=4):
    exercises = make_synthetic_corpus([(domain, "STEM", n)], seed=3, key_fn=mock_correct_label)
    return ExerciseBlock(domain=domain, exercises=tuple(exercises))


def _solo(learner_id, block, outcomes):
    return [ResponseRecord(learner_id, None, e.id, "A", r, ()) for e, r in zip(block.exercises, outcomes)]


def _paired(learner_id, partner_id, block, outcomes):
    return [ResponseRecord(learner_id, partner_id, e.id, "A", r, ()) for e, r in zip(block.exercises, outcomes)]


class TestHashingEmbedder:
    def test_shape_and_determinism(self):
        emb = HashingEmbedder()
        v = emb.embed("双曲线的渐近线")
        assert v.shape == (32,)
        assert np.all(np.isfinite(v))
        assert np.allclose(v, emb.embed("双曲线的渐近线"))

    def test_l2_normalized(self):
        emb = HashingEmbedder()
        assert np.linalg.norm(emb.embed("nontrivial text")) == pytest.approx(1.0)

    def test_empty_text_is_zero_vector(self):
        assert np.all(HashingEmbedder().embed("") == 0.0)

    def test_distinct_texts_distinct_vectors(self):
        emb = HashingEmbedder()
        pairs = [("ab", "ba"), ("aa", "aaa"), ("question one", "question two"), ("甲", "乙")]
        for t1, t2 in pairs:
            assert not np.allclose(emb.embed(t1), emb.embed(t2))


TEXTS = st.lists(
    st.one_of(
        st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=60),
        st.text(st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF), max_size=30),
        st.text(max_size=40),
        st.just(""),
    ),
    max_size=8,
)


class TestNgramMemo:
    @given(texts=TEXTS, order_seed=st.integers(0, 2**16))
    @example(texts=["", "a" * 2000, "双曲线的渐近线" * 3, "question one"], order_seed=0)
    def test_memo_changes_no_bit(self, texts, order_seed):
        emb = HashingEmbedder()
        expected = {text: reference_embed(text).tobytes() for text in texts}
        shuffled = list(texts) * 2
        random.Random(order_seed).shuffle(shuffled)
        for text in list(texts) + shuffled:
            assert emb.embed(text).tobytes() == expected[text]

    def test_long_text_matches_reference(self):
        text = "".join(chr(0x4E00 + (i * 7919) % 0x5000) if i % 3 else chr(33 + i % 94) for i in range(2000))
        assert HashingEmbedder().embed(text).tobytes() == reference_embed(text).tobytes()

    def test_a_wrapped_stable_u64_sees_every_computed_hash(self, monkeypatch):
        calls = []
        original = features.stable_u64
        monkeypatch.setattr(features, "stable_u64", lambda *parts: calls.append(parts) or original(*parts))
        features._ngram_hash.cache_clear()
        HashingEmbedder().embed("abab")
        assert sorted(parts[3] for parts in calls) == ["a", "ab", "aba", "b", "ba", "bab"]
        HashingEmbedder().embed("abab")
        assert len(calls) == 6

    def test_embed_stays_a_method_the_tracer_can_wrap(self, monkeypatch):
        assert inspect.isfunction(vars(HashingEmbedder)["embed"])
        seen = []
        original = HashingEmbedder.embed
        monkeypatch.setattr(HashingEmbedder, "embed", lambda self, text: seen.append(text) or original(self, text))
        block = _block(n=2)
        domain_vector(block, HashingEmbedder())
        assert seen == [e.stem for e in block.exercises]


def test_learner_short_vector_values():
    assert learner_short_vector(Persona(1, -1)).tolist() == [1.0, -1.0]
    assert learner_short_vector(Persona(0, 0)).tolist() == [0.0, 0.0]
    vectors = {tuple(learner_short_vector(p)) for p in enumerate_personas()}
    assert len(vectors) == 9


class TestDomainVector:
    def test_singleton_is_plain_embedding(self):
        emb = HashingEmbedder()
        block = _block(n=1)
        assert np.allclose(domain_vector(block, emb), emb.embed(block.exercises[0].stem))

    def test_mean_and_permutation_invariance(self):
        emb = HashingEmbedder()
        block = _block(n=3)
        flipped = ExerciseBlock(domain=block.domain, exercises=block.exercises[::-1])
        assert np.allclose(domain_vector(block, emb), domain_vector(flipped, emb))
        manual = np.mean([emb.embed(e.stem) for e in block.exercises], axis=0)
        assert np.allclose(domain_vector(block, emb), manual)

    def test_provider_failure_names_exercise(self):
        class Broken:
            def embed(self, text):
                raise RuntimeError("no model")

        with pytest.raises(EmbeddingError, match="blk/0"):
            domain_vector(_block(n=2), Broken())


class TestSampleVector:
    def test_shape_is_4_plus_dim(self, learner, partner):
        emb = HashingEmbedder()
        vec = build_sample_vector(learner, partner, domain_vector(_block(), emb))
        assert vec.shape == (36,)

    def test_swap_permutes_short_parts_only(self, learner, partner):
        emb = HashingEmbedder()
        dvec = domain_vector(_block(), emb)
        ab = build_sample_vector(learner, partner, dvec)
        ba = build_sample_vector(partner, learner, dvec)
        assert np.allclose(ab[:2], ba[2:4])
        assert np.allclose(ab[2:4], ba[:2])
        assert np.allclose(ab[4:], ba[4:])

    def test_self_pair_rejected(self, learner):
        with pytest.raises(ValueError, match="own partner"):
            build_sample_vector(learner, learner, domain_vector(_block(), HashingEmbedder()))

    def test_deterministic(self, learner, partner):
        emb = HashingEmbedder()
        assert np.allclose(
            build_sample_vector(learner, partner, domain_vector(_block(), emb)),
            build_sample_vector(learner, partner, domain_vector(_block(), emb)),
        )


class TestPairGain:
    def test_extremes(self, learner, partner):
        block = _block(n=4)
        paired = _paired(learner.id, partner.id, block, [1, 1, 1, 1])
        solo = _solo(learner.id, block, [0, 0, 0, 0])
        assert pair_gain(learner, partner, block, index_scores(solo + paired)) == pytest.approx(1.0)

    def test_zero_when_equal(self, learner, partner):
        block = _block(n=4)
        paired = _paired(learner.id, partner.id, block, [1, 0, 1, 0])
        solo = _solo(learner.id, block, [0, 1, 1, 0])
        assert pair_gain(learner, partner, block, index_scores(solo + paired)) == pytest.approx(0.0)

    def test_hand_computed_two_fifths(self, learner, partner):
        # 5 exercises, 4 paired correct vs 2 solo correct: (4 - 2) / 5 = 0.4
        block = _block(n=5)
        paired = _paired(learner.id, partner.id, block, [1, 1, 1, 1, 0])
        solo = _solo(learner.id, block, [1, 1, 0, 0, 0])
        assert pair_gain(learner, partner, block, index_scores(solo + paired)) == pytest.approx(0.4)

    def test_partner_baseline_flag(self, learner, partner):
        block = _block(n=4)
        paired = _paired(learner.id, partner.id, block, [1, 1, 1, 0])
        solo = _solo(learner.id, block, [1, 0, 0, 0]) + _solo(partner.id, block, [1, 1, 1, 1])
        assert pair_gain(learner, partner, block, index_scores(solo + paired), baseline="self") == pytest.approx(0.5)
        assert pair_gain(learner, partner, block, index_scores(solo + paired), baseline="partner") == pytest.approx(-0.25)
        with pytest.raises(ValueError, match="baseline"):
            pair_gain(learner, partner, block, index_scores(solo + paired), baseline="mean")

    def test_missing_coverage_lists_exercises(self, learner, partner):
        block = _block(n=3)
        paired = _paired(learner.id, partner.id, block, [1, 1, 1])[:2]
        solo = _solo(learner.id, block, [0, 0, 0])
        with pytest.raises(CoverageError, match="blk/2"):
            pair_gain(learner, partner, block, index_scores(solo + paired))

    def test_duplicate_record_rejected(self, learner, partner):
        block = _block(n=2)
        paired = _paired(learner.id, partner.id, block, [1, 1])
        paired += _paired(learner.id, partner.id, block, [0, 0])[:1]
        solo = _solo(learner.id, block, [0, 0])
        with pytest.raises(CoverageError, match="duplicate"):
            pair_gain(learner, partner, block, index_scores(solo + paired))



def test_index_scores_keys_solo_under_none(learner, partner):
    block = _block(n=2)
    index = index_scores(_paired(learner.id, partner.id, block, [0, 1]) + _solo(learner.id, block, [1, 0]))
    assert index == {
        (learner.id, None): {"blk/0": 1, "blk/1": 0},
        (learner.id, partner.id): {"blk/0": 0, "blk/1": 1},
    }
    with pytest.raises(CoverageError, match="duplicate"):
        index_scores(_solo(learner.id, block, [1, 0]) + _solo(learner.id, block, [1]))

def _full_records(cohort, blocks):
    solo, paired = [], []
    for lid, learner in cohort.items():
        for block in blocks:
            solo.extend(_solo(lid, block, [i % 2 for i in range(len(block))]))
    ids = sorted(cohort)
    for lid in ids:
        for pid in ids:
            if lid == pid:
                continue
            for block in blocks:
                paired.extend(_paired(lid, pid, block, [1] * len(block)))
    return paired, solo


def test_build_dataset_counts_and_bounds():
    cohort = {f"P{i}": Learner(f"P{i}", p) for i, p in enumerate(enumerate_personas()[:4])}
    blocks = [_block("d1", 4), _block("d2", 4)]
    paired, solo = _full_records(cohort, blocks)
    scores, emb = index_scores(solo + paired), HashingEmbedder()
    X, y = build_dataset(cohort, blocks, scores, emb)
    assert X.shape == (4 * 3 * 2, 36) and y.shape == (4 * 3 * 2,)
    assert np.all((-1.0 <= y) & (y <= 1.0))
    # rows run learner, then partner, then domain
    order = [(l, p, b) for l in sorted(cohort) for p in sorted(cohort) if p != l for b in blocks]
    for row, (l, p, b) in enumerate(order):
        assert np.array_equal(X[row], build_sample_vector(cohort[l], cohort[p], domain_vector(b, emb)))
        assert y[row] == pair_gain(cohort[l], cohort[p], b, scores)
    again = build_dataset(cohort, blocks, scores, HashingEmbedder())
    assert np.array_equal(X, again[0]) and np.array_equal(y, again[1])


@given(st.lists(st.integers(0, 1), min_size=4, max_size=4), st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_pair_gain_bounds_property(paired_bits, solo_bits):
    anchor = Learner("ga", Persona(0, 0))
    other = Learner("gb", Persona(1, 1))
    block = _block(n=4)
    gain = pair_gain(
        anchor,
        other,
        block,
        index_scores(_solo(anchor.id, block, solo_bits) + _paired(anchor.id, other.id, block, paired_bits)),
    )
    assert -1.0 <= gain <= 1.0
