import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peermatch.features import HashingEmbedder
from peermatch.gp import FitError
from peermatch.nn import MlpConfig, MlpRegressor
from peermatch.personas import enumerate_personas
from oracles import reference_mlp_fit


def _pattern_dataset():
    """Gain is +0.3 exactly when the two subject preferences are opposite-signed."""
    emb = HashingEmbedder()
    domain_vecs = [emb.embed(f"domain stem {k}") for k in range(3)]
    X, y = [], []
    for a in enumerate_personas():
        for b in enumerate_personas():
            if a == b:
                continue
            for dv in domain_vecs:
                X.append(np.concatenate([[a.subject_pref, a.logic_pref, b.subject_pref, b.logic_pref], dv]))
                y.append(0.3 if a.subject_pref * b.subject_pref == -1 else 0.0)
    return np.array(X), np.array(y)


def test_zero_targets_give_near_zero_predictions():
    X, _ = _pattern_dataset()
    model = MlpRegressor(MlpConfig(seed=0)).fit(X, np.zeros(len(X)))
    assert max(abs(model.predict(x).mean) for x in X) < 1e-2


def test_learns_complementarity_pattern():
    X, y = _pattern_dataset()
    model = MlpRegressor(MlpConfig(seed=0)).fit(X, y)
    assert model.final_loss < 0.01


def test_same_seed_same_weights():
    X, y = _pattern_dataset()
    a = MlpRegressor(MlpConfig(seed=5)).fit(X, y)
    b = MlpRegressor(MlpConfig(seed=5)).fit(X, y)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.w2, b.w2) and a.b2 == b.b2


def test_different_seed_different_weights():
    X, y = _pattern_dataset()
    a = MlpRegressor(MlpConfig(seed=1, iters=50)).fit(X, y)
    b = MlpRegressor(MlpConfig(seed=2, iters=50)).fit(X, y)
    assert not np.array_equal(a.W1, b.W1)


def test_predictions_carry_zero_variance():
    X, y = _pattern_dataset()
    fitted = MlpRegressor(MlpConfig(seed=0, iters=100)).fit(X, y)
    assert fitted.predict(X[0]).variance == 0.0


def test_divergent_training_raises():
    X, y = _pattern_dataset()
    with pytest.raises(FitError, match="non-finite"):
        MlpRegressor(MlpConfig(learning_rate=1e9, iters=50)).fit(X, y * 1e6)


@pytest.mark.parametrize("bad", ["X", "y"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_training_data_raises_before_the_first_step(bad, value):
    X, y = _pattern_dataset()
    if bad == "X":
        X[3, 5] = value
    else:
        y[7] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="training data contains non-finite values"):
            MlpRegressor(MlpConfig(iters=10)).fit(X, y)


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(hidden=0), "hidden"),
        (dict(hidden=-3), "hidden"),
        (dict(iters=0), "iters"),
        (dict(iters=-1), "iters"),
        (dict(learning_rate=0.0), "learning_rate"),
        (dict(learning_rate=-0.1), "learning_rate"),
        (dict(learning_rate=math.nan), "learning_rate"),
        (dict(learning_rate=math.inf), "learning_rate"),
        # these four ids keep the wording the messages had before they named MlpConfig
        pytest.param(dict(hidden=2.5), "^MlpConfig: hidden must be int, got 2.5$",
                     id="config8-^hidden must be an int, got 2.5$"),
        pytest.param(dict(hidden=True), "^MlpConfig: hidden must be int, got True$",
                     id="config9-^hidden must be an int, got True$"),
        pytest.param(dict(iters=2.5), "^MlpConfig: iters must be int, got 2.5$",
                     id="config10-^iters must be an int, got 2.5$"),
        pytest.param(dict(learning_rate="0.2"), "^MlpConfig: learning_rate must be float, got '0.2'$",
                     id="config11-^learning_rate must be a real, got '0.2'$"),
        pytest.param(dict(seed=1.5), "^MlpConfig: seed must be int, got 1.5$", id="float-seed"),
        pytest.param(dict(seed=-1), "^seed must be >= 0, got -1$", id="negative-seed"),
        pytest.param(dict(seed=True), "^MlpConfig: seed must be int, got True$", id="bool-seed"),
    ],
)
def test_bad_config_raises_before_the_first_step(monkeypatch, config, message):
    def no_weights(*args):
        raise AssertionError("a bad config must stop the fit before its weights are drawn")

    X, y = _pattern_dataset()
    monkeypatch.setattr(np.random, "default_rng", no_weights)
    with pytest.raises(FitError, match=message):
        MlpRegressor(MlpConfig(**config)).fit(X, y)


def _assert_same_fit(X, y, config):
    try:
        expected = reference_mlp_fit(X, y, config)
    except FitError as exc:
        with pytest.raises(FitError, match=f"^{exc}$"):
            MlpRegressor(config).fit(X, y)
        return
    got = MlpRegressor(config).fit(X, y)
    for name in ("W1", "b1", "w2"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    assert got.b2 == expected.b2
    assert got.final_loss == expected.final_loss


@pytest.mark.parametrize("n, d, hidden", [(1, 1, 1), (3, 2, 1), (216, 36, 16)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_buffered_steps_match_the_reference_loop_bit_for_bit(n, d, hidden, seed):
    rng = np.random.default_rng(100 * seed + n)
    X = rng.standard_normal((n, d))
    y = 0.3 * rng.standard_normal(n)
    _assert_same_fit(X, y, MlpConfig(hidden=hidden, iters=300, seed=seed))


def test_full_length_fit_on_pattern_data_matches_the_reference_loop():
    X, y = _pattern_dataset()
    _assert_same_fit(X, y, MlpConfig(seed=3))


@given(
    n=st.integers(1, 40),
    d=st.integers(1, 8),
    hidden=st.integers(1, 12),
    iters=st.integers(1, 40),
    learning_rate=st.floats(0.01, 8.0),
    seed=st.integers(0, 2**16),
)
def test_buffered_steps_match_the_reference_loop_on_any_shape(n, d, hidden, iters, learning_rate, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    _assert_same_fit(X, y, MlpConfig(hidden=hidden, learning_rate=learning_rate, iters=iters, seed=seed))


def test_diverging_fit_raises_as_the_reference_loop_does():
    X, y = _pattern_dataset()
    config = MlpConfig(learning_rate=1e9, iters=50)
    with pytest.raises(FitError) as expected:
        reference_mlp_fit(X, y * 1e6, config)
    with pytest.raises(FitError) as got:
        MlpRegressor(config).fit(X, y * 1e6)
    assert str(got.value) == str(expected.value) == "training loss became non-finite"


def test_shape_validation():
    with pytest.raises(FitError):
        MlpRegressor().fit(np.zeros((0, 3)), np.zeros(0))
    X, y = _pattern_dataset()
    model = MlpRegressor(MlpConfig(iters=10)).fit(X, y)
    with pytest.raises(ValueError, match="shape"):
        model.predict(np.zeros(3))


def test_save_writes_weights(tmp_path):
    X, y = _pattern_dataset()
    fitted = MlpRegressor(MlpConfig(seed=0, iters=10)).fit(X, y)
    fitted.save(tmp_path / "mlp.json")
    import json

    payload = json.loads((tmp_path / "mlp.json").read_text("utf-8"))
    assert payload["format"] == "mlp-snapshot/1"
    assert len(payload["w2"]) == 16
