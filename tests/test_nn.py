import numpy as np
import pytest

from peermatch.features import HashingEmbedder
from peermatch.gp import FitError
from peermatch.nn import MlpConfig, MlpRegressor
from peermatch.personas import enumerate_personas


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
