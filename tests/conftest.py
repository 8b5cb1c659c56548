import hypothesis
import pytest

from peermatch.corpus import Exercise
from peermatch.personas import Learner, Persona, default_cohort, default_prompts

hypothesis.settings.register_profile("ci", deadline=None, max_examples=60)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def prompts():
    return default_prompts()


@pytest.fixture(scope="session")
def cohort():
    return default_cohort()


@pytest.fixture
def exercise():
    return Exercise(
        id="hydrology/0",
        stem="Which statement about the routed flood wave is consistent with the data?",
        options=(
            "attenuation dominates the reach",
            "the celerity exceeds the observed wave speed",
            "storage effects are negligible",
            "the rating curve is single-valued",
        ),
        key="B",
        domain="hydrology",
        category="STEM",
    )


@pytest.fixture
def learner():
    return Learner(id="L-a", persona=Persona(1, -1))


@pytest.fixture
def partner():
    return Learner(id="L-b", persona=Persona(-1, 1))
