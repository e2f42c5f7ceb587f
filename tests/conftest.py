import numpy as np
import pytest

import goldens
from fuzzydocs.fcm import FeatureMatrix
from fuzzydocs.features import LabeledProfile


@pytest.fixture
def example_matrix() -> FeatureMatrix:
    return FeatureMatrix(goldens.DOC_IDS, np.array(goldens.EXAMPLE_ROWS))


@pytest.fixture
def crisp_init() -> np.ndarray:
    return np.array(goldens.CRISP_INIT)


@pytest.fixture
def sports_profile() -> LabeledProfile:
    return LabeledProfile("sports", dict(goldens.SPORTS_WF))


@pytest.fixture
def politics_profile() -> LabeledProfile:
    return LabeledProfile("politics", dict(goldens.POLITICS_WF))


@pytest.fixture
def profiles(sports_profile, politics_profile) -> list[LabeledProfile]:
    return [sports_profile, politics_profile]
