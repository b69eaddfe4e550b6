import numpy as np
import pytest

from rydshe import canonical_atom, canonical_drive


@pytest.fixture(scope="session")
def atom():
    return canonical_atom()


@pytest.fixture(scope="session")
def drive0():
    return canonical_drive(0.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
