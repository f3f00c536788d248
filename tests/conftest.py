import pytest

from sirtimes import ModelParams


@pytest.fixture
def p23():
    # rho = 1.5
    return ModelParams(beta=2.0, gamma=3.0, mu=1.0)


@pytest.fixture
def p33():
    # rho = 1
    return ModelParams(beta=3.0, gamma=3.0, mu=1.0)
