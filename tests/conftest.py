import pytest
from hypothesis import settings

from brakeopt import config as cfgmod

# every property test: the same examples on every run, no stored failures,
# and no time limit per example; each test sets only its max_examples
settings.register_profile("brakeopt", deadline=None, derandomize=True, database=None)
settings.load_profile("brakeopt")


@pytest.fixture(scope="session")
def cfg():
    return cfgmod.default_config()


@pytest.fixture(scope="session")
def setup(cfg):
    return cfgmod.setup_from(cfg)


@pytest.fixture(scope="session")
def input_model(cfg):
    return cfgmod.input_model_from(cfg)
