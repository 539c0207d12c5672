import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from timtin import decomp
from timtin.fixtures import BASELINE_TIM_LINKS, IMPROVED_TIM_LINKS, five_user_network


@pytest.fixture(scope="session")
def network5():
    return five_user_network()


@pytest.fixture(scope="session")
def baseline_result(network5):
    return decomp.evaluate_map(network5, decomp.map_mask(network5, BASELINE_TIM_LINKS))


@pytest.fixture(scope="session")
def improved_result(network5):
    return decomp.evaluate_map(network5, decomp.map_mask(network5, IMPROVED_TIM_LINKS))
