import os
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"
sys.path.insert(0, str(TESTS_DIR))
# The checkout's own package comes first, for pytest and for every child
# interpreter a test starts, whatever directory either runs from.
sys.path.insert(0, str(SRC_DIR))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC_DIR)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

FIXTURES = TESTS_DIR / "fixtures"
GOLDEN = TESTS_DIR / "golden"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def controller_spec() -> Path:
    return FIXTURES / "controller-spec.vcl"


@pytest.fixture
def controller_net() -> Path:
    return FIXTURES / "controller.vnet"


@pytest.fixture
def controller_zero_net() -> Path:
    return FIXTURES / "controller-zero.vnet"


@pytest.fixture
def four_relu_spec() -> Path:
    return FIXTURES / "four-relu-spec.vcl"


@pytest.fixture
def four_relu_net() -> Path:
    return FIXTURES / "four-relu.vnet"
