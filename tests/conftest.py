from pathlib import Path

import pytest
from hypothesis import settings

import activemon

SPEC_DIR = Path(activemon.__file__).parent / "specs"


@pytest.fixture(scope="session")
def spec_dir() -> Path:
    return SPEC_DIR


@pytest.fixture(scope="session")
def drone_text() -> str:
    return (SPEC_DIR / "drone_experiment.lola").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def conflict_text() -> str:
    return (SPEC_DIR / "priority_conflict.lola").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def geofence_text() -> str:
    return (SPEC_DIR / "geofence_priority.lola").read_text(encoding="utf-8")


# a longer run of the derandomized CLI fuzzer, which takes its number of
# examples from the profile:
#   pytest tests/test_cli_fuzz.py --hypothesis-profile=fuzz
settings.register_profile("fuzz", max_examples=3000, derandomize=True)
