"""Fixtures shared by the test suite; the plain builders are in ``helpers``."""

from __future__ import annotations

import numpy as np
import pytest

from seasondid import ProtectionCalendar

from helpers import window


@pytest.fixture
def tomato_calendar() -> ProtectionCalendar:
    """One product protected May 10 .. Aug 31 (both dates mid-week in most
    years, so Boundary weeks exist)."""
    return ProtectionCalendar({"tomato": window("05-10", "08-31")})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
