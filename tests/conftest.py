"""Shared fixtures: expensive tables built once per session."""

import pytest

from friable import dickman


@pytest.fixture(scope="session")
def rho_table():
    return dickman.build_rho_table(20.0)
