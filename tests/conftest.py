"""Shared fixtures: expensive tables built once per session."""

import pytest

import oracles


@pytest.fixture(scope="session")
def rho_table():
    return oracles.build_rho_table(20.0)
