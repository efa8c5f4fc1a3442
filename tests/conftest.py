"""Fixtures that several test modules share."""

import pytest

from parkres import verify


@pytest.fixture(scope="session")
def verify_all_checks():
    """The checks of ``verify.run_suite("all")`` at its default bounds, run
    once for every test that reads them (about 0.6 s on a 2-core VM)."""
    return verify.run_suite("all")
