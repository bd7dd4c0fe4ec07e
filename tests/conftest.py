"""Shared test setup."""

import pytest

from charstoch import representation


@pytest.fixture(autouse=True)
def empty_table_slot():
    """Each test starts with no kernel table held and no kernel moments
    kept, so that its table builds and memory peaks do not depend on
    the tests that ran before it."""
    representation._slot.clear()
    representation._last_results = None
