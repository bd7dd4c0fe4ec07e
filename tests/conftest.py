"""Shared test setup."""

import pytest

from charstoch import representation


@pytest.fixture(autouse=True)
def empty_table_slot():
    """Each test starts with an empty table slot, so no kernel table is
    held and no kernel moments are kept, and its table builds and
    memory peaks do not depend on the tests that ran before it."""
    representation._slot.clear()
