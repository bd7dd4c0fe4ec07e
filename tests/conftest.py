"""Shared test setup."""

import os
from pathlib import Path

import pytest

from charstoch import representation

# the CLI tests run ``python -m charstoch`` in child processes, which
# import the package from this checkout's src/ as the tests do, so a
# plain ``python3 -m pytest`` needs no install and no PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def empty_table_slot():
    """Each test starts with an empty table slot, so no kernel table is
    held and no kernel moments are kept, and its table builds and
    memory peaks do not depend on the tests that ran before it."""
    representation._slot.clear()
