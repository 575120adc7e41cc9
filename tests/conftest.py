"""Every test starts with the library's module-level memos empty, so whether
a counting wrapper sees a call does not depend on which tests ran before."""

import pytest

from _memos import clear_memos


@pytest.fixture(autouse=True)
def _empty_memos():
    clear_memos()
