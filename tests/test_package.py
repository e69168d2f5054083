"""Package surface: every exported name exists."""

from __future__ import annotations

import tubekernels


def test_all_names_resolve():
    missing = [name for name in tubekernels.__all__ if not hasattr(tubekernels, name)]
    assert missing == []
