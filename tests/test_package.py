"""The package's public names: ``migtensor.__all__`` lists what it exports."""

from __future__ import annotations

import migtensor


def test_all_names_resolve_once():
    assert len(set(migtensor.__all__)) == len(migtensor.__all__)
    missing = [name for name in migtensor.__all__ if not hasattr(migtensor, name)]
    assert missing == []
