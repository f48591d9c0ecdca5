"""The package's public names."""

from __future__ import annotations

import mwpeval


def test_every_public_name_resolves_once():
    assert len(mwpeval.__all__) == len(set(mwpeval.__all__))
    missing = [name for name in mwpeval.__all__ if not hasattr(mwpeval, name)]
    assert missing == []
