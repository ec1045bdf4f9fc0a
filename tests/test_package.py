"""The package's public name surface."""

import types

import confmech


def test_all_holds_no_modules():
    exported = [getattr(confmech, name) for name in confmech.__all__]
    assert not [m for m in exported if isinstance(m, types.ModuleType)]
    assert "Observable" in confmech.__all__
    assert "phase" not in confmech.__all__
