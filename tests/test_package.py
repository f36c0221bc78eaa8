"""Tests for the package namespace itself."""

import types

import egoflux


def test_all_is_every_public_name_that_is_not_a_module():
    public = {name for name, value in vars(egoflux).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(egoflux.__all__) == sorted(public)
    assert len(set(egoflux.__all__)) == len(egoflux.__all__)
