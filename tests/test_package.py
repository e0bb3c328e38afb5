"""The package's public names: listed in `__all__` and loaded on first use."""

import pytest

import rcrs


def test_every_public_name_resolves():
    for name in rcrs.__all__:
        value = getattr(rcrs, name)
        assert getattr(value, "__name__", name) == name
        assert name in dir(rcrs)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rcrs import *", namespace)
    assert set(rcrs.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rcrs.no_such_name


def test_a_rebound_name_is_seen_at_the_next_lookup(monkeypatch):
    import rcrs.oracle

    original = rcrs.exec_det

    def replacement(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(rcrs.oracle, "exec_det", replacement)
    assert rcrs.exec_det is replacement
    monkeypatch.undo()
    assert rcrs.exec_det is original
