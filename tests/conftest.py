"""Fixtures shared by the test modules."""

import pytest

from umbra import models


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.<name>``, a module
    function or a method, for the rest of the test and returns a list
    that grows by the positional arguments of each call.  The Fock pair
    that the models of one degree share (``models._fock_pair``) is
    dropped first, so that a count never depends on the work earlier
    tests left on it."""
    models._fock_pair.cache_clear()

    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
