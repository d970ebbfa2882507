"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.<name>``, a module
    function or a method, for the rest of the test and returns a list
    that grows by the positional arguments of each call."""

    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
