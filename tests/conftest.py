import pytest

from isocap import linear_core


@pytest.fixture
def eliminations(monkeypatch):
    """The calls to linear_core.schur_solver from here on, one (keep,
    eliminate) length pair each: every elimination, and every gather with
    nothing eliminated, that a call makes."""
    calls = []
    solver = linear_core.schur_solver

    def counting(K, keep, eliminate):
        calls.append((len(keep), len(eliminate)))
        return solver(K, keep, eliminate)

    monkeypatch.setattr(linear_core, "schur_solver", counting)
    return calls
