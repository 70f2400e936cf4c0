import pytest
import scipy.linalg


@pytest.fixture
def lu_factor_calls(monkeypatch):
    """A list that grows by one on every ``scipy.linalg.lu_factor`` call."""
    calls = []
    original = scipy.linalg.lu_factor

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
    return calls


@pytest.fixture
def resolvent_lambdas(monkeypatch):
    """A list that grows by the lambda of every ``Resolvent`` constructed."""
    from gptshape.npo import Resolvent

    lams = []
    original = Resolvent.__init__

    def counting(self, npo, lam):
        lams.append(lam)
        original(self, npo, lam)

    monkeypatch.setattr(Resolvent, "__init__", counting)
    return lams
