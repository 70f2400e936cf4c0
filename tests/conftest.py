import pytest


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
