import pytest

from wtc.claims import REGISTRY, ClaimSpec


@pytest.fixture
def stub_evaluate(monkeypatch):
    """stub_evaluate(claim_id, evaluate) registers, for one test, the claim
    with its evaluator replaced and every other field kept."""
    def stub(claim_id, evaluate):
        s = REGISTRY[claim_id]
        monkeypatch.setitem(REGISTRY, claim_id, ClaimSpec(
            s.id, s.summary, s.scale_name, s.default_scale, s.next_scale, s.min_scale,
            s.max_scale, evaluate, s.expectations))
    return stub
