"""Every registered claim's report at its default scale, `repr(run_claim(id))`,
against its committed line in claim_reprs.txt: one line per claim, in
registry order.  Values, verdicts and witnesses are all in the repr, so a
change that moves any of them fails here; such a change rewrites the file
(`PYTHONPATH=src python tests/test_claim_reprs.py`) and names the lines
that moved."""

from pathlib import Path

import pytest

from wtc.claims import REGISTRY, run_claim

GOLDEN = Path(__file__).with_name("claim_reprs.txt")


def golden() -> dict[str, str]:
    # each line starts ClaimReport(claim_id='<id>', ...
    return {line.split("'")[1]: line for line in GOLDEN.read_text().splitlines()}


def test_one_line_per_registered_claim():
    assert list(golden()) == list(REGISTRY)


@pytest.mark.parametrize("claim_id", list(REGISTRY))
def test_claim_repr_matches_committed_line(claim_id):
    assert repr(run_claim(claim_id)) == golden()[claim_id]


if __name__ == "__main__":
    GOLDEN.write_text("".join(repr(run_claim(c)) + "\n" for c in REGISTRY))
