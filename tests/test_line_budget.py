"""Source size: the package stays within the line budget that ROADMAP item 2 sets for this round."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eqtraffic"
LINE_BUDGET = 3977  # `wc -l src/eqtraffic/*.py`


def test_package_stays_within_the_line_budget():
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    assert "model.py" in counts
    assert sum(counts.values()) <= LINE_BUDGET, f"{sum(counts.values())} lines > {LINE_BUDGET}: {counts}"
