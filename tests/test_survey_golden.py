"""The survey contract: `survey 2 120` repeats the committed golden CSV on
every row it decided there. Only a golden `Unknown` row may change, and only
its verdict and source. The golden file is read as plain data."""
import csv
import io
from pathlib import Path

from znvce.cli import cmd_survey

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden_survey.csv"


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def test_survey_2_120_matches_the_golden_csv():
    golden = _rows(GOLDEN.read_text())
    got = _rows(cmd_survey(2, 120))
    assert got[0] == golden[0] == ["n", "family", "shape", "vertices", "verdict", "source"]
    assert len(got) == len(golden) == 596
    verdict = golden[0].index("verdict")
    for want, row in zip(golden[1:], got[1:]):
        if want[verdict] == "Unknown":
            assert row[:verdict] == want[:verdict]
        else:
            assert row == want
