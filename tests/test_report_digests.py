"""Standing byte-identity check of the CLI's reports.

Each argv below is run in process with --no-timestamp, once with --json
and once as text; the exit code and the sha256 of stdout must match
tests/report_digests.json, whose text entries carry the suffix " (text)".
A change that alters a report on purpose regenerates the file with

    PYTHONPATH=src python tests/test_report_digests.py > tests/report_digests.json

and says in CHANGES.md which entries moved and why.
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from quartaut.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")

# (g, d) of every catalog link curve, plus one pair outside it
CURVE_GDS = ((14, 11), (6, 9), (10, 10), (2, 8), (11, 10), (3, 6), (5, 8), (4, 8),
             (3, 8), (15, 11))
ADMISSIBLE = (9, 12, 16, 17, 20, 24, 25, 28, 32, 33, 36, 40, 41, 44, 48, 49, 56, 57)


def argvs() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for cmd in ("classify", "realize"):
        out += [(cmd, "--r", str(r)) for r in [*range(-2, 130), 265]]
        out += [(cmd, "--b", str(b), "--c", str(c)) for b in range(6) for c in range(-5, 2)]
        out += [(cmd, "--b", "3")]
    out += [("curve-class", "--r", str(r), "--genus", str(g), "--degree", str(d))
            for r in ADMISSIBLE for g, d in CURVE_GDS]
    out += [
        ("curve-class", "--b", "1", "--c", "-2", "--genus", "17", "--degree", "71"),
        ("curve-class", "--b", "11", "--c", "13", "--genus", "14", "--degree", "11"),
        ("curve-class", "--r", "17", "--genus", "3", "--degree", "5"),
        ("curve-class", "--r", "8", "--genus", "2", "--degree", "8"),
        ("pell", "--r", "17", "--n", "8", "--bound", "3"),
        ("pell", "--r", "20", "--n", "8"),
        ("pell", "--r", "16", "--n", "-8"),
        ("pell", "--r", "41", "--n", "-8", "--bound", "5"),
        ("pell", "--r", "25", "--n", "0"),
        ("pell", "--b", "1", "--c", "-2", "--n", "-2"),
        ("pell", "--r", "0", "--n", "8"),
        ("pell", "--r", "17", "--n", "8", "--bound", "0"),
        ("classify", "--r", "17", "--b", "8", "--c", "1"),
        ("curve-class", "--r", "17", "--b", "8", "--c", "1", "--genus", "2", "--degree", "8"),
        ("pell", "--r", "17", "--b", "8", "--c", "1", "--n", "8"),
        ("link",),
        ("link", "--genus", "14", "--degree", "11"),
        ("link", "--genus", "7", "--degree", "7"),
        ("link", "--genus", "14"),
        ("exclusion",),
        ("antiflip-check",),
        ("verify-paper",),
    ]
    return out


def digest(argv: tuple[str, ...]) -> list:
    """[exit code, sha256 of stdout] of one in-process call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--no-timestamp"])
    return [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]


def digests() -> dict[str, list]:
    """Every argv's --json digest keyed by the argv, then its text digest
    keyed by the argv plus " (text)"."""
    out = {" ".join(a): digest((*a, "--json")) for a in argvs()}
    out.update({" ".join(a) + " (text)": digest(a) for a in argvs()})
    return out


def test_reports_match_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    moved = [k for k in got if got[k] != want[k]]
    assert not moved, f"{len(moved)} reports changed: {moved}"


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1)
    print()
