"""`verify` output pinned by SHA-256 digests.

The `verify all` digests were recorded from the verify harness before it
was rewritten as row generators, and the `degree-diff --max 60` one
before degree-diff shared one solve among equal graphs; a change to any
row, its order or its text changes a digest. The CSV is compared
without its timing column, which varies from run to run. To re-record
after an intended output change, print ``_digest(*_output(argv))`` for
each case and say in CHANGES.md why the rows changed.
"""

import hashlib

import pytest

from deltachrom.cli import main

GOLDEN = {
    ("verify", "all"): (
        0, "cfdacc1b4b3c61103a234c1871e0e00d7380b843d9790fb845bea74a4938f4de"),
    ("verify", "all", "--seed", "3"): (
        0, "a800ae7f2f790a693642a2ae0d3064b2c12c49c15804b4af5914037a155f3873"),
    ("verify", "all", "--fmt", "csv"): (
        0, "fa7e084236b7ed1086f94cb0bd3fe12fe5d89d19aba4afb4c8803d52e0405739"),
    ("verify", "all", "--timeout", "0"): (
        3, "a174de289103bafe59bc93408f28b466eb413310a445d51967aecc341b6e8f8d"),
    ("verify", "all", "--trials", "5", "--max", "12"): (
        0, "d64f3534aac94b3f378271a141ee85531034c0260d6c06e7328c7dfd10b9d6d2"),
    ("verify", "degree-diff", "--max", "60"): (
        0, "e8a7f55ad481ebc67f174e3bdd3555c123706e466e7fae04ac7094570ae1e96a"),
}


def _output(argv, capsys):
    code = main(list(argv))
    text = capsys.readouterr().out
    if "csv" in argv:
        text = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
    return code, text


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv[1:]))
def test_verify_all_output_is_unchanged(argv, capsys, monkeypatch):
    monkeypatch.delenv("DELTACHROM_TIMEOUT", raising=False)
    code, text = _output(argv, capsys)
    assert (code, _digest(text)) == GOLDEN[argv]
