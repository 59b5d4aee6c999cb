"""`construct` output pinned by SHA-256 digests.

Each case runs every instance of one construction through the CLI, in
one output format, and digests the exit codes and outputs in order; a
change to any colour, clique id or byte of the text changes a digest.
JSON is checked with ``--check`` and 0-based ids, DOT with
``--one-based``. To re-record after an intended witness change, print
``_digest(argvs, capsys)`` for each case and say in CHANGES.md why the
witnesses changed.
"""

import hashlib

import pytest

from deltachrom.cli import main

INSTANCES = {
    "star-star": [(m, n) for m in range(3, 9) for n in range(3, 9)],
    "star-path": [(m, n) for m in range(3, 7) for n in range(3, 13)],
    "path-path": [(n, k) for n in range(6, 13) for k in range(n, 13)],
    "join-p3": [("C5",), ("C7",), ("X(C3,C3)",)],
    "degree-diff": [("C5", "P3"), ("P4", "S1,5")],
}
FORMATS = {
    "json": ("--check",),
    "dot": ("--fmt", "dot", "--one-based"),
}
GOLDEN = {
    ("star-star", "json"):
        "819088651c4c93f2e1ff279cfff0c516432b8215a58f3ee1ed545841e7f7fb1c",
    ("star-star", "dot"):
        "737bd81a15ac582256ea2a289d3bb9beae5621eac3e0d2c25a9226ee42ceaa7d",
    ("star-path", "json"):
        "10cc3466a652305644fc69947e97cd1b4577760be0aae0bf1594b4834a2d406f",
    ("star-path", "dot"):
        "c10fb6f6bfb897bbafd73dc73badc4d886fb359cca9557477a0afdfcf50f968d",
    ("path-path", "json"):
        "61e2d15d4a4622f86966e1a348ff156f4a2417f59493ce9fe0547b17f73626ca",
    ("path-path", "dot"):
        "717a9d82ec10a75439908de4970a9303011519dec6752f45170a302d2a6941c2",
    ("join-p3", "json"):
        "b5eb9730c506dea53eba762b339e08c09f6218b2fca513f0a1225503b61b48e2",
    ("join-p3", "dot"):
        "f39561ad50a25ea89b2b602207d6d844d515dca58faaf08ff7e3d02358dd7610",
    ("degree-diff", "json"):
        "9af95f522c6b07118e2334eba5024c25eefebaee1b01a4bee6b0f2de2a7428b7",
    ("degree-diff", "dot"):
        "0b96d4d75208eb1ace37bdacd82b7a5a8c7b58b448503a4da0ba635ece590e73",
}


def _digest(argvs, capsys) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        code = main(list(argv))
        h.update(f"{code}\n{capsys.readouterr().out}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,fmt", list(GOLDEN))
def test_construct_output_is_unchanged(name, fmt, capsys, monkeypatch):
    monkeypatch.delenv("DELTACHROM_TIMEOUT", raising=False)
    argvs = [("construct", name, *map(str, params), *FORMATS[fmt])
             for params in INSTANCES[name]]
    assert _digest(argvs, capsys) == GOLDEN[(name, fmt)]
