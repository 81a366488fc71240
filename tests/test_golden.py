"""Byte-for-byte golden reports of the command line.

Each invocation below runs with ``--format json`` and its output is
compared with the report recorded under ``tests/golden/``: the report
itself in ``<name>.json``, or its SHA-256 in ``<name>.sha256`` when the
report is longer than a few KB.  The recorded reports pin the
``peakforge/1`` payloads across refactors of the algebra kernels; a change
that means to alter a report rewrites its file from the new output.
"""

import hashlib
from pathlib import Path

import pytest

from peakforge.cli import main

GOLDEN = Path(__file__).parent / "golden"

INVOCATIONS = {
    "klyachko-n3": ["klyachko", "--n", "3", "--check"],
    "klyachko-n4": ["klyachko", "--n", "4"],
    "klyachko-n5": ["klyachko", "--n", "5", "--check"],
    "bmaj-level2": ["bmaj", "--composition", "2,1,1,-3,-1,-2,4,-1,2,2"],
    "bmaj-colors3": ["bmaj", "--composition", "2~0,1~2,3~1", "--colors", "3"],
    "hilbert-peak-r3": ["hilbert", "--algebra", "peak", "--r", "3", "--max-degree", "5"],
    "hilbert-unital-peak-r2": [
        "hilbert", "--algebra", "unital-peak", "--r", "2", "--max-degree", "5",
    ],
    "hilbert-mrsharp-r3": [
        "hilbert", "--algebra", "mrsharp", "--r", "3", "--max-degree", "4",
    ],
    "hilbert-mrsharp-module-r2": [
        "hilbert", "--algebra", "mrsharp-module", "--r", "2", "--max-degree", "3",
    ],
    "closure-unital-peak-r3": [
        "closure", "--algebra", "unital-peak", "--r", "3", "--degree", "4",
    ],
    "closure-q-ring-r2": ["closure", "--algebra", "q-ring", "--r", "2", "--degree", "3"],
    "closure-q-module-r3": [
        "closure", "--algebra", "q-module", "--r", "3", "--degree", "4",
    ],
    "closure-bsym": ["closure", "--algebra", "bsym", "--degree", "3"],
    "oracle-sn": ["oracle", "--group", "Sn", "--n", "3"],
    "oracle-bn": ["oracle", "--group", "Bn", "--n", "2"],
    "invert-sharp": ["invert-sharp", "--max-degree", "3"],
    "generators-generic": ["generators", "--max-degree", "3"],
    "generators-r2": ["generators", "--r", "2", "--max-degree", "3"],
    "identities-plus": ["identities", "--q", "1", "--max-degree", "4"],
    "identities-minus": ["identities", "--q", "-1", "--max-degree", "4"],
    "monomial": ["monomial", "--n", "4"],
}


def report(argv, capsys) -> bytes:
    main(argv + ["--format", "json"])
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_matches_golden(name, capsys):
    out = report(INVOCATIONS[name], capsys)
    digest = GOLDEN / f"{name}.sha256"
    if digest.exists():
        assert hashlib.sha256(out).hexdigest() == digest.read_text().strip()
    else:
        assert out == (GOLDEN / f"{name}.json").read_bytes()
