"""Every campaign outcome the sweep tests build is strict JSON.

``canonical_bytes()`` is what backends are compared by and what ``repro
sweep --json`` prints; Python's ``json`` would happily emit the bare
tokens ``NaN`` / ``Infinity`` that no other parser accepts.  Each call in
this directory is therefore re-read by a parser that refuses them.
"""

import json

import pytest

from repro.sweep.spec import SweepOutcome


def strict_loads(data: bytes):
    def refuse(token):
        raise AssertionError(f"canonical bytes hold the non-JSON token {token}")

    return json.loads(data, parse_constant=refuse)


def row_named(outcome: SweepOutcome, name: str):
    """The campaign's row for the case *name*."""
    (row,) = [row for row in outcome.rows if row.name == name]
    return row


@pytest.fixture(autouse=True)
def canonical_bytes_are_strict_json(monkeypatch):
    canonical_bytes = SweepOutcome.canonical_bytes

    def checked(self):
        data = canonical_bytes(self)
        strict_loads(data)
        return data

    monkeypatch.setattr(SweepOutcome, "canonical_bytes", checked)
