"""Byte identity of the CLI on a fixed grid of calls (tests/digest_grid.py)."""

import json

from digest_grid import DIGESTS, digests, moved


def test_cli_outputs_match_committed_digests():
    # one digest per (command, format, level): a failure lists the groups
    # whose output moved; rewrite the file with tests/digest_grid.py only
    # for an intended change, and name each moved group in CHANGES.md
    assert moved(json.loads(DIGESTS.read_text()), digests()) == []
