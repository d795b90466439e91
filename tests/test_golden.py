"""Seeded training and ``predict`` on every config give the bits recorded in
``golden.json`` (regenerated by ``make_golden.py``).

On a host whose numpy version and OpenBLAS kernel match the file's key, every
parameter digest and the label digest must match exactly. On any other host
only the float fingerprint is compared, at 1e-10 relative: another kernel
rounds products differently, which moves it by about 5e-15."""

import json
import math

import pytest

from make_golden import CONFIGS, GOLDEN, host_key, run

DOC = json.loads(GOLDEN.read_text())
EXACT = DOC["key"] == host_key()
REL_TOL = 1e-10


def _fingerprint(entry: dict) -> dict:
    """The loss of each step and the sum of each ledger group, one key each."""
    return {**{f"loss[{i}]": v for i, v in enumerate(entry["losses"])},
            **{f"sum[{g}]": v for g, v in entry["sums"].items()}}


@pytest.mark.parametrize("config_name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_seeded_training_and_predict_match_the_golden_file(config_name):
    want, got = DOC["configs"][config_name], run(config_name)
    if EXACT:
        print(f"golden {config_name}: exact digests on {DOC['key']}")
        assert got["params"].keys() == want["params"].keys()
        differ = [n for n in want["params"] if got["params"][n] != want["params"][n]]
        assert not differ, f"{config_name}: parameter '{differ[0]}' differs"
        assert got["labels"] == want["labels"], f"{config_name}: predict labels differ"
    else:
        print(f"golden {config_name}: fingerprint only at {REL_TOL:g}; this host "
              f"{host_key()} is not the file's {DOC['key']}")
    got, want = _fingerprint(got), _fingerprint(want)
    assert got.keys() == want.keys(), config_name
    off = [k for k in want if not math.isclose(got[k], want[k], rel_tol=REL_TOL, abs_tol=0.0)]
    assert not off, f"{config_name}: {off[0]} is {got[off[0]]!r}, expected {want[off[0]]!r}"
