"""Golden digests: the CSV of every preset is pinned byte for byte.

The digests were recorded with qss 1.0's dict-of-ids mode algebra; any
change to a float operation or to the order of a sum shows up here.
fig4b is an alias of fig3b in the preset table, so the two share a digest.
"""

import hashlib

import pytest

from qss import harness

GOLDEN_CSV_SHA256 = {
    "fig2a": "db5d5496110cf6f49136aaf1b3d50960e024b948b03d9217853b55b849459044",
    "fig2b": "c720de08c2db4686c012107a4ab491d11ce56febd5754d14331c4f3e26eb0449",
    "fig3a-classical": "82c729dab8e1d801ca368b85cf376ed9fcc7f9c55f6dae8faeb182d3277f95e2",
    "fig3b": "936e1833527013629288a15ce92d8e7316afc7188075f9706fa0f3cdcd0ff5d9",
    "fig3b-inset-mz": "185893459e9d1794128f707f3cb78e4b069fc8baff98d9c0de764e16ab4e8594",
    "fig4a-classical": "3451d46ee7977ddfccb9532412dca62d66c8ea9ec7ee6a8ab0b5e5a6ee0c9184",
    "fig4b": "936e1833527013629288a15ce92d8e7316afc7188075f9706fa0f3cdcd0ff5d9",
    "fig5-adversary": "0abb3cd2d82d66bd298c52d593b4a104d3d105877c3df3b6611b1a5dca7c5d8e",
    "summary": "8fa2f155dee8e6085a9671a66b5ed4f43c30fd26e58e5e3253ad9ea7e3c7929a",
}


def test_every_preset_is_pinned():
    assert sorted(GOLDEN_CSV_SHA256) == sorted(harness.PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_preset_csv_matches_golden_digest(name):
    result = harness.run(harness.preset_config(name))
    csv = harness.rows_to_csv(result.columns, result.rows)
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == GOLDEN_CSV_SHA256[name]
