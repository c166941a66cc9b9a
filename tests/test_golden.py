"""Golden digests: the CSV and the JSON of every preset are pinned byte
for byte.

The CSV digests were recorded with qss 1.0's dict-of-ids mode algebra;
any change to a float operation or to the order of a sum shows up here.
The JSON digests were recorded from the row-dict ``json.dumps`` writer;
JSON carries every float at full ``repr`` precision, so they also pin the
last bits that the CSV's nine digits round away.
The region digests pin ``qss region``'s CSV of every sweep preset; they
were recorded from the dict-and-sort frontier that
``reference_pareto_frontier`` below keeps.
fig4b is an alias of fig3b in the preset table, so the two share a digest.
The summary digests were re-recorded when the feed-forward gains became
closed forms, which moved its unity-gain row by at most 12 ulp.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qss import cli, harness

GOLDEN_CSV_SHA256 = {
    "fig2a": "db5d5496110cf6f49136aaf1b3d50960e024b948b03d9217853b55b849459044",
    "fig2b": "c720de08c2db4686c012107a4ab491d11ce56febd5754d14331c4f3e26eb0449",
    "fig3a-classical": "82c729dab8e1d801ca368b85cf376ed9fcc7f9c55f6dae8faeb182d3277f95e2",
    "fig3b": "936e1833527013629288a15ce92d8e7316afc7188075f9706fa0f3cdcd0ff5d9",
    "fig3b-inset-mz": "185893459e9d1794128f707f3cb78e4b069fc8baff98d9c0de764e16ab4e8594",
    "fig4a-classical": "3451d46ee7977ddfccb9532412dca62d66c8ea9ec7ee6a8ab0b5e5a6ee0c9184",
    "fig4b": "936e1833527013629288a15ce92d8e7316afc7188075f9706fa0f3cdcd0ff5d9",
    "fig5-adversary": "0abb3cd2d82d66bd298c52d593b4a104d3d105877c3df3b6611b1a5dca7c5d8e",
    "summary": "b7cef86b3600f07e69142a327d2b54bcf01f51f4066081be876006802aaaf654",
}

GOLDEN_JSON_SHA256 = {
    "fig2a": "a40c8eb20dd3fdbe26535cc8e80e625f7e5f7f73ce20f1425914c19ac95a9f69",
    "fig2b": "27f33fad2acf8716de8ed325f007deab25a62aed8c44304a07dea2912727167c",
    "fig3a-classical": "d15122ed1af9756014d41fb500062bbd5ff624fbcb544daebc85f9faef50c874",
    "fig3b": "28e127fb6d3dcc3e6ce51b0fe3825bdc3c76ab06ffebd77659987115585de53a",
    "fig3b-inset-mz": "d35048e277a30c1cbc0720c01deda008884eb50893c0d15533b88c7c904b648b",
    "fig4a-classical": "14d570d6f44d42c3a8f93d3b6e7c401818c80392ecafb80489d6a6441a507715",
    "fig4b": "28e127fb6d3dcc3e6ce51b0fe3825bdc3c76ab06ffebd77659987115585de53a",
    "fig5-adversary": "6fdf7adc30f57b6ab2cf8f682fef5982736b57c1f8c630c6454c2d23bbbd3e25",
    "summary": "ada53aa74f520b3fae593635d2985d1a052944e0c451b5ba8436b625cd099ea4",
}


GOLDEN_REGION_CSV_SHA256 = {
    "fig2a": "c1b033397653f4b235f41ed7e51720e43b36e78f17cefe54ef1b96ff412d34c9",
    "fig2b": "cd7ed127cec623e2bc732b504d6496090e1017ed8a1ff25cfc07a15783554387",
    "fig3a-classical": "6251df4a2d43d01dd0701eff4ab85b6dd62af91b33a90ff01d39889b69a02867",
    "fig3b": "79bc179c9054af3f98efbe193765ca816076475da429adac7ce5f09efaa155e5",
    "fig3b-inset-mz": "4816d049d612f48cf448466c72cd08a5e21fef6147ed1fdfda53d8a2929228ca",
    "fig4a-classical": "c1b033397653f4b235f41ed7e51720e43b36e78f17cefe54ef1b96ff412d34c9",
    "fig4b": "79bc179c9054af3f98efbe193765ca816076475da429adac7ce5f09efaa155e5",
    "fig5-adversary": "3c815211cc38882e5167d63a84aa02df16d134f559494ffde085aa19742ec7c6",
}


def test_every_preset_is_pinned():
    assert sorted(GOLDEN_CSV_SHA256) == sorted(GOLDEN_JSON_SHA256) == sorted(harness.PRESETS)
    assert sorted(GOLDEN_REGION_CSV_SHA256) == sorted(set(harness.PRESETS) - {"summary"})


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_preset_csv_matches_golden_digest(name):
    result = harness.run(harness.preset_config(name))
    csv = harness.rows_to_csv(result)
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == GOLDEN_CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON_SHA256))
def test_preset_json_matches_golden_digest(name):
    result = harness.run(harness.preset_config(name))
    text = harness.result_to_json(result)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_JSON_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_REGION_CSV_SHA256))
def test_region_csv_matches_golden_digest(name, capsys):
    assert cli.main(["region", "--preset", name]) == 0
    csv = capsys.readouterr().out
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == GOLDEN_REGION_CSV_SHA256[name]


def reference_pareto_frontier(points):
    """The frontier as a per-point loop: dedup T in a dict, sort by
    (-T, V), keep each point below the running minimum of V."""
    best = {}
    for t, v in points:
        if not (math.isfinite(t) and math.isfinite(v)):
            continue
        if t not in best or v < best[t][1]:
            best[t] = (t, v)
    frontier = []
    min_v = math.inf
    for t, v in sorted(best.values(), key=lambda p: (-p[0], p[1])):
        if v < min_v:
            frontier.append((t, v))
            min_v = v
    frontier.reverse()
    return frontier


# A few values, signed zeros and non-finite ones among them, so that ties
# in T and in V are common; any float besides.
_COORDS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf]) | st.floats()


@settings(max_examples=500, deadline=None)
@given(points=st.lists(st.tuples(_COORDS, _COORDS), max_size=30))
@example(points=[])
@example(points=[(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0), (math.nan, math.nan)])
@example(points=[(0.0, 1.0), (-0.0, 0.5), (0.0, 0.5), (-1.0, -0.0), (-1.0, 0.0)])
@example(points=[(-0.0, 0.0), (0.0, -0.0)])
def test_pareto_frontier_matches_the_per_point_loop(points):
    t, v = (np.array([p[i] for p in points], dtype=float) for i in (0, 1))
    # repr tells -0.0 from 0.0, and a numpy float from a Python one.
    assert repr(harness.pareto_frontier(t, v)) == repr(reference_pareto_frontier(points))
