"""Differential harness: every exact miner against the brute-force
miners on generated worlds built to hit the edge cases.

A world is a few objects on a small integer lattice with ``eps = 1``, so
lattice neighbours are exactly ``eps`` apart and objects often share a
position. Objects move now and then, drop out of single timestamps, and
whole timestamps may be missing inside the timeline. ``k`` ranges past
the timeline's length and ``m`` past the number of objects.

* Fully connected miners — k/2-hop on the File, RDBMS and LSMT stores
  (the LSMT flushing every two points), VCoDA, VCoDA* and Spark k/2-hop —
  must equal :func:`brute_force_fc_convoys`.
* Partially connected miners — PCCD, DCM over a drawn partition
  length, and SPARE — must equal :func:`brute_force_convoys`.
"""
from contextlib import closing

import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.bruteforce import brute_force_convoys, brute_force_fc_convoys
from repro.baselines.cmc import pccd
from repro.baselines.dcm import dcm
from repro.baselines.spare import spare
from repro.baselines.vcoda import vcoda, vcoda_star
from repro.core.k2hop import k2hop
from repro.core.k2hop_spark import k2hop_spark
from repro.stores import FileStore, LSMTStore, RDBMSStore
from repro.stores.base import COLUMNS

EPS = 1.0
SCHEMA = "t long, oid long, x double, y double"


@st.composite
def worlds(draw) -> pd.DataFrame:
    """A (t, oid, x, y) frame of up to 6 objects over up to 9 timestamps."""
    n_obj = draw(st.integers(1, 6))
    n_t = draw(st.integers(1, 9))
    cell = st.tuples(st.integers(0, 3), st.integers(0, 2))
    pos = [draw(cell) for _ in range(n_obj)]
    gaps = draw(st.sets(st.integers(0, n_t - 1), max_size=2))
    rows = []
    for t in range(n_t):
        for o in range(n_obj):
            if draw(st.integers(0, 3)) == 0:  # moves
                pos[o] = draw(cell)
            if t not in gaps and draw(st.integers(0, 5)) > 0:  # else drops out
                rows.append((t, o, float(pos[o][0]), float(pos[o][1])))
    return pd.DataFrame(rows, columns=COLUMNS).astype({"t": "int64", "oid": "int64"})


@st.composite
def queries(draw):
    """A world and an (m, k) reaching past its object count and timeline."""
    df = draw(worlds())
    n_obj = max(df["oid"].nunique(), 1)
    n_t = df["t"].max() - df["t"].min() + 1 if len(df) else 1
    return df, draw(st.integers(2, n_obj + 1)), draw(st.integers(2, n_t + 2))


@settings(max_examples=150, deadline=None)
@given(queries())
def test_fc_miners_equal_bruteforce(query):
    df, m, k = query
    file = FileStore(df)
    exp = brute_force_fc_convoys(file, m, k, EPS)
    assert vcoda(file, m, k, EPS) == exp
    assert vcoda_star(file, m, k, EPS) == exp
    assert k2hop(file, m, k, EPS).convoys == exp
    for store in (RDBMSStore(df), LSMTStore(df, memtable_limit=2)):
        with closing(store):
            assert k2hop(store, m, k, EPS).convoys == exp


@pytest.mark.xfail(strict=True, reason="border points are exclusive; the FC oracle's are not")
def test_fc_miners_equal_bruteforce_shared_border():
    """A world ``test_fc_miners_equal_bruteforce`` can draw, pinned.

    At t = 1 objects 2 and 3 are border points of two cores, 4 at (3, 1)
    and 5 at (2, 2), which are not density-connected. DBSCAN here gives a
    border point to one cluster only, so 2 and 3 join 4's cluster and 5's
    keeps {1, 5}, below m. Restricted to {1, 2, 3, 5}, 5's cluster is all
    four, so the FC oracle finds {1,2,3,5}[1,2] while every miner, and the
    partially connected brute force, finds nothing.
    """
    at = {1: [(3, 0), (1, 2), (2, 1), (3, 2), (3, 1), (2, 2)],
          2: [None, (1, 2), (2, 1), (3, 2), None, (2, 2)]}
    rows = [(t, o, float(p[0]), float(p[1]))
            for t, ps in at.items() for o, p in enumerate(ps) if p is not None]
    df = pd.DataFrame(rows, columns=COLUMNS)
    file = FileStore(df)
    m, k = 4, 2
    exp = brute_force_fc_convoys(file, m, k, EPS)
    assert vcoda(file, m, k, EPS) == exp
    assert vcoda_star(file, m, k, EPS) == exp
    assert k2hop(file, m, k, EPS).convoys == exp


@settings(max_examples=150, deadline=None)
@given(queries())
def test_pccd_equals_bruteforce(query):
    df, m, k = query
    file = FileStore(df)
    assert pccd(file, m, k, EPS) == brute_force_convoys(file, m, k, EPS)


@settings(max_examples=5, deadline=None)
@given(queries(), st.integers(1, 10))
def test_spark_miners_equal_bruteforce(spark, query, part_len):
    df, m, k = query
    file = FileStore(df)
    sdf = spark.createDataFrame(df, SCHEMA)
    assert k2hop_spark(spark, sdf, m, k, EPS).convoys == brute_force_fc_convoys(
        file, m, k, EPS
    )
    exp = brute_force_convoys(file, m, k, EPS)
    assert dcm(spark, sdf, m, k, EPS, part_len=part_len) == exp
    assert spare(spark, sdf, m, k, EPS) == exp
