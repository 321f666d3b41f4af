"""The benchmark tracer's by-name hooks: every module-level name
``perfbench/tracing.py`` wraps exists, and the miners call the phases
through those names, so a traced run records every phase."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.core.k2hop import k2hop
from repro.core.k2hop_spark import k2hop_spark
from repro.stores import FileStore, MeteredStore
from repro.testkit import EPS, scene_from_groups


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()
HOOKS = sorted(
    {(mod, name) for mod, name, *_ in tracing._SEQUENTIAL_PATCHES + tracing._SPARK_PATCHES}
)


def _scene():
    """{0,1,2} together on [2, 10] of a 14-step timeline."""
    groups = {t: [[0, 1, 2]] if 2 <= t <= 10 else [] for t in range(14)}
    return scene_from_groups(groups, list(range(6)))


@pytest.mark.parametrize("module, name", HOOKS, ids=[f"{m}.{n}" for m, n in HOOKS])
def test_hook_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_sequential_trace_sees_every_phase():
    tracer = tracing.Tracer()
    with tracer.patched(spark=False):
        res = k2hop(FileStore(_scene()), 3, 4, EPS)
    assert res.convoys
    spans = {span[0] for span in tracer.spans}
    assert {f"phase.{p}" for p in tracing.PHASES} <= spans


def test_traced_store_sees_every_point_read():
    # The tracer's store proxy forwards both reads positionally and counts
    # the rows of the pair they return; those counts are the metered ones.
    tracer = tracing.Tracer()
    store = MeteredStore(tracing.TracedStore(FileStore(_scene()), tracer))
    res = k2hop(store, 3, 4, EPS)
    assert res.convoys
    rows = {"store.snapshot": 0, "store.points": 0}
    for name, *_span, n in tracer.spans:
        if name in rows:
            rows[name] += n
    assert rows["store.snapshot"] > 0 and rows["store.points"] > 0
    assert sum(rows.values()) == res.points_processed == store.points_processed


def test_spark_trace_sees_cluster_sets(spark):
    tracer = tracing.Tracer()
    with tracer.patched(spark=True):
        res = k2hop_spark(spark, spark.createDataFrame(_scene()), 3, 4, EPS)
    assert res.convoys
    assert "spark.cluster_sets" in {span[0] for span in tracer.spans}
