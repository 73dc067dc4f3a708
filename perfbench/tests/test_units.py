"""Feeds, reference checker, tracer arithmetic and ``compare``."""

import copy

from perfbench import compare, feeds, reference
from perfbench.tracer import Tracer


def test_feed_is_seeded_and_is_valid_avro():
    from repro.serde.avro import AvroSchema, AvroSerde

    a = feeds.orders_feed(7, 300, partitions=8)
    b = feeds.orders_feed(7, 300, partitions=8)
    c = feeds.orders_feed(8, 300, partitions=8)
    assert a.entries == b.entries and a.rows == b.rows
    assert a.entries != c.entries
    serde = AvroSerde(AvroSchema.record("Orders", list(feeds.ORDERS_FIELDS)))
    names = [name for name, _type in feeds.ORDERS_FIELDS]
    for row, (value, key, partition, timestamp) in zip(a.rows, a.entries):
        assert serde.from_bytes(value) == dict(zip(names, row))
        assert key == str(row[1]).encode() and timestamp == row[0]
        assert partition == feeds.fnv1a_partition(key, 8)
    assert 95 <= len(a.entries[0][0]) <= 105      # the paper's ~100 bytes


def test_feed_partitions_like_the_default_partitioner():
    from repro.kafka.producer import hash_partitioner

    for key in (b"0", b"17", b"399"):
        assert feeds.fnv1a_partition(key, 32) == hash_partitioner(key, 32)


def test_check_outputs_counts_each_failure_class():
    expected = {1: {"id": 1, "v": 10}, 2: {"id": 2, "v": 20},
                3: {"id": 3, "v": 30}}
    good = [{"id": 1, "v": 10}, {"id": 2, "v": 20}, {"id": 3, "v": 30}]
    assert reference.check_outputs(5, expected, good, "id").failed == 0
    verdict = reference.check_outputs(
        5, expected,
        [{"id": 1, "v": 10}, {"id": 1, "v": 10},    # duplicate
         {"id": 2, "v": 99},                        # inconsistent
         {"id": 4, "v": 40}],                       # unexpected; 3 missing
        "id")
    assert (verdict.attempted, verdict.failed) == (5, 4)
    assert (verdict.duplicates, verdict.inconsistent, verdict.unexpected,
            verdict.missing) == (1, 1, 1, 1)
    # at-least-once: a consistent repeat is counted, not failed
    verdict = reference.check_outputs(5, expected, good + good[:1], "id",
                                      at_least_once=True)
    assert (verdict.failed, verdict.duplicates) == (0, 1)


def test_window_reference_purges_by_event_time():
    rows = [(0, 1, 0, 5, ""), (100_000, 1, 1, 7, ""), (310_000, 1, 2, 1, ""),
            (310_000 + 1, 2, 3, 9, "")]
    expected = reference.expected_window(rows)
    assert expected[100_000]["unitsLastFiveMinutes"] == 12
    assert expected[310_000]["unitsLastFiveMinutes"] == 8   # row 0 purged
    assert reference.window_state_rows(rows) == 2 + 1 + 2   # rows + bounds


def test_admission_model():
    model = reference.AdmissionModel()
    got = [model.submit("t", slots=2, queue_depth=1) for _ in range(4)]
    assert got == ["started", "started", "queued", "QUOTA_EXCEEDED"]
    assert model.submit("hog", slots=1, queue_depth=0) == "started"
    assert model.submit("hog", slots=1, queue_depth=0) == "QUOTA_EXCEEDED"


def test_tracer_self_time_and_coverage():
    class Layer:
        def outer(self, items):
            for item in items:
                self.inner(item)
            return items

        def inner(self, item):
            return item

    tracer = Tracer()
    tracer.span(Layer, "outer", "t.outer", lambda args, _r: len(args[1]))
    tracer.leaf(Layer, "inner", "t.inner")
    try:
        layer = Layer()
        layer.outer([1])                  # tracer off: nothing recorded
        assert tracer.span_count == 0
        tracer.enabled = True
        mark = tracer.mark()
        layer.outer([1, 2, 3])
        window = tracer.window(mark)
    finally:
        tracer.uninstall()
    assert Layer.outer.__name__ == "outer"
    assert window.count("t.outer") == 1 and window.count("t.inner") == 3
    assert window.units["t.outer"] == 3
    assert window.leaf_under("t.inner", "t.outer")[0] == 3
    total = window.ns("t.outer", self_time=False)
    assert window.ns("t.outer") == total - window.ns("t.inner")
    assert window.root_ns == total


def _result(median, spread=0.01):
    samples = [median * (1 - spread), median, median * (1 + spread)]
    metric = {"unit": "x", "median": median, "iqr": 2 * spread * median,
              "samples": samples, "n": 3}
    return metric


def test_compare_flags_regressions_and_unresolved_rows():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [
                {"name": "throughput_msgs_per_s", "unit": "1/s",
                 "better": "higher", "bound": 0.10},
                {"name": "cpu_us_per_msg", "unit": "us", "better": "lower",
                 "bound": 0.10}]}

    def report(throughput, cpu, spread=0.01):
        return {"workloads": {"w": {"untraced": {"metrics": {
            "throughput_msgs_per_s": _result(throughput, spread),
            "cpu_us_per_msg": _result(cpu, spread),
            "ops_failed": _result(0.0)}}}}}

    base = report(100_000.0, 5.0)
    same = compare.compare(base, copy.deepcopy(base), spec)
    assert {row["verdict"] for row in same} == {"ok"}
    # worse by 2 x bound on both metrics, in each metric's own direction
    worse = compare.compare(base, report(80_000.0, 6.0), spec)
    verdicts = {row["metric"]: row["verdict"] for row in worse}
    assert verdicts["throughput_msgs_per_s"] == "regressed"
    assert verdicts["cpu_us_per_msg"] == "regressed"
    # better is never a regression
    better = compare.compare(base, report(130_000.0, 4.0), spec)
    assert {row["verdict"] for row in better} == {"ok"}
    # spread wider than the bound, sets interleave: cannot tell
    noisy = compare.compare(report(100_000.0, 5.0, spread=0.2),
                            report(101_000.0, 5.0, spread=0.2), spec)
    assert {row["verdict"] for row in noisy
            if row["metric"] != "ops_failed"} == {"unresolved"}
    failing = report(100_000.0, 5.0)
    failing["workloads"]["w"]["untraced"]["metrics"]["ops_failed"] = _result(3.0)
    rows = compare.compare(base, failing, spec)
    assert [r["verdict"] for r in rows if r["metric"] == "ops_failed"] == [
        "regressed"]
