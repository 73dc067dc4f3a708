"""Tests for the benchmark support package (native jobs, harness, LoC)."""

import pytest

from repro.bench import (
    NativeFilterTask,
    NativeProjectTask,
    native_job_config,
    usability_table,
)
from repro.bench.calibration import SQL_QUERIES, measure
from repro.bench.harness import FIGURES, run_figure
from repro.bench.loc import format_usability_table
from repro.bench.micro import native_pipeline, samzasql_pipeline
from repro.common import VirtualClock
from repro.kafka import KafkaCluster
from repro.samza import JobRunner, SamzaJob
from repro.serde import AvroSerde
from repro.workloads import OrdersGenerator, ProductsGenerator, padded_orders_schema
from repro.workloads.products import PRODUCTS_SCHEMA
from repro.yarn import NodeManager, Resource, ResourceManager


def runtime():
    clock = VirtualClock(0)
    cluster = KafkaCluster(broker_count=3, clock=clock)
    rm = ResourceManager()
    rm.add_node(NodeManager("node-0", Resource(61_000, 8)))
    return cluster, JobRunner(cluster, rm, clock)


class TestNativeJobs:
    def _run(self, query, messages=100):
        cluster, runner = runtime()
        OrdersGenerator(product_count=10).produce(cluster, "Orders", messages,
                                                  partitions=4)
        if query == "join":
            ProductsGenerator(product_count=10).produce(
                cluster, "Products-changelog", partitions=4)
        config, serdes, factory = native_job_config(query, f"native-{query}")
        runner.submit(SamzaJob(config=config, task_factory=factory, serdes=serdes))
        runner.run_until_quiescent()
        return cluster

    def test_filter_output_is_raw_passthrough(self):
        cluster = self._run("filter")
        serde = AvroSerde(padded_orders_schema())
        out = []
        for tp in cluster.partitions_for("NativeFilterOut"):
            for msg in cluster.fetch(tp, 0):
                out.append(serde.from_bytes(msg.value))
        assert out and all(r["units"] > 50 for r in out)

    def test_project_output_schema(self):
        cluster = self._run("project")
        out = []
        for tp in cluster.partitions_for("NativeProjectOut"):
            for msg in cluster.fetch(tp, 0):
                out.append(NativeProjectTask.PROJECTED_SCHEMA.from_bytes(msg.value))
        assert len(out) == 100
        assert set(out[0]) == {"rowtime", "productId", "units"}

    def test_join_enriches(self):
        from repro.bench.native_jobs import NativeJoinTask

        cluster = self._run("join")
        total = 0
        for tp in cluster.partitions_for("NativeJoinOut"):
            for msg in cluster.fetch(tp, 0):
                record = NativeJoinTask.JOINED_SCHEMA.from_bytes(msg.value)
                assert "supplierId" in record
                total += 1
        assert total == 100

    def test_window_running_sums(self):
        from repro.bench.native_jobs import NativeSlidingWindowTask

        cluster = self._run("window", messages=50)
        rows = []
        for tp in cluster.partitions_for("NativeWindowOut"):
            for msg in cluster.fetch(tp, 0):
                rows.append(NativeSlidingWindowTask.WINDOWED_SCHEMA.from_bytes(msg.value))
        assert len(rows) == 50
        assert all(r["unitsLastFiveMinutes"] >= r["units"] for r in rows)

    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError):
            native_job_config("sort", "x")


class TestCalibration:
    def test_measure_returns_sane_numbers(self):
        result = measure("filter", "samzasql", messages=300, partitions=4)
        assert result.messages == 300
        assert result.per_message_ms > 0
        assert result.throughput_msgs_per_s > 0

    def test_unknown_inputs_rejected(self):
        with pytest.raises(ValueError):
            measure("sort", "native")
        with pytest.raises(ValueError):
            measure("filter", "cpp")

    def test_measure_frame_codec_sane(self):
        from repro.bench.micro import measure_frame_codec

        result = measure_frame_codec(records=400, groups=4, repeats=1)
        assert result["records"] == 400
        assert result["frame_bytes"] > 400 * 64  # payload plus framing
        for key in ("encode_us_per_record", "decode_us_per_record",
                    "encode_mb_per_s", "decode_mb_per_s",
                    "header_us_per_frame", "pack_us_per_msg"):
            assert result[key] > 0

    def test_all_queries_planable(self):
        """Every benchmark query must at least plan on the SQL side."""
        from repro.sql import QueryPlanner
        from repro.sql.catalog import Catalog

        catalog = Catalog()
        catalog.register_stream_from_avro("Orders", padded_orders_schema())
        catalog.register_table_from_avro("Products", PRODUCTS_SCHEMA,
                                         key_field="productId")
        planner = QueryPlanner(catalog)
        for sql in SQL_QUERIES.values():
            assert planner.plan_query(sql) is not None


class TestMicroPipelines:
    @pytest.mark.parametrize("query", sorted(SQL_QUERIES))
    def test_samzasql_pipeline_steps(self, query):
        pipeline = samzasql_pipeline(query, messages=64)
        pipeline.run_batch(96)  # wraps around and resets

    @pytest.mark.parametrize("query", sorted(SQL_QUERIES))
    def test_native_pipeline_steps(self, query):
        native_pipeline(query, messages=64).run_batch(96)

    def test_sink_counts_output(self):
        pipeline = samzasql_pipeline("project", messages=32)
        pipeline.run_batch(32)
        assert pipeline.sink_count[0] == 32


class TestHarness:
    def test_run_figure_small(self):
        result = run_figure("5a", container_counts=[1, 2], messages=200)
        assert len(result.native_series) == 2
        assert result.native_series[0][1] > 0
        assert "Figure 5a" in result.format_table()

    def test_all_figures_known(self):
        assert set(FIGURES) == {"5a", "5b", "5c", "6"}

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_figure("7")


class TestUsability:
    def test_rows_cover_all_queries(self):
        rows = usability_table()
        assert {r.query for r in rows} == set(SQL_QUERIES)

    def test_sql_is_terser(self):
        for row in usability_table():
            assert row.sql_lines < row.native_lines

    def test_format_has_all_queries(self):
        text = format_usability_table()
        for query in SQL_QUERIES:
            assert query in text
