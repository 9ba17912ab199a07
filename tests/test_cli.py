"""Unit tests for repro.cli."""

import json

import pytest

from repro.cli import build_parser, load_jsonl_dataset, main
from repro.errors import ValidationError


@pytest.fixture
def dataset_file(tmp_path, rng):
    path = tmp_path / "data.jsonl"
    with open(path, "w") as handle:
        for _ in range(120):
            record = {
                "point": [rng.uniform(0, 100), rng.uniform(0, 10)],
                "doc": rng.sample(range(1, 7), rng.randint(1, 3)),
            }
            handle.write(json.dumps(record) + "\n")
    return path


class TestDatasetLoading:
    def test_loads_records(self, dataset_file):
        ds = load_jsonl_dataset(str(dataset_file))
        assert len(ds) == 120
        assert ds.dim == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"point": [1.0], "doc": [1]}\n\n{"point": [2.0], "doc": [2]}\n')
        assert len(load_jsonl_dataset(str(path))) == 2

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"point": [1.0], "doc": [1]}\n{"nope": true}\n')
        with pytest.raises(ValidationError, match="bad.jsonl:2"):
            load_jsonl_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_jsonl_dataset(str(path))


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all("oid" in rec for rec in lines)

    def test_build_query_round_trip(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "idx.bin"
        assert main(["build", str(dataset_file), str(index_path), "--kind", "orp"]) == 0
        assert index_path.exists()
        capsys.readouterr()
        code = main(
            [
                "query",
                str(index_path),
                "--rect", "0", "0", "100", "10",
                "--keywords", "1", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert {1, 2} <= set(record["doc"])

    def test_info(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "idx.bin"
        main(["build", str(dataset_file), str(index_path)])
        capsys.readouterr()
        assert main(["info", str(index_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["class"] == "OrpKwIndex"
        assert info["k"] == 2

    def test_nearest(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "nn.bin"
        main(["build", str(dataset_file), str(index_path), "--kind", "linf-nn"])
        capsys.readouterr()
        code = main(
            [
                "nearest",
                str(index_path),
                "--point", "50", "5",
                "--t", "3",
                "--keywords", "1", "2",
            ]
        )
        assert code == 0

    def test_wrong_index_kind_is_a_clean_error(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "nn.bin"
        main(["build", str(dataset_file), str(index_path), "--kind", "linf-nn"])
        capsys.readouterr()
        code = main(
            ["query", str(index_path), "--rect", "0", "0", "1", "1", "--keywords", "1", "2"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_query_without_shape_is_an_error(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "idx.bin"
        main(["build", str(dataset_file), str(index_path)])
        capsys.readouterr()
        assert main(["query", str(index_path), "--keywords", "1", "2"]) == 2

    def test_ball_query(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "srp.bin"
        main(["build", str(dataset_file), str(index_path), "--kind", "srp"])
        capsys.readouterr()
        code = main(
            ["query", str(index_path), "--ball", "50", "5", "20", "--keywords", "1", "2"]
        )
        assert code == 0

    def test_parser_rejects_unknown_kind(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["build", "a", "b", "--kind", "nonsense"])


class TestRectangleIndexCommands:
    @pytest.fixture
    def rect_file(self, tmp_path, rng):
        path = tmp_path / "rects.jsonl"
        with open(path, "w") as handle:
            for _ in range(60):
                lo = rng.uniform(0, 10)
                handle.write(
                    json.dumps(
                        {
                            "lo": [lo],
                            "hi": [lo + rng.uniform(0, 2)],
                            "doc": rng.sample(range(1, 6), rng.randint(1, 3)),
                        }
                    )
                    + "\n"
                )
        return path

    def test_build_and_query_rr(self, rect_file, tmp_path, capsys):
        index_path = tmp_path / "rr.bin"
        assert main(["build", str(rect_file), str(index_path), "--kind", "rr"]) == 0
        capsys.readouterr()
        code = main(
            ["query", str(index_path), "--rect", "2", "5", "--keywords", "1", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert record["lo"][0] <= 5.0 and record["hi"][0] >= 2.0
            assert {1, 2} <= set(record["doc"])

    def test_bad_rectangle_record(self, tmp_path):
        from repro.cli import load_jsonl_rectangles
        from repro.errors import ValidationError as VE

        path = tmp_path / "bad.jsonl"
        path.write_text('{"lo": [1.0], "doc": [1]}\n')
        with pytest.raises(VE, match="bad.jsonl:1"):
            load_jsonl_rectangles(str(path))


class TestDynamicBuilds:
    """``build --dynamic`` for every dynamizable kind: ``info``, one query
    of the kind's shape, then ``load_index`` and a write round trip."""

    #: kind -> (class, CLI query flags, in-process query over the same region)
    KINDS = {
        "keywords": ("DynamicKeywordsOnly", ["--rect", "0", "0", "60", "10"], "rect"),
        "multi": ("DynamicMultiKOrp", ["--rect", "0", "0", "60", "10"], "rect"),
        "orp": ("DynamicOrpKw", ["--rect", "0", "0", "60", "10"], "rect"),
        "lc": ("DynamicLcKw", ["--halfspace", "1", "0", "50"], "halfspace"),
        "srp": ("DynamicSrpKw", ["--ball", "50", "5", "30"], "ball"),
    }

    @staticmethod
    def _ask(index, shape, words):
        from repro.geometry.halfspaces import HalfSpace
        from repro.geometry.rectangles import Rect

        if shape == "rect":
            return index.query(Rect((0.0, 0.0), (60.0, 10.0)), words)
        if shape == "halfspace":
            return index.query([HalfSpace((1.0, 0.0), 50.0)], words)
        return index.query((50.0, 5.0), 30.0, words)

    @staticmethod
    def _inside(point, shape):
        x, y = point
        if shape == "rect":
            return 0.0 <= x <= 60.0 and 0.0 <= y <= 10.0
        if shape == "halfspace":
            return x <= 50.0
        return (x - 50.0) ** 2 + (y - 5.0) ** 2 <= 30.0**2

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_build_info_query_and_write(self, kind, dataset_file, tmp_path, capsys):
        from repro.persist import load_index

        cls, flags, shape = self.KINDS[kind]
        index_path = tmp_path / f"{kind}.bin"
        build = ["build", str(dataset_file), str(index_path), "--kind", kind, "--dynamic"]
        assert main(build) == 0
        capsys.readouterr()
        assert main(["info", str(index_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["class"], info["dim"]) == (cls, 2)
        space = info["space_units"]
        assert type(space) is int and space > 0

        dataset = load_jsonl_dataset(str(dataset_file))
        expected = sorted(
            obj.oid
            for obj in dataset.objects
            if self._inside(obj.point, shape) and {1, 2} <= obj.doc
        )
        assert main(["query", str(index_path), *flags, "--keywords", "1", "2"]) == 0
        out = capsys.readouterr().out.strip()
        found = [json.loads(line)["oid"] for line in out.splitlines() if line]
        assert sorted(found) == expected

        index = load_index(index_path)
        assert type(index).__name__ == cls and len(index) == len(dataset)
        oid = index.insert((50.0, 5.0), [1, 2])
        assert sorted(obj.oid for obj in self._ask(index, shape, [1, 2])) == expected + [oid]
        index.delete(oid)
        assert sorted(obj.oid for obj in self._ask(index, shape, [1, 2])) == expected
        assert len(index) == len(dataset)


class TestEngineCommands:
    @pytest.fixture
    def queries_file(self, tmp_path, rng):
        path = tmp_path / "queries.jsonl"
        queries = []
        for _ in range(6):
            a, b = sorted([rng.uniform(0, 100), rng.uniform(0, 100)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            queries.append(
                {"rect": [a, c, b, d], "keywords": rng.sample(range(1, 7), 2)}
            )
        with open(path, "w") as handle:
            for query in queries + queries:  # repeated: second half hits cache
                handle.write(json.dumps(query) + "\n")
        return path

    def test_build_batch_stats_round_trip(
        self, dataset_file, queries_file, tmp_path, capsys
    ):
        index_path = tmp_path / "engine.bin"
        code = main(
            [
                "build", str(dataset_file), str(index_path),
                "--kind", "engine", "--k", "3",
            ]
        )
        assert code == 0
        capsys.readouterr()

        code = main(
            [
                "batch", str(index_path),
                "--queries", str(queries_file),
                "--budget", "64", "--save",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        traces = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(traces) == 12
        assert all("strategy" in t and "cost" in t for t in traces)
        assert sum(1 for t in traces if t["cache"] == "hit") >= 6
        assert "12 queries" in captured.err

    def test_stats_after_saved_batch(
        self, dataset_file, queries_file, tmp_path, capsys
    ):
        index_path = tmp_path / "engine.bin"
        main(["build", str(dataset_file), str(index_path), "--kind", "engine"])
        main(["batch", str(index_path), "--queries", str(queries_file), "--save"])
        capsys.readouterr()
        assert main(["stats", str(index_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["queries"] == 12
        assert stats["cache"]["hits"] >= 6

    def test_serve_matches_batch_results(
        self, dataset_file, queries_file, tmp_path, capsys
    ):
        """The async serve path reports the same result counts as batch."""
        index_path = tmp_path / "engine.bin"
        main(
            [
                "build", str(dataset_file), str(index_path),
                "--kind", "sharded", "--shards", "2", "--k", "3",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "batch", str(index_path),
                "--queries", str(queries_file), "--budget", "64",
            ]
        )
        assert code == 0
        batch_counts = [
            json.loads(line)["result_count"]
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        code = main(
            [
                "serve", str(index_path),
                "--queries", str(queries_file),
                "--budget", "64", "--concurrency", "2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        served = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(served) == 12
        assert all(not entry["shed"] for entry in served)
        assert [entry["result_count"] for entry in served] == batch_counts
        assert "12 served" in captured.err

    def test_serve_sheds_above_inflight_bound(
        self, dataset_file, queries_file, tmp_path, capsys
    ):
        index_path = tmp_path / "engine.bin"
        main(
            [
                "build", str(dataset_file), str(index_path),
                "--kind", "engine", "--k", "3",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "serve", str(index_path),
                "--queries", str(queries_file),
                "--budget", "64", "--max-inflight-cost", "64",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        served = [json.loads(line) for line in captured.out.strip().splitlines()]
        shed = [entry for entry in served if entry["shed"]]
        assert shed and all(entry["reason"] == "shed:admission" for entry in shed)
        assert "shed" in captured.err

    def test_batch_requires_engine_index(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "orp.bin"
        main(["build", str(dataset_file), str(index_path), "--kind", "orp"])
        queries = tmp_path / "q.jsonl"
        queries.write_text('{"rect": [0, 0, 1, 1], "keywords": [1]}\n')
        assert main(["batch", str(index_path), "--queries", str(queries)]) == 2
        assert "expected a QueryEngine" in capsys.readouterr().err

    def test_bad_query_record_reports_line(self, tmp_path):
        from repro.cli import load_jsonl_queries

        path = tmp_path / "bad.jsonl"
        path.write_text('{"rect": [0, 0, 1, 1], "keywords": [1]}\n{"rect": "x"}\n')
        with pytest.raises(ValidationError, match="bad.jsonl:2"):
            load_jsonl_queries(str(path))

    def test_sharded_build_batch_stats_round_trip(
        self, dataset_file, queries_file, tmp_path, capsys
    ):
        index_path = tmp_path / "sharded.bin"
        code = main(
            [
                "build", str(dataset_file), str(index_path),
                "--kind", "sharded", "--shards", "3", "--k", "3",
            ]
        )
        assert code == 0
        assert "3 shard(s)" in capsys.readouterr().err

        code = main(
            [
                "batch", str(index_path),
                "--queries", str(queries_file),
                "--budget", "64", "--save",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        traces = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(traces) == 12
        served = [t for t in traces if t["cache"] == "miss"]
        assert served and all(t["strategy"] == "sharded" for t in served)
        assert all(len(t["shards"]) == 3 for t in served)
        assert sum(1 for t in traces if t["cache"] == "hit") >= 6

        assert main(["stats", str(index_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["queries"] == 12
        assert stats["shards"]["count"] == 3
        assert sum(stats["shards"]["sizes"]) == 120

    def test_sharded_and_engine_batches_agree(
        self, dataset_file, queries_file, tmp_path, capsys
    ):
        engine_path = tmp_path / "engine.bin"
        sharded_path = tmp_path / "sharded.bin"
        main(["build", str(dataset_file), str(engine_path), "--kind", "engine"])
        main(
            [
                "build", str(dataset_file), str(sharded_path),
                "--kind", "sharded", "--shards", "4",
            ]
        )
        capsys.readouterr()
        main(["batch", str(engine_path), "--queries", str(queries_file), "--results"])
        plain = capsys.readouterr().out
        main(["batch", str(sharded_path), "--queries", str(queries_file), "--results"])
        sharded = capsys.readouterr().out

        def result_counts(output):
            return [
                json.loads(line)["result_count"]
                for line in output.strip().splitlines()
                if "result_count" in json.loads(line)
            ]

        assert result_counts(plain) == result_counts(sharded)

    def test_batch_results_flag_prints_matches(
        self, dataset_file, queries_file, tmp_path, capsys
    ):
        index_path = tmp_path / "engine.bin"
        main(["build", str(dataset_file), str(index_path), "--kind", "engine"])
        capsys.readouterr()
        main(
            [
                "batch", str(index_path),
                "--queries", str(queries_file), "--results",
            ]
        )
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert any("oid" in record for record in lines) or all(
            record["result_count"] == 0 for record in lines if "result_count" in record
        )


class TestTelemetryCommands:
    """`metrics` / `events` / `top` + `serve --telemetry-dir`."""

    @pytest.fixture
    def queries_file(self, tmp_path, rng):
        path = tmp_path / "queries.jsonl"
        with open(path, "w") as handle:
            for _ in range(10):
                a, b = sorted([rng.uniform(0, 100), rng.uniform(0, 100)])
                c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
                query = {"rect": [a, c, b, d], "keywords": rng.sample(range(1, 7), 2)}
                handle.write(json.dumps(query) + "\n")
        return path

    @pytest.fixture
    def engine_path(self, dataset_file, queries_file, tmp_path, capsys):
        path = tmp_path / "engine.bin"
        main(["build", str(dataset_file), str(path), "--kind", "engine", "--k", "3"])
        main(
            [
                "batch", str(path),
                "--queries", str(queries_file), "--budget", "256", "--save",
            ]
        )
        capsys.readouterr()
        return path

    def test_metrics_renders_openmetrics(self, engine_path, capsys):
        assert main(["metrics", str(engine_path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert "repro_queries_total 10" in out
        assert 'repro_cost_total_bucket{le="+Inf"}' in out

    def test_metrics_custom_namespace(self, engine_path, capsys):
        assert main(["metrics", str(engine_path), "--namespace", "svc"]) == 0
        assert "svc_queries_total" in capsys.readouterr().out

    def test_metrics_rejects_non_engine_index(self, dataset_file, tmp_path, capsys):
        path = tmp_path / "orp.bin"
        main(["build", str(dataset_file), str(path), "--kind", "orp"])
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 2

    def test_events_replays_workload_as_jsonl(
        self, engine_path, queries_file, capsys
    ):
        code = main(
            ["events", str(engine_path), "--queries", str(queries_file)]
        )
        assert code == 0
        captured = capsys.readouterr()
        events = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(events) == 10
        assert all(event["kind"] == "query_finish" for event in events)
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)
        assert "10 event(s) emitted" in captured.err

    def test_events_kind_filter(self, engine_path, queries_file, capsys):
        code = main(
            [
                "events", str(engine_path),
                "--queries", str(queries_file),
                "--kind", "query_degraded",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert all(
            json.loads(line)["kind"] == "query_degraded"
            for line in out.splitlines()
        )

    def test_top_renders_quantiles_and_planner_stats(self, engine_path, capsys):
        assert main(["top", str(engine_path)]) == 0
        out = capsys.readouterr().out
        assert "histogram quantiles" in out
        assert "cost_total" in out
        assert "planner stats" in out

    def test_top_json_format(self, engine_path, capsys):
        assert main(["top", str(engine_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [row["name"] for row in payload["histograms"]]
        assert "cost_total" in names
        assert payload["planner"]["schema"] == 1
        assert payload["planner"]["strategies"]  # at least one cell

    def test_serve_telemetry_dir_writes_artifacts(
        self, engine_path, queries_file, tmp_path, capsys
    ):
        telemetry_dir = tmp_path / "telemetry"
        code = main(
            [
                "serve", str(engine_path),
                "--queries", str(queries_file),
                "--budget", "256",
                "--telemetry-dir", str(telemetry_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        metrics_text = (telemetry_dir / "metrics.prom").read_text()
        assert metrics_text.endswith("# EOF\n")
        event_lines = (
            (telemetry_dir / "events.jsonl").read_text().strip().splitlines()
        )
        assert event_lines and all(json.loads(line)["kind"] for line in event_lines)
        stats = json.loads((telemetry_dir / "stats.json").read_text())
        assert "sampler" in stats and "events" in stats
        traces = (telemetry_dir / "traces.jsonl").read_text().strip().splitlines()
        assert traces  # the slowest queries were retained
        assert all("why" in json.loads(line) for line in traces)

    def test_serve_slo_flags_arm_the_monitor(
        self, engine_path, queries_file, tmp_path, capsys
    ):
        telemetry_dir = tmp_path / "telemetry"
        code = main(
            [
                "serve", str(engine_path),
                "--queries", str(queries_file),
                "--budget", "256",
                "--max-inflight-cost", "10000",
                "--slo-p99-cost", "1",
                "--slo-window", "4",
                "--telemetry-dir", str(telemetry_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        stats = json.loads((telemetry_dir / "stats.json").read_text())
        assert stats["slo"]["targets"]["p99_cost_target"] == 1
        assert stats["slo"]["observed"] == 10
