"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestRun:
    def test_basic_run(self, capsys):
        code = main(
            [
                "run",
                "--method",
                "LPA",
                "--dataset",
                "LNS",
                "--size",
                "smoke",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "LPA on LNS" in out
        assert "MRE" in out
        assert "CFPU" in out
        assert "max window spend" in out

    def test_saves_artifacts(self, capsys, tmp_path):
        json_path = tmp_path / "session.json"
        csv_path = tmp_path / "session.csv"
        code = main(
            [
                "run",
                "--method",
                "LBU",
                "--dataset",
                "Sin",
                "--size",
                "smoke",
                "--save-json",
                str(json_path),
                "--save-csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert json.loads(json_path.read_text())["mechanism"] == "LBU"
        assert csv_path.read_text().startswith("t,strategy")

    def test_unknown_method_is_graceful(self, capsys):
        code = main(["run", "--method", "NOPE", "--size", "smoke"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_dataset_is_graceful(self, capsys):
        code = main(
            ["run", "--method", "LBU", "--dataset", "NOPE", "--size", "smoke"]
        )
        assert code == 2


class TestListing:
    def test_methods(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA"):
            assert name in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("LNS", "Taxi", "Taobao"):
            assert name in out
        assert "200000" in out  # paper tier visible


class TestFigureAndTable:
    def test_fig7_smoke(self, capsys):
        assert main(["figure", "fig7", "--size", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "AUC" in out

    def test_table2_smoke(self, capsys):
        assert main(["table2", "--size", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "eps=1, w=20" in out
        assert "measured/paper" in out


class TestStream:
    @staticmethod
    def _feed(monkeypatch, lines):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))

    @staticmethod
    def _snapshot_lines(n_lines=12, n_users=60, domain=3, sep=" "):
        import numpy as np

        rng = np.random.default_rng(5)
        return [
            sep.join(str(v) for v in rng.integers(0, domain, size=n_users))
            for _ in range(n_lines)
        ]

    def test_online_session_from_stdin(self, capsys, monkeypatch):
        self._feed(monkeypatch, self._snapshot_lines())
        code = main(
            [
                "stream",
                "--method",
                "LBD",
                "--domain-size",
                "3",
                "--epsilon",
                "1",
                "--window",
                "4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        rows = [line for line in captured.out.splitlines() if line]
        assert len(rows) == 12
        first = rows[0].split(",")
        assert first[0] == "0"
        assert first[1] in ("publish", "approximate", "nullified")
        assert len(first) == 2 + 3  # t, strategy, d release values
        assert "online session: 12 steps" in captured.err
        assert "max window spend" in captured.err

    def test_trace_metrics_and_comma_input(self, capsys, monkeypatch):
        self._feed(monkeypatch, self._snapshot_lines(sep=","))
        code = main(
            [
                "stream",
                "--method",
                "LBU",
                "--domain-size",
                "3",
                "--trace",
                "--emit",
                "none",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "MRE" in captured.err
        assert "MSE" in captured.err

    def test_max_steps_truncates(self, capsys, monkeypatch):
        self._feed(monkeypatch, self._snapshot_lines(n_lines=20))
        code = main(
            [
                "stream",
                "--method",
                "LPU",
                "--domain-size",
                "3",
                "--max-steps",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert len([line for line in captured.out.splitlines() if line]) == 5
        assert "5 steps" in captured.err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(self._snapshot_lines(n_lines=4)) + "\n")
        code = main(
            [
                "stream",
                "--method",
                "LBU",
                "--domain-size",
                "3",
                "--input",
                str(path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert len([line for line in captured.out.splitlines() if line]) == 4

    def test_empty_input_is_error(self, capsys, monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(""))
        code = main(["stream", "--method", "LBU", "--domain-size", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no input" in captured.err

    def test_bad_values_are_graceful(self, capsys, monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO("0 1 9\n"))
        code = main(["stream", "--method", "LBU", "--domain-size", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["not a number", "0.5 1 2", "1 2 x"])
    def test_non_integer_input_is_graceful(self, capsys, monkeypatch, line):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(line + "\n"))
        code = main(["stream", "--method", "LBU", "--domain-size", "3"])
        assert code == 2
        assert "integer values" in capsys.readouterr().err


class TestStreamDurable:
    """`repro stream --state-dir`: lines print once durable, and a
    resumed run keeps the feed's --max-steps cap."""

    @staticmethod
    def _args(state, extra=()):
        return [
            "stream", "--method", "LBD", "--domain-size", "3",
            "--state-dir", str(state), *extra,
        ]

    def test_lines_print_only_after_their_wal_commit(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.persist import ReleaseWAL

        commit = ReleaseWAL.commit
        calls = []

        def failing_commit(wal, watermark):
            calls.append(watermark)
            if len(calls) == 2:
                raise OSError("disk full")
            commit(wal, watermark)

        monkeypatch.setattr(ReleaseWAL, "commit", failing_commit)
        TestStream._feed(monkeypatch, TestStream._snapshot_lines())
        with pytest.raises(OSError, match="disk full"):
            main(self._args(tmp_path / "state", ("--chunk", "2")))
        out = capsys.readouterr().out
        assert [line.split(",")[0] for line in out.split()] == ["0", "1"]

    def test_rerun_of_completed_run_keeps_max_steps(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.persist import replay_wal
        from repro.persist.statedir import WAL_FILE

        state = tmp_path / "state"
        lines = TestStream._snapshot_lines(n_lines=12)
        for _ in range(2):
            TestStream._feed(monkeypatch, lines)
            assert main(self._args(state, ("--max-steps", "5"))) == 0
            captured = capsys.readouterr()
            assert "online session: 5 steps" in captured.err
        assert captured.out == ""
        rows, watermark = replay_wal(state / WAL_FILE)
        assert watermark == 5
        assert [row["t"] for row in rows] == list(range(5))


class TestServe:
    @staticmethod
    def _feed(monkeypatch, requests):
        import io
        import sys as _sys

        payload = "\n".join(json.dumps(r) for r in requests) + "\n"
        monkeypatch.setattr(_sys, "stdin", io.StringIO(payload))

    @staticmethod
    def _requests(n_steps=12, n_users=80, domain=4):
        import numpy as np

        rng = np.random.default_rng(2)
        return [
            {"op": "ingest", "values": rng.integers(0, domain, n_users).tolist()}
            for _ in range(n_steps)
        ]

    @staticmethod
    def _serve(extra=()):
        return [
            "serve", "--method", "LBD", "--domain-size", "4",
            "--epsilon", "1", "--window", "4", *extra,
        ]

    def test_ingest_and_queries(self, capsys, monkeypatch):
        requests = self._requests() + [
            {"op": "topk", "k": 2},
            {"op": "point", "item": 1},
            {"op": "range", "lo": 0, "hi": 2},
            {"op": "sliding", "t0": 4, "t1": 11, "agg": "mean", "item": 0},
            {"op": "summary"},
        ]
        self._feed(monkeypatch, requests)
        assert main(self._serve()) == 0
        lines = [json.loads(raw) for raw in capsys.readouterr().out.splitlines()]
        assert len(lines) == len(requests)
        ingests = [obj for obj in lines if obj.get("op") == "ingest"]
        assert [obj["t"] for obj in ingests] == list(range(12))
        topk = lines[12]
        assert topk["op"] == "topk" and len(topk["items"]) == 2
        assert topk["items"][0]["rank"] == 1
        assert "ci" in topk["items"][0]
        point = lines[13]
        assert point["item"] == 1 and point["ci"][0] < point["ci"][1]
        summary = lines[16]
        assert summary["steps"] == 12 and summary["retained"] == 12

    def test_ring_capacity_bounds_and_reports_eviction(
        self, capsys, monkeypatch
    ):
        requests = self._requests(n_steps=20) + [
            {"op": "summary"},
            {"op": "sliding", "t0": 0, "t1": 19, "agg": "sum", "item": 0},
        ]
        self._feed(monkeypatch, requests)
        assert main(self._serve(["--capacity", "8"])) == 0
        lines = [json.loads(raw) for raw in capsys.readouterr().out.splitlines()]
        summary = lines[20]
        assert summary["retained"] == 8
        assert summary["oldest_t"] == 12
        assert summary["evicted"] == 12
        assert "EvictedSpanError" in lines[21]["error"]

    def test_query_before_ingest_is_error_line(self, capsys, monkeypatch):
        self._feed(monkeypatch, [{"op": "topk", "k": 2}])
        assert main(self._serve()) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert "ingest" in line["error"]

    def test_malformed_json_keeps_serving(self, capsys, monkeypatch):
        import io
        import sys as _sys

        good = json.dumps(self._requests(1)[0])
        monkeypatch.setattr(
            _sys, "stdin", io.StringIO("{not json}\n" + good + "\n")
        )
        assert main(self._serve()) == 0
        lines = [json.loads(raw) for raw in capsys.readouterr().out.splitlines()]
        assert "error" in lines[0]
        assert lines[1]["op"] == "ingest"

    def test_empty_input_is_error(self, capsys, monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(""))
        assert main(self._serve()) == 2
        assert "no requests" in capsys.readouterr().err


class TestQuery:
    @pytest.fixture()
    def saved_run(self, tmp_path):
        path = tmp_path / "session.json"
        code = main(
            [
                "run", "--method", "LPA", "--dataset", "LNS", "--size",
                "smoke", "--seed", "1", "--save-json", str(path),
            ]
        )
        assert code == 0
        return path

    def test_topk(self, capsys, saved_run):
        capsys.readouterr()
        assert main(["query", str(saved_run), "topk", "--k", "2"]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert len(answer["items"]) == 2
        assert answer["items"][0]["estimate"] >= answer["items"][1]["estimate"]

    def test_point_range_sliding_info(self, capsys, saved_run):
        capsys.readouterr()
        assert main(
            ["query", str(saved_run), "point", "--item", "0", "--t", "5"]
        ) == 0
        point = json.loads(capsys.readouterr().out)
        assert point["ci"][0] <= point["estimate"] <= point["ci"][1]
        assert main(
            ["query", str(saved_run), "range", "--lo", "0", "--hi", "2"]
        ) == 0
        assert "estimate" in json.loads(capsys.readouterr().out)
        assert main(
            [
                "query", str(saved_run), "sliding", "--item", "1",
                "--agg", "mean",
            ]
        ) == 0
        sliding = json.loads(capsys.readouterr().out)
        assert sliding["t0"] == 0 and sliding["agg"] == "mean"
        assert main(["query", str(saved_run), "info"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["mechanism"] == "LPA" and info["domain_size"] == 2

    def test_missing_args_are_graceful(self, capsys, saved_run):
        capsys.readouterr()
        assert main(["query", str(saved_run), "point"]) == 2
        assert "item" in capsys.readouterr().err

    def test_missing_file_is_graceful(self, capsys, tmp_path):
        with pytest.raises((SystemExit, OSError)):
            main(["query", str(tmp_path / "nope.json"), "info"])


class TestQueryExpr:
    """`repro query --expr`: the DSL text syntax on saved runs."""

    saved_run = TestQuery.saved_run

    def test_expr_point_matches_classic_verb(self, capsys, saved_run):
        capsys.readouterr()
        assert main(
            ["query", str(saved_run), "point", "--item", "0", "--t", "5"]
        ) == 0
        classic = json.loads(capsys.readouterr().out)
        assert main(
            ["query", str(saved_run), "--expr", "point(0) @ t=5"]
        ) == 0
        via_expr = json.loads(capsys.readouterr().out)
        assert via_expr == classic

    def test_expr_composites(self, capsys, saved_run):
        capsys.readouterr()
        assert main(
            ["query", str(saved_run), "--expr",
             "groupby(a: {0}; b: {1}) @ t=5"]
        ) == 0
        grouped = json.loads(capsys.readouterr().out)
        assert set(grouped["groups"]) == {"a", "b"}
        assert main(
            ["query", str(saved_run), "--expr",
             "threshold(point(0) > 0.2, sigmas=1)"]
        ) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["triggered"] in (True, False)
        assert main(
            ["query", str(saved_run), "--expr",
             "changepoint(0, drift=0.0, threshold=0.5)"]
        ) == 0
        assert "alarms" in json.loads(capsys.readouterr().out)

    def test_verb_xor_expr_required(self, capsys, saved_run):
        capsys.readouterr()
        assert main(["query", str(saved_run)]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(
            ["query", str(saved_run), "point", "--item", "0",
             "--expr", "point(0)"]
        ) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_bad_expr_is_graceful(self, capsys, saved_run):
        capsys.readouterr()
        assert main(["query", str(saved_run), "--expr", "frob(1)"]) == 2
        assert "frob" in capsys.readouterr().err


class TestServeStanding:
    """Standing queries on the stdin transport."""

    _feed = staticmethod(TestServe._feed)
    _requests = staticmethod(TestServe._requests)
    _serve = staticmethod(TestServe._serve)

    def test_threshold_alert_lines_interleave_with_acks(
        self, capsys, monkeypatch
    ):
        ingests = self._requests(n_steps=8)
        requests = (
            ingests[:4]
            + [{"op": "standing", "action": "register", "id": "w",
                "expr": "threshold(point(0) > -1000000)"}]
            + ingests[4:]
            + [{"op": "standing", "action": "list"}]
        )
        self._feed(monkeypatch, requests)
        assert main(self._serve(["--chunk", "2"])) == 0
        lines = [
            json.loads(raw)
            for raw in capsys.readouterr().out.splitlines()
        ]
        alerts = [x for x in lines if x.get("event") == "alert"]
        # registered at watermark 4: one always-true alert per later t
        assert [a["t"] for a in alerts] == [4, 5, 6, 7]
        assert all(a["id"] == "w" for a in alerts)
        register = next(x for x in lines if x.get("action") == "register")
        assert register["next_t"] == 4
        listed = next(x for x in lines if x.get("action") == "list")
        assert listed["standing"][0]["next_t"] == 8

    def test_changepoint_standing_matches_batch_rerun(
        self, capsys, monkeypatch
    ):
        ingests = self._requests(n_steps=12)
        requests = (
            ingests[:4]
            + [{"op": "standing", "action": "register", "id": "cp",
                "expr": "changepoint(0, drift=0.0, threshold=0.05)"}]
            + ingests[4:]
            # the one-shot changepoint query over the same span IS the
            # full batch re-run: incremental alerts must equal it
            + [{"op": "query",
                "expr": "changepoint(0, drift=0.0, threshold=0.05) "
                        "@ 4..11"}]
        )
        self._feed(monkeypatch, requests)
        assert main(self._serve(["--chunk", "4"])) == 0
        lines = [
            json.loads(raw)
            for raw in capsys.readouterr().out.splitlines()
        ]
        alerts = [x for x in lines if x.get("event") == "alert"]
        assert all(a["kind"] == "changepoint" for a in alerts)
        batch = next(x for x in lines if x.get("op") == "changepoint")
        assert (batch["t0"], batch["t1"]) == (4, 11)
        assert [a["t"] for a in alerts] == batch["alarms"]
        assert alerts, "the stream never alarmed; nothing was exercised"

    def test_stdin_serves_the_full_surface(
        self, capsys, monkeypatch, tmp_path
    ):
        """A standing query registered before the first ingest alerts
        from t=0, and b64 ingest, checkpoint and shutdown answer on
        stdin exactly as on the socket."""
        import base64

        import numpy as np

        ingests = self._requests(n_steps=4)
        packed = {
            "op": "ingest",
            "b64": base64.b64encode(
                np.asarray(ingests[3]["values"], dtype=np.uint8).tobytes()
            ).decode("ascii"),
            "dtype": "u1",
        }
        transcripts = []
        for last in (ingests[3], packed):
            requests = (
                [{"op": "standing", "action": "register", "id": "w",
                  "expr": "threshold(point(0) > -1000000)"}]
                + ingests[:3]
                + [last, {"op": "checkpoint"}, {"op": "shutdown"}]
                + ingests[:1]  # after shutdown: never read
            )
            self._feed(monkeypatch, requests)
            state = tmp_path / f"state-{len(transcripts)}"
            assert main(self._serve(["--state-dir", str(state)])) == 0
            transcripts.append(capsys.readouterr().out)
        assert transcripts[1] == transcripts[0]
        lines = [json.loads(raw) for raw in transcripts[0].splitlines()]
        assert lines[0]["action"] == "register" and lines[0]["next_t"] == 0
        acks = [x for x in lines if x.get("op") == "ingest"]
        alerts = [x for x in lines if x.get("event") == "alert"]
        assert [a["t"] for a in acks] == [0, 1, 2, 3]
        assert [a["t"] for a in alerts] == [0, 1, 2, 3]
        assert lines[-2:] == [
            {"op": "checkpoint", "watermark": 4},
            {"op": "shutdown", "watermark": 4},
        ]

    def test_standing_errors_keep_serving(self, capsys, monkeypatch):
        requests = (
            self._requests(n_steps=2)
            + [
                {"op": "standing", "action": "register", "id": "x",
                 "expr": "topk(3)"},
                {"op": "standing", "action": "nope"},
                {"op": "standing", "action": "register"},
                {"op": "point", "item": 0},
            ]
        )
        self._feed(monkeypatch, requests)
        assert main(self._serve()) == 0
        lines = [
            json.loads(raw)
            for raw in capsys.readouterr().out.splitlines()
        ]
        assert sum(1 for x in lines if set(x) == {"error"}) == 3
        assert lines[-1]["op"] == "point"

    def test_unknown_op_lists_the_full_surface(self, capsys, monkeypatch):
        requests = self._requests(n_steps=1) + [{"op": "mystery"}]
        self._feed(monkeypatch, requests)
        assert main(self._serve()) == 0
        lines = [
            json.loads(raw)
            for raw in capsys.readouterr().out.splitlines()
        ]
        assert "mystery" in lines[-1]["error"]
        assert "changepoint" in lines[-1]["error"]

    def test_query_envelope_in_serve(self, capsys, monkeypatch):
        requests = self._requests(n_steps=4) + [
            {"op": "query", "expr": "topk(2)"},
            {"op": "topk", "k": 2},
            {"op": "query",
             "q": {"op": "threshold",
                   "query": {"op": "point", "item": 0},
                   "cmp": ">", "value": 0.0}},
        ]
        self._feed(monkeypatch, requests)
        assert main(self._serve()) == 0
        lines = [
            json.loads(raw)
            for raw in capsys.readouterr().out.splitlines()
        ]
        assert lines[4] == lines[5]  # expr and classic op answer alike
        assert lines[6]["op"] == "threshold"
        assert lines[6]["triggered"] in (True, False)


class TestServeRobustness:
    _feed = staticmethod(TestServe._feed)
    _requests = staticmethod(TestServe._requests)
    _serve = staticmethod(TestServe._serve)

    def test_bad_method_fails_fast_before_any_request(self, capsys, monkeypatch):
        self._feed(monkeypatch, self._requests(2))
        assert main(self._serve()[:1] + [
            "--method", "NOPE", "--domain-size", "4",
        ]) == 2
        captured = capsys.readouterr()
        assert "unknown mechanism" in captured.err
        assert captured.out == ""  # no per-request error lines

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (["--epsilon", "-1"], "epsilon"),
            (["--window", "0"], "window"),
            (["--confidence", "1.5"], "confidence"),
            (["--oracle", "nope"], "oracle"),
            (["--postprocess", "nope"], "postprocess"),
            (["--capacity", "-3"], "capacity"),
        ],
    )
    def test_bad_numeric_config_fails_fast(
        self, capsys, monkeypatch, flags, fragment
    ):
        self._feed(monkeypatch, self._requests(2))
        assert main(self._serve(flags)) == 2
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert captured.out == ""  # never one-error-line-per-request

    def test_observe_failure_is_fatal_not_silent(self, capsys, monkeypatch):
        # An error raised inside session ingest lands *after* stream.push
        # has advanced the stream, leaving the pair desynchronized — the
        # server must stop with rc 2 instead of emitting error lines
        # forever and exiting 0.
        from repro.engine.session import StreamSession
        from repro.exceptions import PopulationExhaustedError

        real_observe_many = StreamSession.observe_many

        def flaky_observe_many(self, t0=None, n=None, **kwargs):
            if t0 == 1:
                raise PopulationExhaustedError("no users left")
            return real_observe_many(self, t0, n, **kwargs)

        monkeypatch.setattr(StreamSession, "observe_many", flaky_observe_many)
        self._feed(monkeypatch, self._requests(3))
        code = main(self._serve())
        captured = capsys.readouterr()
        assert code == 2
        assert "no longer consistent" in captured.err
        lines = [json.loads(raw) for raw in captured.out.splitlines()]
        assert lines[0]["t"] == 0                 # first ingest fine
        assert lines[1]["fatal"] is True          # then fatal, then stop
        assert len(lines) == 2

    def test_wrong_length_snapshot_is_recoverable(self, capsys, monkeypatch):
        requests = self._requests(2)
        requests.insert(1, {"op": "ingest", "values": [0, 1]})  # wrong n
        requests.append({"op": "summary"})
        self._feed(monkeypatch, requests)
        assert main(self._serve()) == 0
        lines = [json.loads(raw) for raw in capsys.readouterr().out.splitlines()]
        assert "error" in lines[1]            # rejected before any advance
        assert lines[2]["t"] == 1             # ingestion continues in sync
        assert lines[3]["steps"] == 2


class TestStreamChunked:
    """`repro stream --chunk N` buffers N timestamps per engine call;
    the emitted lines must be identical to the per-step run."""

    @staticmethod
    def _args(extra=()):
        return [
            "stream", "--method", "LBU", "--domain-size", "3",
            "--epsilon", "1", "--window", "4", "--seed", "7", *extra,
        ]

    def _run(self, capsys, monkeypatch, extra=(), n_lines=23):
        TestStream._feed(
            monkeypatch, TestStream._snapshot_lines(n_lines=n_lines)
        )
        code = main(self._args(extra))
        captured = capsys.readouterr()
        assert code == 0
        return captured.out, captured.err

    def test_chunked_output_identical(self, capsys, monkeypatch):
        out_loop, err_loop = self._run(capsys, monkeypatch)
        out_chunk, err_chunk = self._run(
            capsys, monkeypatch, extra=("--chunk", "8")
        )
        assert out_chunk == out_loop
        assert err_chunk == err_loop

    def test_chunk_larger_than_input(self, capsys, monkeypatch):
        out_loop, _ = self._run(capsys, monkeypatch)
        out_chunk, _ = self._run(capsys, monkeypatch, extra=("--chunk", "999"))
        assert out_chunk == out_loop

    def test_chunk_with_max_steps(self, capsys, monkeypatch):
        out_loop, _ = self._run(
            capsys, monkeypatch, extra=("--max-steps", "10")
        )
        out_chunk, _ = self._run(
            capsys, monkeypatch, extra=("--chunk", "8", "--max-steps", "10")
        )
        assert out_chunk == out_loop
        assert len(out_chunk.splitlines()) == 10

    def test_invalid_chunk_is_graceful(self, capsys, monkeypatch):
        TestStream._feed(monkeypatch, TestStream._snapshot_lines())
        assert main(self._args(("--chunk", "0"))) == 2
        assert "chunk" in capsys.readouterr().err


class TestServeChunked:
    """`repro serve --chunk N` buffers consecutive ingests and flushes
    before answering queries; answer lines keep request order."""

    def _run(self, capsys, monkeypatch, requests, extra=()):
        TestServe._feed(monkeypatch, requests)
        code = main(TestServe._serve(extra))
        out = capsys.readouterr().out
        return code, [json.loads(raw) for raw in out.splitlines()]

    def test_chunked_answers_identical(self, capsys, monkeypatch):
        requests = TestServe._requests(n_steps=13) + [
            {"op": "topk", "k": 2},
            {"op": "summary"},
        ]
        code, loop = self._run(capsys, monkeypatch, requests)
        assert code == 0
        code, chunk = self._run(
            capsys, monkeypatch, requests, extra=("--chunk", "5")
        )
        assert code == 0
        assert chunk == loop

    def test_query_flushes_pending_ingests(self, capsys, monkeypatch):
        requests = TestServe._requests(n_steps=3) + [{"op": "summary"}]
        code, lines = self._run(
            capsys, monkeypatch, requests, extra=("--chunk", "100")
        )
        assert code == 0
        # All three buffered ingests answered (in order) before the query.
        assert [obj.get("t") for obj in lines[:3]] == [0, 1, 2]
        assert lines[3]["steps"] == 3

    def test_eof_flushes_partial_chunk(self, capsys, monkeypatch):
        code, lines = self._run(
            capsys,
            monkeypatch,
            TestServe._requests(n_steps=7),
            extra=("--chunk", "4"),
        )
        assert code == 0
        assert [obj["t"] for obj in lines] == list(range(7))

    def test_bad_request_keeps_order(self, capsys, monkeypatch):
        requests = TestServe._requests(n_steps=2)
        requests.insert(1, {"op": "bogus"})
        code, lines = self._run(
            capsys, monkeypatch, requests, extra=("--chunk", "10")
        )
        assert code == 0
        assert lines[0]["t"] == 0
        assert "error" in lines[1]
        assert lines[2]["t"] == 1
