"""Black-box conformance of ``repro serve --shards K`` over its socket.

Every test talks to a real server subprocess (spawned shard workers,
real asyncio front) and diffs its answers against the in-process
:class:`repro.serving.ShardedSession` reference — the tier's documented
contract is that no amount of batching, socket framing or process
parallelism may change a single merged float.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.serving import ShardRouter
from shard_serve_util import (
    DEFAULTS,
    ShardServerProc,
    assert_same_answer,
    feed_block,
    serial_reference,
    sharded_cmd,
)

N_USERS = 64
STEPS = 12


class TestSingleClientConformance:
    def test_answers_match_the_serial_reference_bit_for_bit(self):
        """One client, batched ingest: acks and every query class equal
        the serial ShardedSession over the same feed."""
        block = feed_block(STEPS, N_USERS, DEFAULTS["domain"], seed=51)
        serial = serial_reference(block, shards=2)
        with ShardServerProc(
            sharded_cmd(shards=2, n_users=N_USERS)
        ) as server:
            assert server.hello["shards"] == 2
            assert server.hello["watermark"] == 0
            with server.client() as client:
                # Send a full chunk of 4 before reading acks so the
                # server actually exercises batched observe_many.
                acks = []
                for i in range(0, STEPS, 4):
                    for t in range(i, i + 4):
                        client.send(
                            {"op": "ingest", "values": block[t].tolist()}
                        )
                    acks.extend(client.recv() for _ in range(4))
                for t, ack in enumerate(acks):
                    assert ack["t"] == t
                    assert ack["strategy"] == serial.merged.strategy_at(t)

                engine = serial.engine
                got = client.ask({"op": "point", "item": 3})
                assert got["as_of"] == STEPS - 1
                assert_same_answer(
                    got,
                    {
                        "op": "point",
                        "item": 3,
                        **engine.point(3).as_dict(),
                    },
                )
                assert_same_answer(
                    client.ask({"op": "point", "item": 0, "t": 5}),
                    {
                        "op": "point",
                        "item": 0,
                        **engine.point(0, t=5).as_dict(),
                    },
                )
                assert_same_answer(
                    client.ask({"op": "topk", "k": 3}),
                    {
                        "op": "topk",
                        "items": [e.as_dict() for e in engine.topk(3)],
                    },
                )
                assert_same_answer(
                    client.ask({"op": "range", "lo": 1, "hi": 4}),
                    {
                        "op": "range",
                        "lo": 1,
                        "hi": 4,
                        **engine.range_count(1, 4).as_dict(),
                    },
                )
                assert_same_answer(
                    client.ask(
                        {
                            "op": "sliding",
                            "t0": 2,
                            "t1": STEPS - 1,
                            "agg": "mean",
                            "item": 2,
                        }
                    ),
                    {
                        "op": "sliding",
                        "item": 2,
                        **engine.sliding(
                            2, STEPS - 1, "mean", item=2
                        ).as_dict(),
                    },
                )
                summary = client.ask({"op": "summary"})
                want = serial.summary()
                for key in (
                    "mechanism",
                    "oracle",
                    "num_shards",
                    "shard_users",
                    "steps",
                    "publications",
                    "total_reports",
                    "cfpu",
                    "max_window_spend",
                ):
                    assert summary[key] == want[key], key
            reply, rc = server.shutdown()
            assert reply == {"op": "shutdown", "watermark": STEPS}
            assert rc == 0

    def test_b64_ingest_equals_list_ingest(self):
        """The packed wire form decodes to the same snapshot, so both
        encodings of the same feed produce identical acks."""
        import base64

        block = feed_block(6, N_USERS, DEFAULTS["domain"], seed=53)
        serial = serial_reference(block, shards=2, chunk=2)
        with ShardServerProc(
            sharded_cmd(shards=2, n_users=N_USERS, chunk=2)
        ) as server:
            with server.client() as client:
                for t in range(6):
                    if t % 2:
                        request = {
                            "op": "ingest",
                            "b64": base64.b64encode(
                                block[t].astype(np.uint8).tobytes()
                            ).decode("ascii"),
                            "dtype": "u1",
                        }
                    else:
                        request = {
                            "op": "ingest",
                            "values": block[t].tolist(),
                        }
                    ack = client.ask(request)
                    assert ack["t"] == t
                    assert (
                        ack["strategy"] == serial.merged.strategy_at(t)
                    )
                assert_same_answer(
                    client.ask({"op": "point", "item": 1}),
                    {
                        "op": "point",
                        "item": 1,
                        **serial.engine.point(1).as_dict(),
                    },
                )
            server.shutdown()


class TestPopulationInference:
    def test_omitted_n_users_is_taken_from_the_first_ingest(self):
        """Without ``--n-users`` the first ingest fixes N; the transcript
        is byte-identical to the same feed served with the flag."""
        block = feed_block(8, N_USERS, DEFAULTS["domain"], seed=57)
        requests = [
            {"op": "ingest", "values": row.tolist()} for row in block
        ] + [
            {"op": "topk", "k": 3},
            {"op": "point", "item": 2},
            {"op": "summary"},
            {"op": "shutdown"},
        ]
        transcripts = []
        for n_users in (N_USERS, None):
            with ShardServerProc(
                sharded_cmd(shards=2, n_users=n_users)
            ) as server:
                with server.client() as client:
                    lines = []
                    for request in requests:
                        client.send(request)
                        lines.append(client.rfile.readline())
                server.proc.wait(timeout=60)
            transcripts.append(lines)
        assert json.loads(transcripts[0][-2])["shard_users"] == [
            int(c) for c in ShardRouter(N_USERS, 2).counts
        ]
        assert transcripts[1] == transcripts[0]


class TestErrorHandling:
    def test_bad_requests_answer_errors_without_dying(self):
        """Malformed lines — broken JSON, wrong population size,
        out-of-domain values, JSON Infinity, floats, booleans, a digit
        string, unknown ops, checkpoint without a state dir — each earns
        a structured error line and the server keeps serving."""
        block = feed_block(3, N_USERS, DEFAULTS["domain"], seed=57)
        with ShardServerProc(
            sharded_cmd(shards=2, n_users=N_USERS, chunk=1)
        ) as server:
            with server.client() as client:
                bad_lines = [
                    "{not json}",
                    '"just a string"',
                    json.dumps({"op": "ingest", "values": [1, 2, 3]}),
                    json.dumps(
                        {"op": "ingest", "values": [99] * N_USERS}
                    ),
                    '{"op": "ingest", "values": ['
                    + ", ".join(["Infinity"] * N_USERS)
                    + "]}",
                    json.dumps({"op": "mystery"}),
                    json.dumps({"op": "checkpoint"}),
                    json.dumps({"op": "ingest", "b64": "!!", "dtype": "u1"}),
                    json.dumps(
                        {"op": "ingest", "b64": "AA==", "dtype": "f8"}
                    ),
                ]
                # Right-sized, in-domain once truncated: an int() parse
                # would have ingested each of these silently.
                non_integer_lines = [
                    json.dumps({"op": "ingest", "values": [1.7] * N_USERS}),
                    json.dumps({"op": "ingest", "values": [True] * N_USERS}),
                    json.dumps({"op": "ingest", "values": "0120" * 16}),
                ]
                for line in bad_lines + non_integer_lines:
                    client.send_raw(line)
                    reply = client.recv()
                    assert set(reply) == {"error"}, (line, reply)
                    if line in non_integer_lines:
                        assert reply["error"].startswith(
                            "InvalidParameterError: ingest values must be"
                        ), reply
                # The tier is still healthy: ingest and query proceed.
                for t in range(3):
                    ack = client.ask(
                        {"op": "ingest", "values": block[t].tolist()}
                    )
                    assert ack["t"] == t
                answer = client.ask({"op": "point", "item": 0})
                assert answer["as_of"] == 2
            reply, rc = server.shutdown()
            assert reply["watermark"] == 3
            assert rc == 0


class TestConcurrentClients:
    def test_eight_interleaved_clients_see_one_serialized_order(self):
        """Satellite: 8 concurrent sessions interleave ingests and
        queries.  The server acks a single global order (each ingest a
        distinct timestamp, all timestamps covered); replaying that
        exact order through the serial reference must reproduce every
        acked strategy and every queried answer bit-for-bit."""
        clients = 8
        per_client = 4
        domain = DEFAULTS["domain"]
        with ShardServerProc(
            sharded_cmd(shards=4, n_users=N_USERS, chunk=3)
        ) as server:

            def run_client(c):
                rng = np.random.default_rng(1000 + c)
                records = []
                with server.client() as client:
                    for i in range(per_client):
                        values = rng.integers(
                            0, domain, size=N_USERS
                        ).tolist()
                        ack = client.ask(
                            {"op": "ingest", "values": values}
                        )
                        records.append(("ingest", values, ack))
                        item = int(rng.integers(domain))
                        answer = client.ask(
                            {"op": "point", "item": item}
                        )
                        records.append(("point", item, answer))
                    t1 = records[-2][2]["t"]  # this client's last ack
                    answer = client.ask(
                        {
                            "op": "sliding",
                            "t0": 0,
                            "t1": t1,
                            "agg": "sum",
                            "item": c % domain,
                        }
                    )
                    records.append(("sliding", (c % domain, t1), answer))
                return records

            with ThreadPoolExecutor(max_workers=clients) as pool:
                all_records = list(pool.map(run_client, range(clients)))
            reply, rc = server.shutdown()
            assert rc == 0

        total = clients * per_client
        assert reply["watermark"] == total

        # Reconstruct the server's global serialized order from the acks.
        by_t = {}
        for records in all_records:
            for kind, payload, ack in records:
                if kind == "ingest":
                    assert ack.get("error") is None, ack
                    by_t[ack["t"]] = (payload, ack["strategy"])
        assert sorted(by_t) == list(range(total)), (
            "acked timestamps must be distinct and cover the stream"
        )

        # Replay that order through the serial reference (chunking is
        # invariant, so row-at-a-time replay is exact).
        from repro.serving import ShardedSession

        serial = ShardedSession(
            DEFAULTS["method"],
            n_users=N_USERS,
            domain_size=domain,
            epsilon=DEFAULTS["epsilon"],
            window=DEFAULTS["window"],
            num_shards=4,
            oracle=DEFAULTS["oracle"],
            seed=DEFAULTS["seed"],
            capacity=None,
            retain=4,
        ).start()
        for t in range(total):
            values, strategy = by_t[t]
            ack = serial.ingest(np.asarray(values, dtype=np.int64))
            assert ack["strategy"] == strategy, t

        # Every query the server answered mid-stream must equal the
        # reference's answer over the prefix it was acked against.
        for records in all_records:
            for kind, payload, answer in records:
                if kind == "point":
                    as_of = answer["as_of"]
                    want = serial.engine.point(payload, t=as_of).as_dict()
                    assert_same_answer(
                        answer,
                        {"op": "point", "item": payload, **want},
                    )
                elif kind == "sliding":
                    item, t1 = payload
                    want = serial.engine.sliding(
                        0, t1, "sum", item=item
                    ).as_dict()
                    assert_same_answer(
                        answer,
                        {"op": "sliding", "item": item, **want},
                    )
