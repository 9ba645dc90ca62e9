"""Detection-as-a-service: the typed API core and the HTTP transport.

The HTTP tests bind real sockets on port 0 and drive the service with
explicit ``pump``/``checkpoint`` calls on a :class:`SimulatedClock` — no
test here sleeps on the wall clock.  The restart class pins the
headline contract: submit clicks, query a verdict, restart the server
process on the same store, get the same verdict at the same store
version.
"""

import io
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from http.client import HTTPConnection
from types import SimpleNamespace

import pytest

from repro.config import RICDParams
from repro.core.groups import DetectionResult, SuspiciousGroup
from repro.datagen import tiny_scenario
from repro.serve import (
    ApiError,
    DetectionAPI,
    DetectionService,
    ResultRequest,
    ServeConfig,
    SimulatedClock,
    StalenessPolicy,
    SubmitClicksRequest,
    VerdictRequest,
    serve_api,
)
from repro.serve.api import _Handler

pytestmark = pytest.mark.servertest

PARAMS = RICDParams(k1=4, k2=4)
# The tiny scenario's derived thresholds, pinned: with them fixed, every
# replica of its planted group (below) is flagged as a group of its own,
# so the served result grows by one group per replica.
PINNED = RICDParams(k1=4, k2=4, t_hot=97.0, t_click=12.0)


@pytest.fixture(scope="module")
def scenario_records():
    graph = tiny_scenario().graph
    return [
        (str(user), str(item), graph.get_click(user, item))
        for user in sorted(graph.users(), key=str)
        for item in sorted(graph.user_neighbors(user), key=str)
    ]


def replica(graph, copy: int) -> tuple:
    """The planted group's clicks under fresh worker and target ids.

    The workers (``w0_*``) keep their clicks on the hot items they ride
    and on the targets (``t0_*``); both get ids unique to ``copy``.
    """
    return tuple(
        (f"r{copy}_{user[3:]}", f"r{copy}t_{item[3:]}" if item.startswith("t0_") else item,
         graph.get_click(user, item))
        for user in sorted(str(user) for user in graph.users() if str(user).startswith("w0_"))
        for item in sorted(str(item) for item in graph.user_neighbors(user))
        if item.startswith("t0_") or item in ("i3", "i17")
    )


def scan_verdict(result, side: str, node: str) -> tuple:
    """The per-read scan the verdict index replaced, kept as its oracle."""
    users = side == "user"
    members = result.suspicious_users if users else result.suspicious_items
    scores = result.user_scores if users else result.item_scores
    score = next((float(value) for key, value in scores.items() if str(key) == node), None)
    groups = tuple(
        rank
        for rank, group in enumerate(result.groups)
        if any(str(key) == node for key in (group.users if users else group.items))
    )
    return any(str(key) == node for key in members), score, groups


def answer(verdict) -> tuple:
    return verdict.suspicious, verdict.score, verdict.groups


@pytest.fixture(scope="module")
def replicated(tmp_path_factory, scenario_records):
    """An API serving the tiny scenario plus 24 replicas of its planted group.

    Its ``GET /v1/result`` body is over 8 KiB, larger than a stdlib
    buffered writer holds.
    """
    graph = tiny_scenario().graph
    records = tuple(scenario_records) + sum((replica(graph, copy) for copy in range(24)), ())
    api = DetectionAPI(make_service(tmp_path_factory.mktemp("store"), params=PINNED))
    api.submit_clicks(SubmitClicksRequest(records=records, pump=True))
    api.checkpoint()
    return api, records


def make_service(store_root, params=PARAMS):
    return DetectionService.from_store(
        store_root,
        params=params,
        engine="reference",
        config=ServeConfig(staleness=StalenessPolicy(max_batches=10**9)),
        clock=SimulatedClock(),
    )


class CountingSocket:
    """A connection that reads back one request's bytes and records each send."""

    def __init__(self, request: bytes):
        self.request = request
        self.sends: list = []

    def makefile(self, mode, buffering=-1):
        return io.BytesIO(self.request)

    def sendall(self, data):
        self.sends.append(bytes(data))

    def send(self, data):
        self.sends.append(bytes(data))
        return len(data)


def http(port, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read() or "null")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or "null")


class TestRequestParsing:
    def test_records_coerced_and_validated(self):
        request = SubmitClicksRequest.from_json(
            {"records": [[1, 2, "3"]], "pump": True}
        )
        assert request.records == (("1", "2", 3),)
        assert request.pump

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"records": [["u", "i"]]},
            {"records": [["u", "i", "many"]]},
            {"records": [["u", "i", 0]]},
            {"records": [["u", "i", -2]]},
        ],
    )
    def test_bad_payloads_raise_api_errors(self, payload):
        with pytest.raises(ApiError):
            SubmitClicksRequest.from_json(payload)

    def test_verdict_side_validated(self):
        with pytest.raises(ApiError):
            VerdictRequest(side="shop", node="u1")


class TestTypedCore:
    """The DetectionAPI without any HTTP in the loop."""

    @pytest.fixture()
    def api(self, tmp_path, scenario_records):
        api = DetectionAPI(make_service(tmp_path / "store"))
        api.submit_clicks(SubmitClicksRequest(records=tuple(scenario_records), pump=True))
        api.checkpoint()
        return api

    def test_submit_reports_applied_and_version(self, tmp_path):
        api = DetectionAPI(make_service(tmp_path / "store"))
        response = api.submit_clicks(
            SubmitClicksRequest(records=(("u", "i", 2),), pump=True)
        )
        assert response.accepted == 1 and response.applied == 1
        assert response.queue_depth == 0
        assert response.store_version == 1

    def test_verdict_flags_planted_workers(self, api):
        result = api.service.result
        assert result.suspicious_users, "tiny scenario must trip detection"
        worker = str(next(iter(result.suspicious_users)))
        verdict = api.verdict(VerdictRequest(side="user", node=worker))
        assert verdict.suspicious
        assert verdict.score is not None and verdict.score > 0
        assert verdict.groups  # member of at least one flagged group
        assert verdict.store_version == api.service.store_version

    def test_verdict_clears_unknown_node(self, api):
        verdict = api.verdict(VerdictRequest(side="user", node="nobody-here"))
        assert not verdict.suspicious
        assert verdict.score is None and verdict.groups == ()

    def test_group_verdict_composition(self, api):
        result = api.service.result
        group = api.group(0)
        assert group.users == tuple(sorted(str(u) for u in result.groups[0].users))
        with pytest.raises(ApiError) as excinfo:
            api.group(len(result.groups))
        assert excinfo.value.status == 404

    def test_live_and_versioned_result_agree_at_head(self, api):
        live = api.result(ResultRequest())
        stored = api.result(ResultRequest(version=live.store_version))
        assert live.live and not stored.live
        assert live.result["suspicious_users"] == stored.result["suspicious_users"]

    def test_missing_version_is_a_404(self, api):
        with pytest.raises(ApiError) as excinfo:
            api.result(ResultRequest(version=999))
        assert excinfo.value.status == 404

    def test_status_reports_store_and_graph(self, api):
        status = api.status()
        assert status.store_version in status.store_versions
        assert status.num_users > 0 and status.num_edges > 0
        assert status.level == "normal"


class TestVerdictIndex:
    """A verdict is one lookup in a per-result index; the scan is the oracle."""

    def test_every_node_of_a_result_answers_like_the_scan(self, replicated):
        api, records = replicated
        result = api.service.result
        assert len(result.groups) == 25
        nodes = {
            "user": {user for user, _, _ in records} | {"nobody", ""},
            "item": {item for _, item, _ in records} | {"nothing", "r0_0"},
        }
        for side, ids in nodes.items():
            for node in sorted(ids):
                verdict = api.verdict(VerdictRequest(side=side, node=node))
                assert answer(verdict) == scan_verdict(result, side, node), (side, node)

    def test_ids_whose_string_forms_collide(self, tmp_path):
        service = make_service(tmp_path / "store")
        result = DetectionResult(
            suspicious_users={1},
            suspicious_items={"7"},
            groups=[
                SuspiciousGroup(users={"1"}, items={7}),
                SuspiciousGroup(users={2}, items={"8"}),
                SuspiciousGroup(users={1, "1"}, items={7, "7"}),
            ],
            user_scores={1: 2.0, 2: 1.0, "1": 5.0},
            item_scores={"7": 0.5, 7: 3.0},
        )
        api = DetectionAPI(SimpleNamespace(snapshot=lambda: replace(service.snapshot(), result=result)))
        for side, node in [("user", "1"), ("user", "2"), ("item", "7"), ("item", "8"),
                           ("user", "3"), ("item", "1")]:
            verdict = api.verdict(VerdictRequest(side=side, node=node))
            assert answer(verdict) == scan_verdict(result, side, node), (side, node)
        assert answer(api.verdict(VerdictRequest(side="user", node="1"))) == (True, 2.0, (0, 2))

    def test_index_follows_a_newly_published_result(self, tmp_path, scenario_records):
        api = DetectionAPI(make_service(tmp_path / "store"))
        worker = VerdictRequest(side="user", node="w0_0")
        assert answer(api.verdict(worker)) == (False, None, ())
        api.submit_clicks(SubmitClicksRequest(records=tuple(scenario_records), pump=True))
        api.checkpoint()
        result = api.service.result
        assert answer(api.verdict(worker)) == scan_verdict(result, "user", "w0_0")
        assert api.verdict(worker).suspicious


class TestStoreVersionRace:
    """Every verdict cites the store version of the result it answered from."""

    class PreemptedReads(DetectionService):
        """Request threads stall right after reading the served state.

        In a thread that sets ``readers.stall``, ``snapshot()`` returns
        only once the pump thread has committed a newer store version (or
        1 s passed): the widest
        gap a preempted request thread can suffer between reading the
        state and answering from it.
        """

        readers = threading.local()

        def snapshot(self):
            snapshot = super().snapshot()
            if getattr(self.readers, "stall", False):
                seen, deadline = self.store_version, time.monotonic() + 1.0
                while self.store_version == seen and time.monotonic() < deadline:
                    time.sleep(1e-4)
            return snapshot

    def test_verdicts_racing_the_pump_thread_cite_their_version(self, tmp_path, scenario_records):
        graph = tiny_scenario().graph
        service = self.PreemptedReads.from_store(
            tmp_path / "store",
            params=PINNED,
            engine="auto",
            config=ServeConfig(staleness=StalenessPolicy(max_batches=1), poll_interval=1e-3),
        )
        api = DetectionAPI(service)
        api.submit_clicks(SubmitClicksRequest(records=tuple(scenario_records), pump=True))
        copies, in_flight, stop = 12, [0], threading.Event()
        seen: list = []

        def read(reader: int) -> None:
            self.PreemptedReads.readers.stall = reader % 2 == 0
            turn = 0
            while not stop.is_set():
                # The copy being written, or the next one: a stalled read
                # of the next copy spans the commit that flags it.
                copy, turn = in_flight[0] + turn % 2, turn + 1
                side, node = ("user", f"r{copy}_0") if turn % 4 < 2 else ("item", f"r{copy}t_0")
                verdict = api.verdict(VerdictRequest(side=side, node=node))
                seen.append((side, node, verdict.store_version, answer(verdict)))

        readers = [threading.Thread(target=read, args=(n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service.start()
            for reader in readers:
                reader.start()
            for copy in range(copies):
                head, deadline = service.store_version, time.monotonic() + 10.0
                in_flight[0] = copy
                api.submit_clicks(SubmitClicksRequest(records=replica(graph, copy)))
                while service.store_version == head and time.monotonic() < deadline:
                    time.sleep(1e-3)
            service.stop(drain=True)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30.0)
            sys.setswitchinterval(interval)
            service.stop(drain=False)
        assert not any(reader.is_alive() for reader in readers)
        assert len(service.result.groups) == copies + 1
        stored: dict = {}
        wrong = []
        for side, node, version, got in seen:
            if version not in stored:
                stored[version] = service.store.load_result(version)
            if got != scan_verdict(stored[version], side, node):
                wrong.append((side, node, version, got))
        assert len(stored) > copies // 2 and not wrong, f"{len(wrong)} of {len(seen)}: {wrong[:3]}"


class TestHTTPServer:
    @pytest.fixture()
    def served(self, tmp_path, scenario_records):
        service = make_service(tmp_path / "store")
        server, thread = serve_api(service)
        port = server.server_address[1]
        http(port, "POST", "/v1/clicks", {"records": scenario_records, "pump": True})
        http(port, "POST", "/v1/checkpoint")
        yield service, port
        server.shutdown()

    def test_submit_then_verdict_over_http(self, served):
        service, port = served
        worker = str(next(iter(service.result.suspicious_users)))
        status, verdict = http(port, "GET", f"/v1/verdict/user/{worker}")
        assert status == 200
        assert verdict["suspicious"] is True
        assert verdict["store_version"] == service.store_version

    def test_pump_endpoint_drains_one_batch(self, served):
        service, port = served
        http(port, "POST", "/v1/clicks", {"records": [["x", "y", 1]]})
        status, report = http(port, "POST", "/v1/pump")
        assert status == 200
        assert report["applied"] == 1 and report["queue_depth"] == 0

    def test_status_and_result_round_trip(self, served):
        service, port = served
        status_code, status = http(port, "GET", "/v1/status")
        assert status_code == 200
        assert status["store_version"] == service.store_version
        _, live = http(port, "GET", "/v1/result")
        _, stored = http(port, "GET", f"/v1/result/{live['store_version']}")
        assert live["result"]["suspicious_users"] == stored["result"]["suspicious_users"]

    @pytest.mark.parametrize(
        "method, path, expected",
        [
            ("GET", "/v1/nope", 404),
            ("GET", "/nope", 404),
            ("GET", "/v1/verdict/shop/u1", 400),
            ("GET", "/v1/result/not-a-number", 400),
            ("GET", "/v1/verdict/group/999", 404),
            ("POST", "/v1/verdict/user/u1", 404),
            ("PUT", "/v1/clicks", 405),
            ("PATCH", "/v1/status", 405),
            ("DELETE", "/v1/result", 405),
            ("HEAD", "/v1/status", 405),
        ],
    )
    def test_error_routing(self, served, method, path, expected):
        _, port = served
        status, body = http(port, method, path, {} if method in ("POST", "PUT") else None)
        assert status == expected
        if method == "HEAD":
            assert body is None  # a reply to HEAD has headers only
        else:
            assert "error" in body

    def test_keep_alive_survives_a_405(self, served):
        _, port = served
        connection = HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request("PUT", "/v1/clicks", body=b'{"records": []}')
            response = connection.getresponse()
            assert response.status == 405
            assert response.getheader("Allow") == "GET, POST"
            assert "error" in json.loads(response.read())
            connection.request("GET", "/v1/status")
            response = connection.getresponse()
            assert response.status == 200
            assert "store_version" in json.loads(response.read())
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "request_bytes, status, min_body",
        [
            (b"GET /v1/verdict/user/r0_0 HTTP/1.1\r\n\r\n", 200, 0),
            (
                b"POST /v1/clicks HTTP/1.1\r\nContent-Length: 29\r\n\r\n"
                b'{"records": [["x", "y", 1]]}\n',
                200,
                0,
            ),
            (b"GET /v1/verdict/group/999 HTTP/1.1\r\n\r\n", 404, 0),
            (b"POST /v1/clicks HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400, 0),
            (b"GET /v1/result HTTP/1.1\r\n\r\n", 200, 8 * 1024 + 1),
        ],
        ids=["verdict", "clicks", "api-error-404", "bad-content-length", "large-result"],
    )
    def test_every_response_is_one_send(self, replicated, request_bytes, status, min_body):
        api, _ = replicated
        connection = CountingSocket(request_bytes)
        _Handler(connection, ("127.0.0.1", 0), SimpleNamespace(api=api))
        assert len(connection.sends) == 1, [len(data) for data in connection.sends]
        head, _, body = connection.sends[0].decode().partition("\r\n\r\n")
        status_line, *header_lines = head.split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        assert int(headers["Content-Length"]) == len(body) >= min_body
        assert json.loads(body)

    def test_malformed_json_body_is_a_400(self, served):
        _, port = served
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/clicks",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


    def test_keep_alive_survives_bodies_on_routes_that_ignore_them(self, served):
        _, port = served
        connection = HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request(
                "POST", "/v1/pump", body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            connection.request("GET", "/v1/status")
            response = connection.getresponse()
            assert response.status == 200
            assert "store_version" in json.loads(response.read())
        finally:
            connection.close()

    def test_non_numeric_content_length_is_a_400(self, served):
        _, port = served
        connection = HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/clicks")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            connection.close()


class TestRestartContract:
    """Same store, new process: same verdict at the same graph version."""

    def test_verdicts_survive_a_server_restart(self, tmp_path, scenario_records):
        service = make_service(tmp_path / "store")
        server, _ = serve_api(service)
        port = server.server_address[1]
        http(port, "POST", "/v1/clicks", {"records": scenario_records, "pump": True})
        http(port, "POST", "/v1/checkpoint")
        workers = sorted(str(u) for u in service.result.suspicious_users)
        assert workers
        before = {
            worker: http(port, "GET", f"/v1/verdict/user/{worker}")[1]
            for worker in workers
        }
        _, result_before = http(port, "GET", "/v1/result")
        server.shutdown()

        # "Restart": a fresh service + server over the same store root.
        restarted = make_service(tmp_path / "store")
        server2, _ = serve_api(restarted)
        port2 = server2.server_address[1]
        for worker, old in before.items():
            status, new = http(port2, "GET", f"/v1/verdict/user/{worker}")
            assert status == 200
            assert new["suspicious"] == old["suspicious"] is True
            assert new["store_version"] == old["store_version"]
            assert new["score"] == pytest.approx(old["score"])
            assert new["groups"] == old["groups"]
        _, result_after = http(port2, "GET", "/v1/result")
        assert result_after["store_version"] == result_before["store_version"]
        assert (
            result_after["result"]["suspicious_users"]
            == result_before["result"]["suspicious_users"]
        )
        server2.shutdown()

    def test_restarted_store_versions_continue_monotonically(self, tmp_path):
        service = make_service(tmp_path / "store")
        api = DetectionAPI(service)
        api.submit_clicks(SubmitClicksRequest(records=(("u", "i", 2),), pump=True))
        head = api.checkpoint().store_version

        restarted = DetectionAPI(make_service(tmp_path / "store"))
        assert restarted.status().store_version == head
        restarted.submit_clicks(SubmitClicksRequest(records=(("u2", "i", 1),), pump=True))
        assert restarted.checkpoint().store_version > head
