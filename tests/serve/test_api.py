"""Detection-as-a-service: the typed API core and the HTTP transport.

The HTTP tests bind real sockets on port 0 and drive the service with
explicit ``pump``/``checkpoint`` calls on a :class:`SimulatedClock` — no
test here sleeps on the wall clock.  The restart class pins the
headline contract: submit clicks, query a verdict, restart the server
process on the same store, get the same verdict at the same store
version.
"""

import json
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro.config import RICDParams
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

pytestmark = pytest.mark.servertest

PARAMS = RICDParams(k1=4, k2=4)


@pytest.fixture(scope="module")
def scenario_records():
    graph = tiny_scenario().graph
    return [
        (str(user), str(item), graph.get_click(user, item))
        for user in sorted(graph.users(), key=str)
        for item in sorted(graph.user_neighbors(user), key=str)
    ]


def make_service(store_root):
    return DetectionService.from_store(
        store_root,
        params=PARAMS,
        engine="reference",
        config=ServeConfig(staleness=StalenessPolicy(max_batches=10**9)),
        clock=SimulatedClock(),
    )


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
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


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
        ],
    )
    def test_error_routing(self, served, method, path, expected):
        _, port = served
        status, body = http(port, method, path, {} if method == "POST" else None)
        assert status == expected
        assert "error" in body

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
