"""Tests for the command-line entry point (python -m repro)."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "Figure 4" in out

    def test_table2(self, capsys):
        assert main(["table2", "--size", "tiny"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_table1_app_selection(self, capsys):
        assert main(["table1", "--app", "bfs", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "bfs" in out and "persist-warp" in out

    def test_fig(self, capsys):
        assert main(["fig", "--app", "bfs", "--dataset", "roadNet-CA", "--size", "tiny"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--app", "bfs", "--dataset", "roadNet-CA", "--size", "tiny"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["report", "--size", "tiny"]) == 0
        assert "shape verdict" in capsys.readouterr().out

    def test_bad_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--app", "sssp"])


# every command that runs a named cell refuses a bad one before running it
REFUSALS = [
    (["run", "nope", "rmat8"], "unknown app 'nope'"),
    (["run", "bfs", "nope"], "unknown dataset 'nope'"),
    (["run", "bfs", "rmat8", "--config", "nope"], "unknown config 'nope'"),
    (["run", "bfs-inc", "rmat8", "--config", "BSP"], "no BSP implementation"),
    (["run", "delta-sssp", "rmat8"], "BSP-only"),
    (["trace", "nope", "rmat8"], "invalid choice: 'nope'"),
    (["trace", "bfs", "nope"], "unknown dataset 'nope'"),
    (["trace", "bfs", "rmat8", "--config", "nope"], "unknown config 'nope'"),
    (["trace", "bfs-inc", "rmat8"], "dynamic app"),
    (["trace", "bfs", "rmat8", "--config", "BSP"], "application level"),
    (["metrics", "nope", "rmat8"], "unknown app 'nope'"),
    (["metrics", "bfs", "nope"], "unknown dataset 'nope'"),
    (["metrics", "bfs", "rmat8", "--config", "nope"], "unknown config 'nope'"),
    (["metrics", "bfs", "rmat8", "--config", "BSP"], "application level"),
    (["metrics", "cc-inc", "rmat8"], "dynamic app"),
    (["check", "nope", "rmat8"], "invalid choice: 'nope'"),
    (["check", "bfs", "nope"], "unknown dataset 'nope'"),
    (["check", "bfs", "rmat8", "--config", "nope"], "unknown config 'nope'"),
    (["check", "bfs", "rmat8", "--edits", "2x8@1"], "'bfs' is static"),
    (["check", "bfs-inc", "rmat8", "--config", "BSP"], "no BSP implementation"),
    (["dash", "--app", "nope", "--dataset", "rmat8"], "unknown app 'nope'"),
    (["dash", "--app", "bfs", "--dataset", "nope"], "unknown dataset 'nope'"),
    (["dash", "--app", "bfs", "--dataset", "rmat8", "--config", "nope"],
     "unknown config 'nope'"),
    (["dash", "--app", "bfs", "--dataset", "rmat8", "--config", "BSP"], "application level"),
    (["dash", "--app", "pagerank-inc", "--dataset", "rmat8"], "dynamic app"),
    # submit refuses locally, before it looks for a service
    (["submit", "nosuchapp", "roadNet-CA"], "unknown app 'nosuchapp'"),
    (["submit", "bfs", "nope"], "unknown dataset 'nope'"),
    (["submit", "bfs", "rmat8", "--config", "nope"], "unknown config 'nope'"),
    (["submit", "bfs", "rmat8", "--config", "BSP", "--seed", "1"], "no engine"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_bad_cell_is_a_one_line_refusal(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--size", "tiny"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"python -m repro {argv[0]}: error: ") and err.count("\n") == 1
    assert message in err
    assert not list(tmp_path.iterdir()), "a refused command wrote a file"


# ---------------------------------------------------------------------------
# service CLI: repro serve / repro submit / repro service-bench
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_service():
    """A real service on an ephemeral port, run on a background thread."""
    import asyncio
    import threading

    from repro.service import Broker, BrokerConfig, ServiceServer

    started = threading.Event()
    box = {}

    def run():
        async def amain():
            server = ServiceServer(Broker(BrokerConfig(workers=2)), port=0)
            await server.start()
            box["port"] = server.port
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = asyncio.Event()
            started.set()
            await box["stop"].wait()
            await server.stop()

        asyncio.run(amain())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(20), "service failed to start"
    yield box["port"]
    box["loop"].call_soon_threadsafe(box["stop"].set)
    thread.join(20)


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServiceCli:
    def test_submit_cold_then_cached(self, live_service, capsys):
        argv = ["submit", "bfs", "roadNet-CA", "--size", "tiny", "--port", str(live_service)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "digest=" in cold and "attempts=1" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "(cached)" in warm
        # same content address, same answer
        assert cold.split("digest=")[1].split()[0] == warm.split("digest=")[1].split()[0]

    def test_submit_json_document(self, live_service, capsys):
        import json

        argv = [
            "submit", "--job",
            '{"app": "bfs", "dataset": "roadNet-CA", "size": "tiny"}',
            "--json", "--port", str(live_service),
        ]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digest"] and doc["job"]["app"] == "bfs"

    def test_submit_stats(self, live_service, capsys):
        import json

        assert main(["submit", "--stats", "--port", str(live_service)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.service/stats-v2"

    def test_submit_dead_server_one_line_diagnostic(self, capsys):
        port = _free_port()  # freshly released: nothing listens here
        code = main(["submit", "bfs", "roadNet-CA", "--port", str(port)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("submit:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_submit_malformed_job_json(self, capsys):
        code = main(["submit", "--job", "{not json", "--port", str(_free_port())])
        err = capsys.readouterr().err
        assert code == 2
        assert "malformed --job JSON" in err
        assert "Traceback" not in err

    # a --job document is sent as given, so the server's 400 is the refusal
    def test_submit_unknown_app_rejected_by_server(self, live_service, capsys):
        job = '{"app": "nope", "dataset": "roadNet-CA"}'
        code = main(["submit", "--job", job, "--port", str(live_service)])
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown app" in err and err.startswith("submit:")
        assert "Traceback" not in err

    def test_submit_unknown_config_rejected_by_server(self, live_service, capsys):
        job = '{"app": "bfs", "dataset": "roadNet-CA", "config": "warp-9000"}'
        code = main(["submit", "--job", job, "--port", str(live_service)])
        err = capsys.readouterr().err
        assert code == 1 and "unknown config" in err

    def test_submit_sends_the_spec_run_would_build(self, live_service, capsys):
        import json

        from repro.service.jobs import RunSpec

        argv = [
            "submit", "bfs-inc", "rmat8", "--size", "tiny", "--seed", "2",
            "--json", "--port", str(live_service),
        ]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        # the dynamic app gets run's default edit script; the seed rides along
        want = RunSpec("bfs-inc", "rmat8", "persist-CTA", size="tiny", seed=2, edits="3x32@7")
        assert doc["job"] == want.to_dict()

    def test_submit_requires_a_job(self, live_service):
        with pytest.raises(SystemExit):
            main(["submit", "--port", str(live_service)])

    def test_serve_port_conflict_one_line_diagnostic(self, live_service, capsys):
        code = main(["serve", "--port", str(live_service)])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot bind" in err and "is another server running?" in err
        assert "Traceback" not in err


@pytest.mark.slow
def test_service_bench_cli_small(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main([
        "service-bench", "--size", "small", "--clients", "60",
        "--tenants", "4", "--workers", "2", "--out", str(out),
    ])
    text = capsys.readouterr().out
    assert code == 0, text
    assert "digest match" in text and out.exists()
