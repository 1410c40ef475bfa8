"""Byte-level pins of the CLI commands that run one observed cell.

``repro trace``, ``metrics``, ``dash --app`` and ``check`` each run a
named cell with a sink or checker attached, print a report and may write
files; ``repro run`` prints every scheduler counter of its result.  Each
case below records one invocation's exact stdout and the
SHA-256 of every file it writes (run in an empty directory, so relative
output paths are stable), so any change to how these commands build and
execute their run shows up here as a diff.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.__main__ import main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# argv -> (sha256 of stdout, {written file: sha256 of its bytes})
PINS = {
    "trace bfs roadnet_ca_sim --config persist-warp --size tiny": (
        "13831edd249e23885ee77c8d39f93f4c9f81b9295b7699df9cef5358a9f43a06",
        {"trace.json": "5634a6b0c10545617ad8af5944dfbcd2634df5ccc049c7d1b64a54f52261ea56"},
    ),
    (
        "metrics bfs roadNet-CA --config persist-warp --size tiny "
        "--out s.json --prom s.prom --jsonl s.jsonl --csv s.csv"
    ): (
        "2e34b00bec2e581c73486fe9c6ff9677044801357cc4e023832e2bc32f338cf4",
        {
            "s.json": "e3644243b16a07d845b71529518d7c97539d8f82dc9f4dcaa51a78dd8795a64e",
            "s.prom": "0310f0aa1d66c079c00e637fcf3506b60d83b88a8e23943be15dbf1a1ade3571",
            "s.jsonl": "874c4423c5381ea28bd82bdb4e5d1b3ae82a370bfe17dc608be79562dee30af7",
            "s.csv": "b6c6d469eeca1ea452bc1113924fca833e9e7223f48eefb06525315c6652cfc9",
        },
    ),
    "dash --app bfs --dataset roadNet-CA --size tiny": (
        "4bf63d694cb83df014740d289da732382dc0097b85e331dbf337b48dc0e5fbc8",
        {"dash.html": "16beb00a49034dee56103210bd8543e7a3d4cef2a6aa8971a30a813e0b9b80a4"},
    ),
    "check bfs rmat8 --seeds 5": (
        "8949db5830dc34c17c8b44053f9efaeac595711704ba5ad537e7854f25a46d3a", {},
    ),
    "check coloring grid_mesh --seeds 5": (
        "12c6dce8e42ea9b25e670d3a70d2fbe626bbe70bd019913a04c24bce9baae966", {},
    ),
    # delta-sssp is BSP-only: the app-level branch (oracle, no fuzz)
    "check delta-sssp rmat8 --seeds 1": (
        "3e1c256086fa7e07603f03f76418c20910596421bd8dfe8eb58a9725ebff9346", {},
    ),
    "check bfs-inc rmat8 --seeds 3 --edits 2x16@3": (
        "98417c13b57e4c7d3d78e4654cd81b691311ed02daa1c00214023a3123b78403", {},
    ),
    # `run` prints every extra counter: remote pushes and failed steals
    # across two devices, a hybrid policy switch, 58 discrete generations
    "run bfs roadNet-CA --config dist-2 --size tiny": (
        "43efebc5979fef91d7079d51efdb3878a00539edf73c176d2f9e1e2167bb7936", {},
    ),
    "run coloring soc-LiveJournal1 --config hybrid-CTA --size tiny": (
        "7422db95a8b4329f56fdbac5e8ba37891e00d059f2f7d1c9fbced9c8db943fb8", {},
    ),
    "run pagerank roadNet-CA --config discrete-CTA --size tiny": (
        "8ace352a7a41018b26044885bd0dba2135a760ef44fcec5f25a9ae8d7d0182f4", {},
    ),
}


@pytest.mark.parametrize("command", sorted(PINS))
def test_cli_output_is_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    stdout_sha, files = PINS[command]
    assert _sha(out.encode("utf-8")) == stdout_sha, f"stdout changed:\n{out}"
    written = {p.name: _sha(p.read_bytes()) for p in tmp_path.iterdir()}
    assert written == files
