import json
import os

import pytest

from queerlab import cli
from queerlab.cli import main


def test_pieri_small(tmp_path, capsys):
    out = tmp_path / "pieri.json"
    code = main(["pieri", "--bound", "3", "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] is True
    assert len(payload["cases"]) == 5  # strict partitions of size <= 3
    capsys.readouterr()


def test_pieri_csv(tmp_path, capsys):
    out = tmp_path / "pieri.csv"
    code = main(["pieri", "--bound", "2", "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,mu,coeff"
    rows = {tuple(l.split(",", 2)) for l in lines[1:]}
    assert ("", "1", "1") in rows
    capsys.readouterr()


def test_verify_cauchy_small(capsys):
    code = main(["verify", "cauchy", "--degree", "2", "--vars", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["status"] is True


def test_verify_phi_psi(capsys):
    code = main(["verify", "phi-psi", "--n", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["status"] is True
    assert payload["jet_order"] == 3


def test_verify_main_theorem_small_with_jobs(capsys):
    code = main(
        [
            "verify",
            "main-theorem",
            "--n",
            "2",
            "--m",
            "2",
            "--dmax",
            "2",
            "--jobs",
            "2",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["status"] is True


def test_dump_isotypic(capsys):
    code = main(["dump", "isotypic", "--n", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["blocks"] == [
        {"lambda": "2", "dim_J": 8, "dim_S": 4, "type": "Q"}
    ]


def test_dump_q_expansion(capsys):
    code = main(["dump", "q-expansion", "--lambda", "2,1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["pretty"] == "q2*q1 - 2*q3"


def test_dump_dims(capsys):
    code = main(["dump", "dims", "--lambda", "2", "--n", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["dim_T"] == 2


def test_safe_bounds_guard(capsys):
    code = main(["verify", "main-theorem", "--n", "5", "--m", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "safe" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "cauchy", "--degree", "-1", "--vars", "3"], "--degree"),
        (["verify", "cauchy", "--vars", "2", "--degree", "4"], "--vars"),
        (["pieri", "--bound", "-1"], "--bound"),
        (["dump", "q-expansion", "--lambda", "1,2"], "--lambda"),
    ],
)
def test_bad_input_exits_two_naming_the_flag(argv, flag, capsys):
    # an input error is neither a theorem failure (1) nor a vacuous pass (0)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err


def test_exit_code_one_on_mismatch(monkeypatch, capsys):
    # force a theorem-mismatch path without corrupting real math
    from queerlab import symfunc

    class FakeReport:
        ok = False
        first_failure = (1, 1)

    monkeypatch.setattr(symfunc, "cauchy_check", lambda d, N: FakeReport())
    code = main(["verify", "cauchy", "--degree", "1", "--vars", "1"])
    assert code == 1
    capsys.readouterr()


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache"
    code = main(
        ["pieri", "--bound", "2", "--cache-dir", str(cache), "--format", "json"]
    )
    assert code == 0
    capsys.readouterr()
    path = cache / "qpoly.cache"
    text = path.read_text().splitlines()
    assert text[0] == cli.CACHE_HEADER
    assert any(line.startswith("Q ") for line in text[1:])
    loaded = cli.load_qpoly_cache(str(cache))
    assert loaded > 0


def test_interrupted_cache_write_keeps_old_file(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    assert main(["pieri", "--bound", "2", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    path = cache / "qpoly.cache"
    before = path.read_text()
    real = cli.symfunc.qpoly_cache_line
    calls = []

    def failing_line(lam, N):
        calls.append(lam)
        if len(calls) > 2:
            raise OSError("disk full")
        return real(lam, N)

    monkeypatch.setattr(cli.symfunc, "qpoly_cache_line", failing_line)
    with pytest.raises(OSError):
        cli.write_qpoly_cache(str(cache))
    assert path.read_text() == before
    assert os.listdir(cache) == ["qpoly.cache"]


def test_stale_cache_ignored(tmp_path):
    cache = tmp_path / "cache"
    os.makedirs(cache)
    (cache / "qpoly.cache").write_text("queerlab-cache v0\nQ 1 2 : 1,0=2/1 0,1=2/1\n")
    assert cli.load_qpoly_cache(str(cache)) == 0


def test_determinism_same_seed(tmp_path, capsys):
    outs = []
    for _ in range(2):
        code = main(
            ["verify", "prop-dim", "--n", "2", "--m", "2", "--seed", "7", "--format", "json"]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
