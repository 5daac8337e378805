import ast
import json
import os
import subprocess
import sys

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
    # each pool worker builds its own memo tables; the cases must not depend
    # on how the rows are spread over processes
    payloads = []
    for jobs in ("2", "1"):
        argv = ["verify", "main-theorem", "--n", "3", "--m", "3", "--dmax", "3"]
        code = main(argv + ["--jobs", jobs, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["status"] is True
        payloads.append(payload)
    assert payloads[0]["cases"] == payloads[1]["cases"]
    assert len(payloads[0]["cases"]) == 25


def test_verify_hecke_ideals_nmax5(capsys):
    code = main(["verify", "hecke-ideals", "--nmax", "5", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["status"] is True
    assert len(payload["cases"]) == 28


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


def test_dump_isotypic_reads_n_as_the_h_rank(capsys):
    # H_4 is inside the safe H-rank, though 4 is past the safe A-rank
    code = main(["dump", "isotypic", "--n", "4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [b["lambda"] for b in payload["blocks"]] == ["3,1", "4"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dump", "isotypic", "--n", "6"], "--n"),
        # |lambda| is the rank of the H_n that dim_T decomposes
        (["dump", "dims", "--lambda", "4,2", "--n", "1"], "--lambda"),
    ],
)
def test_h_rank_bound_names_the_flag(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "safe" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "cauchy", "--degree", "-1", "--vars", "3"], "--degree"),
        (["verify", "cauchy", "--vars", "2", "--degree", "4"], "--vars"),
        (["pieri", "--bound", "-1"], "--bound"),
        (["dump", "q-expansion", "--lambda", "1,2"], "--lambda"),
        (["verify", "phi-psi", "--n", "0"], "--n"),
        (["verify", "main-theorem", "--n", "-1"], "--n"),
        (["verify", "main-theorem", "--m", "0"], "--m"),
        (["verify", "hecke-ideals", "--nmax", "-1"], "--nmax"),
        (["verify", "main-theorem", "--dmax", "-1"], "--dmax"),
        (["verify", "determinantal", "--dmax", "-1"], "--dmax"),
        (["verify", "determinantal", "--dmax", "0"], "--dmax"),
        (["verify", "phi-psi", "--n", "1", "--jet-order", "-1"], "--jet-order"),
        (["verify", "phi-psi", "--n", "1", "--jet-order", "0"], "--jet-order"),
        (["verify", "main-theorem", "--jobs", "0"], "--jobs"),
        (["verify", "main-theorem", "--jobs", "-3"], "--jobs"),
        # --vars past the safe bound; --vars below --degree is refused even
        # with --unsafe
        (["verify", "cauchy", "--degree", "6", "--vars", "7"], "--vars"),
        (["verify", "cauchy", "--degree", "6", "--vars", "5", "--unsafe"], "--vars"),
    ],
)
def test_bad_input_exits_two_naming_the_flag(argv, flag, capsys):
    # an input error is neither a theorem failure (1) nor a vacuous pass (0)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err


def test_zero_cases_is_not_a_pass(monkeypatch, capsys):
    # a run that checks nothing must not report success
    from queerlab import heckeclifford

    monkeypatch.setattr(heckeclifford, "verify_tensor_ideal_theorem", lambda n, seed: [])
    code = main(["verify", "hecke-ideals", "--nmax", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["cases"] == [] and payload["status"] is False
    assert code == 1


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


def test_unsafe_lifts_the_vars_bound(monkeypatch, capsys):
    from queerlab import symfunc

    class Passed:
        ok = True
        first_failure = None

    seen = []
    monkeypatch.setattr(symfunc, "cauchy_check", lambda d, N: seen.append((d, N)) or Passed())
    assert main(["verify", "cauchy", "--degree", "6", "--vars", "7", "--unsafe"]) == 0
    assert seen == [(6, 7)]
    capsys.readouterr()


@pytest.mark.parametrize(
    "module, name, exc_name, argv",
    [
        ("symfunc", "cauchy_check", "InconsistentMultiplicity", ["verify", "cauchy", "--degree", "1", "--vars", "1"]),
        ("heckeclifford", "verify_tensor_ideal_theorem", "DecompositionError", ["verify", "hecke-ideals", "--nmax", "1"]),
    ],
)
def test_failed_exact_identity_exits_one(module, name, exc_name, argv, monkeypatch, capsys):
    # a failed exact identity is a theorem failure (1), not an internal error (2)
    import importlib

    mod = importlib.import_module("queerlab." + module)
    exc = getattr(mod, exc_name)

    def fail(*args, **kwargs):
        raise exc("forced failure")

    monkeypatch.setattr(mod, name, fail)
    assert main(argv) == 1
    err = capsys.readouterr().err
    case = " ".join(argv[:2])
    assert err == "check failed in %s: %s: forced failure\n" % (case, exc_name)


def test_other_exceptions_stay_internal_errors(monkeypatch, capsys):
    from queerlab import symfunc

    def fail(d, N):
        raise KeyError("boom")

    monkeypatch.setattr(symfunc, "cauchy_check", fail)
    assert main(["verify", "cauchy", "--degree", "1", "--vars", "1"]) == 2
    assert capsys.readouterr().err.startswith("internal error: KeyError")


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache"
    code = main(
        ["pieri", "--bound", "2", "--cache-dir", str(cache), "--format", "json"]
    )
    assert code == 0
    capsys.readouterr()
    path = cache / "qpoly.cache"
    header, body = path.read_text().split("\n", 1)
    assert header == "%s sha256=%s" % (cli.CACHE_HEADER, cli._digest(body))
    assert any(line.startswith("Q ") for line in body.splitlines())
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


def test_unchanged_cache_is_not_rewritten(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    argv = ["pieri", "--bound", "2", "--cache-dir", str(cache)]
    monkeypatch.setattr(cli.symfunc, "_QPOLY_CACHE", {})
    assert main(argv) == 0
    # a second run, as a fresh process, finds every entry it needs on disk
    monkeypatch.setattr(cli.symfunc, "_QPOLY_CACHE", {})

    def no_write(cache_dir):
        raise AssertionError("cache rewritten with nothing new")

    monkeypatch.setattr(cli, "write_qpoly_cache", no_write)
    assert main(argv) == 0
    capsys.readouterr()


def _corrupt_flip(text):
    # one coefficient of the Q_{(2,1)} line in 3 variables, 4 -> 5
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("Q 2,1 3 :"))
    assert "=4/1" in lines[i]
    lines[i] = lines[i].replace("=4/1", "=5/1", 1)
    return "".join(lines)


def _corrupt_truncate(text):
    return text[:300]


@pytest.mark.parametrize("corrupt", [_corrupt_flip, _corrupt_truncate])
def test_corrupt_cache_is_recomputed(corrupt, tmp_path, monkeypatch, capsys):
    argv = ["verify", "cauchy", "--degree", "3", "--vars", "3", "--format", "json"]
    cache = tmp_path / "cache"
    # each run starts as a fresh process would, with nothing memoized
    monkeypatch.setattr(cli.symfunc, "_QPOLY_CACHE", {})
    assert main(argv + ["--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    path = cache / "qpoly.cache"
    good = path.read_text()
    path.write_text(corrupt(good))
    monkeypatch.setattr(cli.symfunc, "_QPOLY_CACHE", {})
    code = main(argv + ["--cache-dir", str(cache)])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["status"] is True
    assert "warning: ignoring corrupt cache" in captured.err
    assert path.read_text() == good
    assert cli.load_qpoly_cache(str(cache)) > 0


def test_no_sympy_import():
    # the center splitting finds its roots without sympy
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys; from queerlab.cli import main; "
        "assert main(['verify', 'hecke-ideals', '--nmax', '3']) == 0; "
        "print('sympy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "False"


def test_cli_import_leaves_out_the_process_pool():
    # ProcessPoolExecutor is imported only under --jobs > 1
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys; import queerlab.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[]"


def test_determinism_same_seed(tmp_path, capsys):
    outs = []
    for _ in range(2):
        code = main(
            ["verify", "prop-dim", "--n", "2", "--m", "2", "--seed", "7", "--format", "json"]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_every_module_is_reached_from_the_cli():
    # a module that no relative import reachable from cli.py names runs on
    # no production path; __init__.py is left out, since it imports all
    pkg = os.path.dirname(cli.__file__)
    modules = {f[:-3] for f in os.listdir(pkg) if f.endswith(".py")} - {"__init__"}
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        with open(os.path.join(pkg, name + ".py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    todo.append(node.module.split(".")[0])
                else:
                    todo.extend(alias.name for alias in node.names)
    assert reached == modules
