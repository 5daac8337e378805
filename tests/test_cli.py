import ast
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import build_parser
from queerlab import cli
from queerlab.cli import main
from queerlab.partitions import StrictPartition, enumerate_strict


def test_pieri_small(tmp_path, capsys):
    out = tmp_path / "pieri.json"
    code = main(["pieri", "--bound", "3", "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] is True
    assert len(payload["cases"]) == 5  # strict partitions of size <= 3
    assert capsys.readouterr().out == out.read_text()


def test_pieri_csv(tmp_path, capsys):
    out = tmp_path / "pieri.csv"
    code = main(["pieri", "--bound", "2", "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,mu,coeff"
    rows = {tuple(l.split(",", 2)) for l in lines[1:]}
    assert ("", "1", "1") in rows
    # bytes: the CSV rows end in \r\n, which read_text would translate
    assert capsys.readouterr().out.encode() == out.read_bytes()


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
    # --jobs is accepted and sets nothing: the cases are the same at every value
    payloads = []
    for jobs in ("2", "1"):
        argv = ["verify", "main-theorem", "--n", "3", "--m", "3", "--dmax", "3"]
        code = main(argv + ["--jobs", jobs, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["status"] is True
        payloads.append(payload)
    assert payloads[0]["cases"] == payloads[1]["cases"]
    assert len(payloads[0]["cases"]) == 25
    assert payloads[0]["one_box_pairs"] == payloads[1]["one_box_pairs"] == 4
    # () -> (1) -> (2) -> (3), (2,1): every kappa is nu plus one box
    assert payloads[0]["one_box_decided"] == payloads[1]["one_box_decided"] == {"weight": 0, "pairing": 4}
    # 36 basis operators, each compared on the 18^2 entries of A_1
    assert payloads[0]["contravariance_checks"] == 36 * 18**2
    assert "multiplicity-free" in payloads[0]["assumes"][0]


def test_main_theorem_solves_only_the_gap_one_slices(monkeypatch, capsys):
    # every other space of the walk is x_11 times the space one box smaller
    from queerlab import amodule

    real = amodule._sing_system
    solved = []

    def counted(n, m, a, b, r, wrow, wcol):
        if a == b == 0:
            solved.append(tuple(x for x in wrow if x))
        return real(n, m, a, b, r, wrow, wcol)

    monkeypatch.setattr(amodule, "_sing_system", counted)
    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    assert main(["verify", "main-theorem", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cases"]) == 100
    assert sorted(solved) == [(), (1,), (2, 1), (3, 2)]
    assert "l(kappa) alone" in payload["assumes"][1]


def test_verify_determinantal_walks_from_the_staircase(capsys):
    code = main(["verify", "determinantal", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["status"] is True
    assert payload["quotient_lengths_outside"] == [0, 1]
    # the rows of (2,1) and (3,1): 2 + 3 pairs, of which (2,1) -> (4) and
    # (3,1) -> (5) are decided by weight alone
    assert payload["one_box_pairs"] == 5
    assert payload["one_box_decided"] == {"weight": 2, "pairing": 3}
    assert payload["contravariance_checks"] == 36 * 18**2
    assert "multiplicity-free" in payload["assumes"][0]


def _corrupt_step(monkeypatch, kappa, inside):
    """Make the one-box row of (2,1) drop kappa (inside None) or set it."""
    from queerlab import amodule
    from queerlab.partitions import StrictPartition

    true_steps = amodule.one_box_steps

    def steps(n, m, nu):
        row = true_steps(n, m, nu)
        if nu == StrictPartition((2, 1)):
            if inside is None:
                del row[StrictPartition(kappa)]
            else:
                row[StrictPartition(kappa)] = inside
        return row

    monkeypatch.setattr(amodule, "one_box_steps", steps)


def _failed_pairs(argv, capsys):
    code = main(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["status"] is False
    return [(c["lambda"], c["mu"]) for c in payload["cases"] if not c["pass"]]


@pytest.mark.parametrize("target", ["main-theorem", "determinantal"])
def test_a_dropped_one_box_step_fails_the_verdict(target, monkeypatch, capsys):
    # from (2,1), every mu of size 4 or 5 is reached through (3,1) only
    _corrupt_step(monkeypatch, (3, 1), None)
    assert _failed_pairs(["verify", target], capsys) == [("2,1", "3,1"), ("2,1", "4,1"), ("2,1", "3,2")]


@pytest.mark.parametrize("target", ["main-theorem", "determinantal"])
def test_a_false_one_box_step_fails_the_verdict(target, monkeypatch, capsys):
    # (2,1) is inside neither (4) nor (5), which the walk then reaches
    _corrupt_step(monkeypatch, (4,), True)
    assert _failed_pairs(["verify", target], capsys) == [("2,1", "4"), ("2,1", "5")]


@pytest.mark.parametrize("target", ["main-theorem", "determinantal"])
def test_a_flipped_operator_image_fails_the_contravariance_check(target, monkeypatch, capsys):
    # right Y_21 sends x_11 to -y_12 and right Y_12 sends y_12 to x_11, so
    # with the first sign flipped Y_12 is no longer the adjoint of -Y_21
    from queerlab import amodule

    real = amodule._monomial_image
    x11 = ((1,) + (0,) * 8, ())

    def flipped(side, kind, a, b, mono, n, m):
        img = real(side, kind, a, b, mono, n, m)
        if (side, kind, a, b, mono) == ("right", "Y", 2, 1, x11):
            img = tuple((k, (-re, -im)) for k, (re, im) in img)
        return img

    monkeypatch.setattr(amodule, "_monomial_image", flipped)
    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    assert main(["verify", target]) == 1
    err = capsys.readouterr().err
    assert "check failed in verify %s: ContravarianceError" % target in err
    assert "right Y_12 is not the adjoint of -Y_21" in err


@pytest.mark.parametrize("target", ["main-theorem", "determinantal"])
def test_a_cartan_image_without_its_odd_factor_fails_the_check(target, monkeypatch, capsys):
    # left X_11 with y_11 left out is still self-adjoint on A_1, but then
    # left Y_11^2, which sends y_11 to -y_11, is no longer -X_11
    from queerlab import amodule

    real = amodule._monomial_image
    y11 = ((0,) * 9, (0,))

    def dropped(side, kind, a, b, mono, n, m):
        if (side, kind, a, b, mono) == ("left", "X", 1, 1, y11):
            return ()
        return real(side, kind, a, b, mono, n, m)

    monkeypatch.setattr(amodule, "_monomial_image", dropped)
    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    assert main(["verify", target]) == 1
    err = capsys.readouterr().err
    assert "check failed in verify %s: ContravarianceError" % target in err
    assert "left Y_11^2 is not -X_11" in err


def test_verify_hecke_ideals_nmax5(capsys):
    code = main(["verify", "hecke-ideals", "--nmax", "5", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["status"] is True
    assert len(payload["cases"]) == 28
    # the classes are the strict partitions of n; the support is their words
    assert payload["center"] == {
        str(n): {"classes": k, "support": w}
        for n, (k, w) in enumerate([(1, 1), (1, 1), (1, 1), (2, 9), (2, 33), (3, 465)])
    }


def test_a_flipped_class_sign_fails_the_run(monkeypatch, capsys):
    # flip the sign of one word alpha^mask p of the class of the 3-cycles of
    # H_4, the first whose flip changes the matrix of the Casimir
    from queerlab import heckeclifford

    real = heckeclifford._class_word
    rows = heckeclifford.casimir_rows(4)

    def flipping(word):
        def flipped(mask, p):
            hit = real(mask, p)
            return (hit[0], -hit[1]) if (mask, tuple(p)) == word else hit

        return flipped

    words = [(mask, p) for mask, p in heckeclifford.all_words(4) if real(mask, p) and real(mask, p)[0] == (3, 1)]
    assert len(words) == 32
    for mask, p in words:
        monkeypatch.setattr(heckeclifford, "_class_word", flipping((mask, p)))
        if heckeclifford.casimir_rows(4) != rows:
            break
    else:
        raise AssertionError("no flip changes the matrix")
    monkeypatch.setattr(heckeclifford, "_TABLE_CACHE", {})
    assert main(["verify", "hecke-ideals", "--nmax", "4"]) == 1
    assert "check failed in verify hecke-ideals: DecompositionError" in capsys.readouterr().err


def test_a_flipped_character_sign_fails_the_run(monkeypatch, capsys):
    # flip the sign of c_(3,1)(t) at the 3-cycles t of H_4: the Casimir no
    # longer acts on e_(3,1) by a scalar
    from queerlab import heckeclifford

    real = heckeclifford._spin_characters

    def flipped(n, types):
        table = real(n, types)
        if n == 4:
            row = table[StrictPartition((3, 1))]
            row[types.index((3, 1))] *= -1
        return table

    monkeypatch.setattr(heckeclifford, "_spin_characters", flipped)
    monkeypatch.setattr(heckeclifford, "_TABLE_CACHE", {})
    assert main(["verify", "hecke-ideals", "--nmax", "4"]) == 1
    assert "check failed in verify hecke-ideals: DecompositionError" in capsys.readouterr().err


def test_h_n_verdicts_never_list_all_words(monkeypatch, capsys):
    # the center is built from its signed classes, one word at a time, not
    # from all 2^n n! words nor all n! permutations; only the braid cases, at
    # n <= 2, list every word
    from queerlab import heckeclifford

    real_words, real_perms = heckeclifford.all_words, heckeclifford.permutations

    def small_words(n):
        assert n < 3, "all_words(%d) on the verdict path" % n
        return real_words(n)

    def small_perms(letters, *r):
        assert len(letters) < 3, "permutations of %d letters on the verdict path" % len(letters)
        return real_perms(letters, *r)

    monkeypatch.setattr(heckeclifford, "all_words", small_words)
    monkeypatch.setattr(heckeclifford, "permutations", small_perms)
    monkeypatch.setattr(heckeclifford, "_TABLE_CACHE", {})
    assert main(["verify", "hecke-ideals", "--nmax", "5"]) == 0
    assert main(["dump", "isotypic", "--n", "5"]) == 0
    capsys.readouterr()
    assert main(["verify", "hecke-ideals", "--nmax", "9", "--unsafe", "--format", "json"]) == 0
    center = json.loads(capsys.readouterr().out)["center"]
    # |C_t| = n!/z_t 2^(n - l(t)) summed over the odd cycle types t
    supports = [1, 1, 1, 9, 33, 465, 3105, 58905, 580545, 13775265]
    assert center == {str(n): {"classes": len(enumerate_strict(n)), "support": w} for n, w in enumerate(supports)}


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
    "argv",
    [["verify", "hecke-ideals", "--nmax", "4"], ["dump", "isotypic", "--n", "4"], ["verify", "phi-psi"]],
)
def test_output_does_not_depend_on_the_seed(argv, capsys):
    outs = []
    for seed in ("0", "5"):
        assert main(argv + ["--seed", seed, "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # the H_n reports list their supports in enumerate_strict order
    for case in json.loads(outs[0]).get("cases", []) if argv[1] != "phi-psi" else []:
        size = sum(int(p) for p in case["lambda"].split(",") if p) + case["m"]
        order = [mu.serialize() for mu in enumerate_strict(size)]
        for key in ("predicted_support", "observed_support"):
            assert case[key] == [mu for mu in order if mu in case[key]]


def test_dump_isotypic_reads_n_as_the_h_rank(capsys):
    # H_4 is inside the safe H-rank, though 4 is past the safe A-rank
    code = main(["dump", "isotypic", "--n", "4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [b["lambda"] for b in payload["blocks"]] == ["3,1", "4"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dump", "isotypic", "--n", "14"], "--n"),
        # |lambda| is the rank of the H_n whose center dim_T reads
        (["dump", "dims", "--lambda", "8,6", "--n", "1"], "--lambda"),
        (["dump", "dims", "--lambda", "6,5,3", "--n", "3"], "--lambda"),
    ],
)
def test_h_rank_bound_names_the_flag(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "safe" in err


def test_h_rank_bound_runs(capsys):
    # the safe H-rank finishes and passes without --unsafe
    assert cli.SAFE_H_RANK == 13
    assert main(["verify", "hecke-ideals", "--nmax", "13"]) == 0
    assert "status: True" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "hecke-ideals", "--nmax", "15"], "--nmax"),
        (["dump", "isotypic", "--n", "15"], "--n"),
        (["dump", "dims", "--lambda", "8,7", "--n", "2"], "--lambda"),
    ],
)
def test_a_casimir_clash_is_bad_input(argv, flag, tmp_path, capsys):
    # the H-ranks where two blocks share a value of the Casimir are bad input
    # only as ranks past the safe bound: the refusal names the flag, not the
    # clash, and --unsafe runs them to a report
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "safe" in err and "280" not in err
    assert not out.exists()
    assert main(argv + ["--unsafe", "--out", str(out)]) == 0
    assert out.exists()


def test_h_15_splits_past_the_casimir_clash(capsys):
    # from H_15 on two blocks share a value of the Casimir, (9,5,1) and (8,7)
    # at 280; the blocks are read off the character table, which the
    # Casimir only checks
    assert main(["dump", "isotypic", "--n", "15", "--unsafe", "--format", "json"]) == 0
    blocks = {b["lambda"]: b["type"] for b in json.loads(capsys.readouterr().out)["blocks"]}
    assert len(blocks) == 27 and blocks["9,5,1"] == "Q" and blocks["8,7"] == "M"
    assert main(["verify", "hecke-ideals", "--nmax", "15", "--unsafe", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] is True
    # Q_(8,7)(1, 1) = 8, over 2^((l - delta)/2) = 2
    assert main(["dump", "dims", "--lambda", "8,7", "--n", "2", "--unsafe", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim_T"] == 4


@pytest.mark.parametrize(
    "argv, dim",
    [
        (["dump", "dims", "--lambda", "4,3", "--n", "3"], 96),
        # --n is not bounded: the cost of dim_T does not depend on it
        (["dump", "dims", "--lambda", "2", "--n", "9"], 162),
    ],
)
def test_dump_dims_inside_the_h_rank_bound(argv, dim, capsys):
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim_T"] == dim


def test_dump_dims_lists_no_tensor_basis(monkeypatch, capsys):
    # dim_T is a trace over the center of H_|lambda|, not a rank over the
    # (2n)^|lambda| tensor labels
    from queerlab import queer

    def refuse(n, d):
        raise AssertionError("tensor_basis(%d, %d) on the dump dims path" % (n, d))

    monkeypatch.setattr(queer, "tensor_basis", refuse)
    assert main(["dump", "dims", "--lambda", "4,3", "--n", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim_T"] == 96


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
        (["verify", "cauchy", "--degree", "10", "--vars", "11"], "--vars"),
        (["verify", "cauchy", "--degree", "6", "--vars", "5", "--unsafe"], "--vars"),
        # a target without a table has no CSV form
        (["verify", "cauchy", "--format", "csv"], "--format"),
        (["verify", "determinantal", "--format", "csv"], "--format"),
        (["verify", "phi-psi", "--format", "csv"], "--format"),
        (["verify", "prop-dim", "--format", "csv"], "--format"),
        (["dump", "q-expansion", "--lambda", "2,1", "--format", "csv"], "--format"),
        (["dump", "dims", "--lambda", "2", "--n", "1", "--format", "csv"], "--format"),
        # one step past the safe truncation degree of A(n,m)
        (["verify", "main-theorem", "--dmax", "9"], "--dmax"),
        # parse errors leave by the same path
        (["verify", "main-theorem", "--bogus", "1"], "--bogus"),
        (["verify", "main-theorem", "--n"], "--n"),
        (["verify", "main-theorem", "--n", "x"], "--n"),
        (["verify", "main-theorem", "--format", "xml"], "--format"),
        (["verity", "main-theorem"], "verity"),
        (["verify"], "verify"),
        (["verify", "main-theorem-2"], "main-theorem-2"),
        (["verify", "main-theorem", "--lambda", "2,1"], "--lambda"),
        (["verify", "main-theorem", "--d", "4"], "--d"),
        (["pieri", "main-theorem"], "main-theorem"),
    ],
)
def test_bad_input_exits_two_naming_the_flag(argv, flag, tmp_path, capsys):
    # an input error is neither a theorem failure (1) nor a vacuous pass (0),
    # and writes no report
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, path",
    [
        ("--out", "file/report.json"),
        ("--out", "dir"),
        ("--cache-dir", "file"),
        ("--cache-dir", "file/cache"),
        ("--cache-dir", "dir"),
    ],
)
def test_unusable_path_exits_two_naming_the_flag(flag, path, tmp_path, capsys):
    # a regular file where a directory must go, or a directory where the
    # report or the cache file must go, is bad input, not an internal error
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "qpoly.cache").mkdir(parents=True)
    assert main(["pieri", "--bound", "2", flag, str(tmp_path / path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: %s" % flag)
    assert (tmp_path / "file").read_text() == ""


def test_zero_cases_is_not_a_pass(monkeypatch, capsys):
    # a run that checks nothing must not report success
    from queerlab import heckeclifford

    monkeypatch.setattr(heckeclifford, "verify_tensor_ideal_theorem", lambda n: [])
    code = main(["verify", "hecke-ideals", "--nmax", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["cases"] == [] and payload["status"] is False
    assert code == 1


def test_braid_parity_law_break_fails_the_run(monkeypatch, capsys):
    # the report states sign = (-1)^{|x||y|} and counts the cases that break
    # it; one such case is a theorem failure
    from queerlab import heckeclifford

    argv = ["verify", "hecke-ideals", "--nmax", "1", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["braid_sign_note"]["parity_law_mismatches"] == 0
    real = heckeclifford.braid_conjugation_cases

    def one_broken(m, n):
        cases = real(m, n)
        if (m, n) == (1, 1):
            c = cases[0]
            cases[0] = heckeclifford.BraidSignCase(
                c.m, c.n, c.x_parity, c.y_parity, -c.empirical_sign, c.paper_mn_sign
            )
        return cases

    monkeypatch.setattr(heckeclifford, "braid_conjugation_cases", one_broken)
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["braid_sign_note"]["parity_law_mismatches"] == 1
    assert payload["status"] is False
    assert all(c["pass"] for c in payload["cases"])


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
    assert main(["verify", "cauchy", "--degree", "10", "--vars", "11", "--unsafe"]) == 0
    assert seen == [(10, 11)]
    capsys.readouterr()


@pytest.mark.parametrize(
    "module, name, exc_name, argv",
    [
        ("symfunc", "cauchy_check", "InconsistentMultiplicity", ["verify", "cauchy", "--degree", "1", "--vars", "1"]),
        ("heckeclifford", "verify_tensor_ideal_theorem", "DecompositionError", ["verify", "hecke-ideals", "--nmax", "1"]),
        ("dimcheck", "hom_dim_sweep", "HomDimError", ["verify", "prop-dim", "--n", "2", "--m", "2"]),
        ("queer", "dim_T", "ActionError", ["dump", "dims", "--lambda", "2", "--n", "1"]),
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


def test_a_non_square_sigma_fails_prop_dim(monkeypatch, capsys):
    # with the singular count capped at 1, sigma((1)) = 1 and sigma 2^delta
    # = 2 is no square: a failed identity, exit 1
    from queerlab import dimcheck

    real = dimcheck.singular_dim
    monkeypatch.setattr(dimcheck, "singular_dim", lambda n, m, nu: min(real(n, m, nu), 1))
    assert main(["verify", "prop-dim", "--n", "2", "--m", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed in verify prop-dim: HomDimError: sigma((1)) = 1 ")


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


def _corrupt_flip(data):
    # one coefficient of the Q_{(2,1)} line in 3 variables, 4 -> 5
    return _edit_q21_line(data, b"2,1=4", b"2,1=5")


def _edit_q21_line(data, old, new):
    lines = data.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(b"Q 2,1 3 :"))
    assert old in lines[i]
    lines[i] = lines[i].replace(old, new, 1)
    return b"".join(lines)


def _corrupt_truncate(data):
    return data[: len(data) * 2 // 3]


def _corrupt_bytes(data):
    # two bytes that are not UTF-8, in the body
    i = data.index(b"\n") + 10
    return data[:i] + b"\xff\xfe" + data[i + 2 :]


@pytest.mark.parametrize("corrupt", [_corrupt_flip, _corrupt_truncate, _corrupt_bytes])
def test_corrupt_cache_is_recomputed(corrupt, tmp_path, monkeypatch, capsys):
    argv = ["verify", "cauchy", "--degree", "3", "--vars", "3", "--format", "json"]
    cache = tmp_path / "cache"
    # each run starts as a fresh process would, with nothing memoized
    monkeypatch.setattr(cli.symfunc, "_QPOLY_CACHE", {})
    assert main(argv + ["--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    path = cache / "qpoly.cache"
    good = path.read_bytes()
    path.write_bytes(corrupt(good))
    monkeypatch.setattr(cli.symfunc, "_QPOLY_CACHE", {})
    code = main(argv + ["--cache-dir", str(cache)])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["status"] is True
    assert "warning: ignoring corrupt cache" in captured.err
    assert path.read_bytes() == good
    assert cli.load_qpoly_cache(str(cache)) > 0


def _rewrite_under_valid_digest(path, edit):
    body = path.read_text().split("\n", 1)[1]
    body = _edit_q21_line(body.encode(), *edit).decode()
    path.write_text("%s sha256=%s\n%s" % (cli.CACHE_HEADER, cli._digest(body), body))


def _recomputes_after(edit, tmp_path, monkeypatch, capsys):
    """Fill a cache, apply edit to its Q_(2,1) line under a digest that matches
    the edited body, and check that the next run warns, recomputes the same
    report and rewrites the good file."""
    argv = ["verify", "cauchy", "--degree", "3", "--vars", "3", "--format", "json"]
    cache = tmp_path / "cache"
    monkeypatch.setattr(cli.symfunc, "_QPOLY_CACHE", {})
    assert main(argv + ["--cache-dir", str(cache)]) == 0
    want = capsys.readouterr().out
    path = cache / "qpoly.cache"
    good = path.read_text()
    _rewrite_under_valid_digest(path, edit)
    monkeypatch.setattr(cli.symfunc, "_QPOLY_CACHE", {})
    code = main(argv + ["--cache-dir", str(cache)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == want
    assert "warning: ignoring corrupt cache" in captured.err
    assert path.read_text() == good


def test_cache_with_valid_digest_but_non_integral_coefficient_is_ignored(
    tmp_path, monkeypatch, capsys
):
    # one coefficient of Q_{(2,1)} in 3 variables, 4 -> 9/2
    _recomputes_after((b"2,1=4", b"2,1=9/2"), tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize(
    "edit",
    [
        (b"2,1=4", b"1,2=4"),  # not a partition
        (b"2,1=4", b"2,1,0=4"),  # a zero part
        (b"2,1=4", b"2,2=4"),  # a partition of 4, not of |lambda| = 3
        (b"Q 2,1 3 :", b"Q 2,1 2 :"),  # the key 1,1,1 has 3 parts in 2 variables
    ],
    ids=["not-a-partition", "zero-part", "wrong-size", "more-than-N-parts"],
)
def test_cache_with_valid_digest_but_a_bad_key_is_ignored(edit, tmp_path, monkeypatch, capsys):
    # a table cannot hold such a key, so it can only be a damaged file
    _recomputes_after(edit, tmp_path, monkeypatch, capsys)


def test_v2_cache_is_ignored_and_rewritten(tmp_path, capsys):
    # a v2 line holds the full polynomial, exponents with zeros, c/1
    cache = tmp_path / "cache"
    os.makedirs(cache)
    body = "Q 1 1 : 1=2/1\n"
    (cache / "qpoly.cache").write_text("queerlab-cache v2 sha256=%s\n%s" % (cli._digest(body), body))
    assert cli.load_qpoly_cache(str(cache)) == 0
    assert main(["pieri", "--bound", "2", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    header, body = (cache / "qpoly.cache").read_text().split("\n", 1)
    assert header == "queerlab-cache v3 sha256=%s" % cli._digest(body)
    assert "Q 1 1 : 1=2\n" in body


@pytest.mark.parametrize(
    "argv, flag, bound",
    [
        (["pieri", "--bound", "%d"], "--bound", cli.SAFE_BOUND),
        (["verify", "cauchy", "--degree", "%d", "--vars", "%d"], "--degree", cli.SAFE_DEGREE),
        # --degree is read by verify cauchy alone, so a --degree above the
        # default --vars does not stop pieri
        (["pieri", "--degree", "7", "--bound", "%d"], "--bound", cli.SAFE_BOUND),
    ],
)
def test_raised_gamma_bounds(argv, flag, bound, capsys):
    # each safe bound runs and passes without --unsafe, and one step past it
    # exits 2 naming the flag
    assert main([a % bound if "%" in a else a for a in argv]) == 0
    assert "status: True" in capsys.readouterr().out
    assert main([a % (bound + 1) if "%" in a else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "--unsafe" in err


def test_no_sympy_import():
    # the center splitting runs without sympy
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
    # every job pays for what `import queerlab.cli` loads: csv is imported
    # only under --format csv, and dataclasses (with inspect) not at all; no
    # job, `--jobs 2` included, loads a process pool. pytest itself imports
    # dataclasses, so the check runs in a fresh interpreter
    src = os.path.dirname(os.path.dirname(cli.__file__))
    unused = ("multiprocessing", "concurrent.futures", "dataclasses", "inspect", "csv", "argparse", "gettext", "locale")
    code = "import sys; import queerlab.cli; print(sorted(m for m in %r if m in sys.modules))" % (unused,)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[]"
    pool = ("multiprocessing", "concurrent.futures")
    argv = ["verify", "main-theorem", "--dmax", "4", "--jobs", "2", "--out", os.devnull]
    code = (
        "import sys; from queerlab.cli import main; assert main(%r) == 0; "
        "print(sorted(m for m in %r if m in sys.modules))" % (argv, pool)
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[]"


def test_cli_run_loads_no_argparse():
    # the command line is read off FLAGS, STR_FLAGS and TARGETS: no job of
    # any command loads argparse, nor gettext and locale, which argparse
    # loads for its messages; and no job draws a sample, so none loads random.
    # -S keeps out site-packages, whose .pth files may load random at start-up
    src = os.path.dirname(os.path.dirname(cli.__file__))
    jobs = [
        ["pieri", "--bound", "3"],
        ["verify", "hecke-ideals", "--nmax", "3"],
        ["verify", "main-theorem", "--dmax", "3"],
        ["dump", "dims", "--lambda", "2", "--n", "1"],
        ["verify", "phi-psi", "--seed", "3"],
    ]
    unused = ("argparse", "gettext", "locale", "random")
    code = (
        "import sys; from queerlab.cli import main; "
        "assert all(main(argv + ['--out', '/dev/null']) == 0 for argv in %r); "
        "print(sorted(m for m in %r if m in sys.modules))" % (jobs, unused)
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[]"


def _parsed(argv):
    """The attributes both parsers read off argv, or None from each that
    refuses it; the argparse oracle sets no target for pieri and no lam
    outside dump."""
    try:
        ours = vars(cli.parse_argv(list(argv)))
    except cli.ConfigError:
        ours = None
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            theirs = {"target": None, "lam": None, **vars(build_parser().parse_args(argv))}
    except SystemExit as exc:
        assert exc.code == 2
        theirs = None
    return ours, theirs


_VALUES = ["0", "3", "-1", "x", "", "-x", "json", "csv", "xml", "2,1", "-"]


@st.composite
def _argvs(draw):
    """A command, then in any order a target and flags: each spelled out or
    by a prefix, with its value apart, after '=' or missing, maybe repeated."""
    groups = []
    if draw(st.booleans()):
        groups.append([draw(st.sampled_from([t for _, t in cli.TARGETS if t] + ["bogus"]))])
    names = [*cli.FLAGS, *cli.STR_FLAGS, "--unsafe", "--bogus", "-x"]
    for flag in draw(st.lists(st.sampled_from(names), max_size=5)):
        if flag.startswith("--") and draw(st.booleans()):
            flag = flag[: draw(st.integers(3, len(flag)))]
        value = draw(st.sampled_from(_VALUES + [str(draw(st.integers(-2, 20)))]))
        form = draw(st.sampled_from(["apart", "=", "missing"] if flag[:3] != "--u" else ["missing", "="]))
        groups.append({"apart": [flag, value], "=": [flag + "=" + value], "missing": [flag]}[form])
    command = draw(st.sampled_from(["pieri", "verify", "dump", "bogus"]))
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(max_examples=300, deadline=None)
@given(_argvs())
# flags before the target, the = form, prefixes, repeats
@example(["verify", "--dmax", "4", "main-theorem"])
@example(["verify", "main-theorem", "--dmax=4", "--format=json"])
@example(["verify", "--dm", "4", "main-theorem", "--fo", "json", "--c", "cache"])
@example(["verify", "main-theorem", "--n", "2", "--n", "1", "--unsafe", "--unsafe"])
@example(["dump", "q-expansion", "--l=2,1", "--out", "-"])
@example(["verify", "cauchy", "--n", "-1", "--out", "-1"])
# a flag followed by a flag, or by nothing, has no value
@example(["verify", "main-theorem", "--out", "--n", "3"])
@example(["verify", "main-theorem", "--out"])
@example(["verify", "main-theorem", "--out", "-x"])
# an ambiguous prefix, an unknown flag, a value given to --unsafe, two targets
@example(["verify", "main-theorem", "--j", "2"])
@example(["pieri", "--lambda", "2"])
@example(["pieri", "--unsafe=1"])
@example(["verify", "main-theorem", "cauchy"])
@example([])
def test_parser_matches_argparse(argv):
    # both parsers give the same attributes, or both refuse
    ours, theirs = _parsed(argv)
    assert ours == theirs


def test_help_prints_every_target_and_flag(capsys):
    for argv in (["--help"], ["verify", "-h"], ["dump", "dims", "--he"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert all(t in out for _, t in cli.TARGETS if t)
        assert all(f in out for f in [*cli.FLAGS, *cli.STR_FLAGS, "--unsafe"])


def test_verify_prop_dim_reports_its_effective_rank(capsys):
    # n = m = 3 checks no partition longer than 2, so it repeats n = m = 2;
    # so do the safe bound of prop-dim, 12, without --unsafe, and a rank far
    # past it, where a walk over every cell would pass the recursion limit.
    # One step past the bound exits 2 naming the flag
    def run(rank, *flags):
        code = main(["verify", "prop-dim", "--n", str(rank), "--m", str(rank), "--format", "json", *flags])
        out = capsys.readouterr()
        return code, json.loads(out.out) if code == 0 else out.err

    payloads = []
    for rank, flags in ((2, ()), (3, ()), (12, ()), (30, ("--unsafe",))):
        code, payload = run(rank, *flags)
        assert code == 0 and payload["status"] is True
        assert payload["effective_rank"] == 2
        payloads.append(payload)
    assert all(p["cases"] == payloads[0]["cases"] for p in payloads)
    code, err = run(13)
    assert code == 2
    assert err.startswith("error: --n 13 above the safe bound 12") and "--unsafe" in err


@pytest.mark.parametrize("target", ["main-theorem", "determinantal"])
@pytest.mark.parametrize("flags", [(), ("--n", "4", "--m", "4", "--dmax", "5", "--unsafe")])
def test_ideal_targets_report_their_effective_rank(target, flags, capsys):
    # no strict partition of size <= 5 is longer than 2, so rank 4 repeats
    # the cases of rank 2; effective_rank is a report key, not a case field
    assert main(["verify", target, "--format", "json", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["effective_rank"] == 2
    assert all("effective_rank" not in c for c in payload["cases"])


def test_tracer_wraps_every_layer_after_cli_import():
    # bench/tracer.py wraps the layers it finds in sys.modules once
    # queerlab.cli is imported; a layer imported lazily would be missing
    src = os.path.dirname(os.path.dirname(cli.__file__))
    bench = os.path.join(os.path.dirname(src), "bench")
    code = (
        "import sys; import queerlab.cli as cli; import tracer; "
        "tracer.Tracer().install(); "
        "sys.exit(cli.main(['verify', 'hecke-ideals', '--nmax', '2']))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, bench]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    trees = {}
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        with open(os.path.join(pkg, name + ".py")) as fh:
            trees[name] = tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    todo.append(node.module.split(".")[0])
                else:
                    todo.extend(alias.name for alias in node.names)
    assert reached == modules

    # a top-level def or class is reached when a reached body names it, as a
    # bare name or an attribute; the module-level statements of every module
    # run on import, and an import alone reaches nothing. A reached class
    # runs its own body and its dunder methods; any other method or property
    # is reached when a reached body names it as an attribute
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defining = functions + (ast.ClassDef,)
    skipped = defining + (ast.Import, ast.ImportFrom)
    tops, methods = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defining):
                tops.setdefault(node.name, []).append((module, node))
    todo = [node for tree in trees.values() for node in tree.body if not isinstance(node, skipped)]
    reached, attrs = set(), set()

    def reach(key, node):
        if key in reached:
            return
        reached.add(key)
        if not isinstance(node, ast.ClassDef):
            todo.append(node)
            return
        todo.extend(node.decorator_list + node.bases + node.keywords)
        for item in node.body:
            if not isinstance(item, functions) or item.name.endswith("__"):
                todo.append(item)
            elif item.name in attrs:
                reach(key + (item.name,), item)
            else:
                methods.setdefault(item.name, []).append((key + (item.name,), item))

    while todo:
        for sub in ast.walk(todo.pop()):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
                attrs.add(name)
                for key, node in methods.pop(name, ()):
                    reach(key, node)
            else:
                continue
            for module, node in tops.get(name, ()):
                reach((module, name), node)
    defined = [(module, name) for name, places in tops.items() for module, _ in places]
    defined += [key for places in methods.values() for key, _ in places]
    assert sorted(".".join(key) for key in defined if key not in reached) == []
