"""Command-line front end: orchestrates verifications, emits reports,
and manages the on-disk cache of expensive tables.

Exit codes: 0 all checks passed, 1 a theorem check failed (a case reported
false, or an exact identity the check relies on failed: InconsistentMultiplicity,
DecompositionError), 2 bad input or an internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields

from .partitions import StrictPartition, all_strict_upto, staircase
from . import symfunc

CACHE_HEADER = "queerlab-cache v2"

# The safe bounds, lifted by --unsafe: past them the exact arithmetic costs
# grow factorially. Each target names the flags it reads against them.
SAFE_H_RANK = 5  # rank of H_n
SAFE_A_RANK = 3  # n and m of A(n,m) and q_n
SAFE_DEGREE = 6  # Cauchy truncation degree and number of variables
SAFE_SIZE = 8  # largest partition size of a Pieri or ideal check


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    n: int = 3
    m: int = 3
    nmax: int = 4
    dmax: int = 5
    degree: int = 6
    vars: int = 6
    jet_order: int = 3
    bound: int = 8
    seed: int = 0
    jobs: int = 1
    out: str | None = None
    fmt: str = "text"
    cache_dir: str | None = None
    unsafe: bool = False

    def check(self, safe, lam: StrictPartition):
        """Refuse bad input; without --unsafe, also refuse each (flag, bound)
        row of `safe` whose value is past its bound. The row "|--lambda|"
        reads the size of `lam`, every other row the flag's own value."""
        # input errors, refused with or without --unsafe
        for flag, value, low in (
            ("--degree", self.degree, 0),
            ("--bound", self.bound, 0),
            ("--n", self.n, 1),
            ("--m", self.m, 1),
            ("--nmax", self.nmax, 0),
            ("--dmax", self.dmax, 0),
            # order 0 truncates away the degree-1 generators
            ("--jet-order", self.jet_order, 1),
            ("--jobs", self.jobs, 1),
        ):
            if value < low:
                raise ConfigError("%s %d is below %d" % (flag, value, low))
        if self.vars < self.degree:
            raise ConfigError(
                "--vars %d below --degree %d: the Cauchy truncation needs "
                "--vars >= --degree" % (self.vars, self.degree)
            )
        if self.unsafe:
            return
        for flag, bound in safe:
            value = lam.size if flag == "|--lambda|" else getattr(self, flag[2:])
            if value > bound:
                raise ConfigError(
                    "%s %d above the safe bound %d (use --unsafe)" % (flag, value, bound)
                )


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _digest(body: str) -> str:
    """SHA-256 of the cache body, in hex.

    The interpreter's own SHA-256 module is preferred over `hashlib`, whose
    import loads OpenSSL and adds about 3.6 MiB to the peak RSS of a run.
    """
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(body.encode()).hexdigest()


def load_qpoly_cache(cache_dir: str) -> int:
    """Warm the Q-polynomial memo table from the versioned cache file.

    The header line is `CACHE_HEADER sha256=<hex digest of the body>`. A file
    of another version is ignored; a file whose body does not match its
    digest or does not parse is ignored with a warning, so its entries are
    recomputed and the file is rewritten at the end of the run.
    """
    path = os.path.join(cache_dir, "qpoly.cache")
    if not os.path.exists(path):
        return 0
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    version, _, digest = header.partition(" sha256=")
    if version != CACHE_HEADER:
        return 0  # stale or foreign cache: ignore, recompute
    try:
        if digest != _digest(body):
            raise ValueError("checksum mismatch")
        entries = [
            symfunc.parse_qpoly_cache_line(line)
            for line in body.splitlines()
            if line.strip()
        ]
    except (ValueError, ZeroDivisionError) as exc:
        print("warning: ignoring corrupt cache %s: %s" % (path, exc), file=sys.stderr)
        return 0
    for lam, N, poly in entries:
        symfunc._QPOLY_CACHE[(lam, N)] = poly
    return len(entries)


def write_qpoly_cache(cache_dir: str):
    """Persist every memoized Q-polynomial under a header with the body's digest.

    The file is written under a temporary name in the cache directory and
    renamed over `qpoly.cache`, so an interrupted run leaves either the old
    file or the new one, never a truncated one.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, "qpoly.cache")
    keys = sorted(symfunc._QPOLY_CACHE, key=lambda k: (k[0].size, k[0].parts, k[1]))
    body = "".join(symfunc.qpoly_cache_line(lam, N) + "\n" for lam, N in keys)
    tmp = "%s.%d.tmp" % (path, os.getpid())  # one writer per process
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write("%s sha256=%s\n%s" % (CACHE_HEADER, _digest(body), body))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def emit(cfg: RunConfig, payload: dict, rows=None, csv_header=None):
    text = json.dumps(payload, indent=2)
    if cfg.out:
        os.makedirs(os.path.dirname(cfg.out) or ".", exist_ok=True)
        if cfg.fmt == "csv" and rows is not None:
            with open(cfg.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(csv_header)
                writer.writerows(rows)
        else:
            with open(cfg.out, "w") as fh:
                fh.write(text + "\n")
    if cfg.fmt == "json":
        print(text)
    elif cfg.fmt == "csv" and rows is not None:
        writer = csv.writer(sys.stdout)
        writer.writerow(csv_header)
        writer.writerows(rows)
    else:
        _print_text(payload)


def _print_text(payload: dict):
    status = payload.get("status")
    print("target: %s" % payload.get("target"))
    for k, v in payload.items():
        if k in ("target", "status", "cases") or isinstance(v, (list, dict)):
            continue
        print("  %s: %s" % (k, v))
    for case in payload.get("cases", []):
        line = "  " + " ".join("%s=%s" % (k, v) for k, v in case.items())
        print(line)
    if status is not None:
        print("status: %s" % status)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _pieri(cfg: RunConfig, lam: StrictPartition) -> int:
    from .symfunc import GammaElement, gamma_product, pieri

    one_box = StrictPartition((1,))
    cases = []
    rows = []
    ok = True
    for nu in all_strict_upto(cfg.bound):
        want = pieri(nu)
        got = gamma_product(
            GammaElement.basis(one_box), GammaElement.basis(nu)
        ).terms
        got = {mu: int(c) for mu, c in got.items()}
        match = got == {mu: c for mu, c in want.items()}
        ok = ok and match
        cases.append({"lambda": nu.serialize(), "pass": match})
        for mu, c in sorted(want.items(), key=lambda t: t[0].parts):
            rows.append([nu.serialize(), mu.serialize(), c])
    payload = {"target": "pieri", "bound": cfg.bound, "cases": cases, "status": ok}
    emit(cfg, payload, rows, ["lambda", "mu", "coeff"])
    return 0 if ok else 1


def _mt_row(args):
    n, m, lam_txt, dmax = args
    from .amodule import membership_cases_for

    lam = StrictPartition.parse(lam_txt)
    return [c.to_dict() for c in membership_cases_for(n, m, lam, dmax)]


def _all_passed(passes) -> bool:
    """True when at least one case was checked and every case passed."""
    passes = list(passes)
    return bool(passes) and all(passes)


def _verify_cauchy(cfg: RunConfig, lam: StrictPartition) -> int:
    rep = symfunc.cauchy_check(cfg.degree, cfg.vars)
    payload = {
        "target": "cauchy",
        "degree": cfg.degree,
        "variables": cfg.vars,
        "cases": [
            {
                "identity": "prod (1+x_i y_j)/(1-x_i y_j) = sum Q_lambda(x) P_lambda(y)",
                "pass": rep.ok,
                "first_failure": rep.first_failure,
            }
        ],
        "status": rep.ok,
    }
    emit(cfg, payload)
    return 0 if rep.ok else 1


def _verify_hecke_ideals(cfg: RunConfig, lam: StrictPartition) -> int:
    from .heckeclifford import braid_conjugation_cases, verify_tensor_ideal_theorem

    cases = verify_tensor_ideal_theorem(cfg.nmax, seed=cfg.seed)
    braid = []
    for (mm, nn) in [(1, 1), (1, 2), (2, 1)]:
        for b in braid_conjugation_cases(mm, nn):
            if not b.matches_paper_mn:
                braid.append(
                    {
                        "m": b.m,
                        "n": b.n,
                        "x_parity": b.x_parity,
                        "y_parity": b.y_parity,
                        "empirical_sign": b.empirical_sign,
                        "paper_mn_sign": b.paper_mn_sign,
                    }
                )
    ok = _all_passed(c.passed for c in cases)
    payload = {
        "target": "hecke-ideals",
        "nmax": cfg.nmax,
        "cases": [c.to_dict() for c in cases],
        "braid_sign_note": {
            "empirical_law": "sign = (-1)^{|x||y|}",
            "paper_mn_exponent_mismatches": len(braid),
            "sample": braid[:4],
        },
        "status": ok,
    }
    rows = [
        [
            c["lambda"],
            c["m"],
            ";".join(c["predicted_support"]),
            ";".join(c["observed_support"]),
            c["pass"],
        ]
        for c in payload["cases"]
    ]
    emit(cfg, payload, rows, ["lambda", "m", "predicted", "observed", "pass"])
    return 0 if ok else 1


def _verify_main_theorem(cfg: RunConfig, lam: StrictPartition) -> int:
    args = [
        (cfg.n, cfg.m, p.serialize(), cfg.dmax)
        for p in all_strict_upto(cfg.dmax, min(cfg.n, cfg.m))
    ]
    if cfg.jobs > 1:
        # imported here: it loads multiprocessing, which one job never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            case_rows = list(pool.map(_mt_row, args))
    else:
        case_rows = [_mt_row(a) for a in args]
    cases = [c for group in case_rows for c in group]
    ok = _all_passed(c["pass"] for c in cases)
    payload = {
        "target": "main-theorem",
        "n": cfg.n,
        "m": cfg.m,
        "d_max": cfg.dmax,
        "cases": cases,
        "status": ok,
    }
    rows = [
        [c["lambda"], c["mu"], c["predicted"], c["observed"], c["pass"]]
        for c in cases
    ]
    emit(cfg, payload, rows, ["lambda", "mu", "predicted", "observed", "pass"])
    return 0 if ok else 1


def _verify_determinantal(cfg: RunConfig, lam: StrictPartition) -> int:
    from .amodule import determinantal_ideal_check

    size = staircase(1).size
    if size > cfg.dmax:
        raise ConfigError("--dmax %d is below the staircase size %d" % (cfg.dmax, size))
    rep = determinantal_ideal_check(cfg.n, cfg.m, 1, cfg.dmax)
    payload = {
        "target": "determinantal",
        "r": rep.r,
        "cases": [c.to_dict() for c in rep.cases],
        "quotient_lengths_outside": rep.observed_quotient_lengths,
        "status": _all_passed(c.passed for c in rep.cases),
    }
    emit(cfg, payload)
    return 0 if payload["status"] else 1


def _verify_phi_psi(cfg: RunConfig, lam: StrictPartition) -> int:
    from .jets import phi_map, phi_apply, psi_of_phi_on_generators
    from .amodule import SuperPoly, m_generators
    import random

    cases = []
    for n in range(1, cfg.n + 1):
        # multiplicativity on sampled degree-<=2 pairs at jet order 4
        ring, _ = phi_map(n, 4)
        rng = random.Random(cfg.seed)
        gens = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                gens.append(SuperPoly.x(n, n, i, j))
                gens.append(SuperPoly.y(n, n, i, j))
        mult_ok = True
        for _ in range(8):
            p = rng.choice(gens) * rng.choice(gens)
            q = rng.choice(gens) * rng.choice(gens)
            lhs = phi_apply(n, 4, p * q)
            rhs = ring.mul(phi_apply(n, 4, p), phi_apply(n, 4, q))
            mult_ok = mult_ok and lhs == rhs
        ident_ok = all(
            ring.constant_term(phi_apply(n, 4, g)).is_zero()
            for g in m_generators(n)
        )
        inv_ok = all(
            got == want
            for _, got, want in psi_of_phi_on_generators(n, cfg.jet_order)
        )
        cases.append(
            {
                "n": n,
                "phi_multiplicative": mult_ok,
                "m_generators_vanish_at_identity": ident_ok,
                "psi_phi_identity": inv_ok,
                "pass": mult_ok and ident_ok and inv_ok,
            }
        )
    payload = {
        "target": "phi-psi",
        "jet_order": cfg.jet_order,
        "note": "localization modeled by jets at the identity point",
        "cases": cases,
        "status": _all_passed(c["pass"] for c in cases),
    }
    emit(cfg, payload)
    return 0 if payload["status"] else 1


def _verify_prop_dim(cfg: RunConfig, lam: StrictPartition) -> int:
    from .dimcheck import hom_dim_sweep

    cases = hom_dim_sweep(cfg.n, cfg.m, 2, 2)
    ok = _all_passed(c.passed for c in cases)
    payload = {
        "target": "prop-dim",
        "n": cfg.n,
        "m": cfg.m,
        "convention": "total (even+odd) dimensions everywhere",
        "cases": [c.to_dict() for c in cases],
        "status": ok,
    }
    emit(cfg, payload)
    return 0 if ok else 1


def _parse_lambda(text: str | None) -> StrictPartition:
    try:
        return StrictPartition.parse(text or "")
    except ValueError as exc:
        raise ConfigError("--lambda %r is not a strict partition: %s" % (text, exc))


def _dump_isotypic(cfg: RunConfig, lam: StrictPartition) -> int:
    from .heckeclifford import decompose_regular

    tab = decompose_regular(cfg.n, seed=cfg.seed)
    payload = json.loads(tab.to_json())
    payload["target"] = "isotypic"
    rows = [
        [b["lambda"], b["dim_J"], b["dim_S"], b["type"]]
        for b in payload["blocks"]
    ]
    emit(cfg, payload, rows, ["lambda", "dim_J", "dim_S", "type"])
    return 0


def _dump_q_expansion(cfg: RunConfig, lam: StrictPartition) -> int:
    terms = symfunc.q_expansion(lam)
    bits = []
    for key, c in sorted(terms, key=lambda t: (-len(t[0]), t[0])):
        mono = "*".join("q%d" % r for r in key) or "1"
        bits.append("%s%s" % ("" if c == 1 else "%s*" % c, mono))
    pretty = " + ".join(bits).replace("+ -", "- ")
    payload = {
        "target": "q-expansion",
        "lambda": lam.serialize(),
        "terms": [{"q_indices": list(k), "coeff": c} for k, c in terms],
        "pretty": pretty,
    }
    emit(cfg, payload)
    return 0


def _dump_dims(cfg: RunConfig, lam: StrictPartition) -> int:
    from .queer import dim_T

    val = dim_T(lam, cfg.n, seed=cfg.seed)
    payload = {
        "target": "dims",
        "lambda": lam.serialize(),
        "n": cfg.n,
        "dim_T": val,
    }
    emit(cfg, payload)
    return 0


# ---------------------------------------------------------------------------
# dispatch and argument parsing
# ---------------------------------------------------------------------------

_A_RANK = (("--n", SAFE_A_RANK), ("--m", SAFE_A_RANK))

# (command, target) -> (function, the (flag, safe bound) rows of the flags it
# reads). A flag no row names is not bounded for that target.
TARGETS = {
    ("pieri", None): (_pieri, (("--bound", SAFE_SIZE),)),
    ("verify", "hecke-ideals"): (_verify_hecke_ideals, (("--nmax", SAFE_H_RANK),)),
    ("verify", "main-theorem"): (_verify_main_theorem, _A_RANK + (("--dmax", SAFE_SIZE),)),
    ("verify", "determinantal"): (_verify_determinantal, _A_RANK + (("--dmax", SAFE_SIZE),)),
    ("verify", "cauchy"): (_verify_cauchy, (("--degree", SAFE_DEGREE), ("--vars", SAFE_DEGREE))),
    ("verify", "phi-psi"): (_verify_phi_psi, (("--n", SAFE_A_RANK),)),
    ("verify", "prop-dim"): (_verify_prop_dim, _A_RANK),
    ("dump", "isotypic"): (_dump_isotypic, (("--n", SAFE_H_RANK),)),
    ("dump", "q-expansion"): (_dump_q_expansion, ()),
    ("dump", "dims"): (_dump_dims, (("--n", SAFE_A_RANK), ("|--lambda|", SAFE_H_RANK))),
}


def _targets(command: str) -> list[str]:
    return [t for c, t in TARGETS if c == command]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=3)
    common.add_argument("--m", type=int, default=3)
    common.add_argument("--nmax", type=int, default=4, help="Hecke-Clifford rank bound")
    common.add_argument("--dmax", type=int, default=5, help="ideal truncation degree")
    common.add_argument("--degree", type=int, default=6, help="Cauchy truncation degree")
    common.add_argument("--vars", type=int, default=6)
    common.add_argument("--jet-order", type=int, default=3)
    common.add_argument("--bound", type=int, default=8, help="Pieri size bound")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--out", type=str, default=None)
    common.add_argument(
        "--format", dest="fmt", choices=["json", "csv", "text"], default="text"
    )
    common.add_argument("--cache-dir", type=str, default=None)
    common.add_argument("--unsafe", action="store_true", help="lift the safe bounds")

    ap = argparse.ArgumentParser(
        prog="queerlab",
        description="Exact verification of Hecke-Clifford / queer-matrix theorems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("pieri", parents=[common], help="check the Pieri rule against products")

    v = sub.add_parser("verify", parents=[common], help="run a theorem verification")
    v.add_argument("target", choices=_targets("verify"))

    d = sub.add_parser("dump", parents=[common], help="dump a computed table")
    d.add_argument("target", choices=_targets("dump"))
    d.add_argument("--lambda", dest="lam", type=str, default=None)
    return ap


def make_config(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run, safe = TARGETS[args.command, getattr(args, "target", None)]
        lam = _parse_lambda(getattr(args, "lam", None))
        cfg = make_config(args)
        cfg.check(safe, lam)
        loaded = load_qpoly_cache(cfg.cache_dir) if cfg.cache_dir else 0
        code = run(cfg, lam)
        # the memo holds every entry loaded, so it outgrows them exactly when
        # the file lacks an entry (or was not loaded) and must be rewritten
        if cfg.cache_dir and len(symfunc._QPOLY_CACHE) > loaded:
            write_qpoly_cache(cfg.cache_dir)
        return code
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # imported on the error path only: the top level stays light
        from .heckeclifford import DecompositionError

        what = "%s: %s" % (type(exc).__name__, exc)
        if isinstance(exc, (symfunc.InconsistentMultiplicity, DecompositionError)):
            # an exact identity failed: a theorem failure, not a crash
            case = " ".join(t for t in (args.command, getattr(args, "target", None)) if t)
            print("check failed in %s: %s" % (case, what), file=sys.stderr)
            return 1
        print("internal error: %s" % what, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
