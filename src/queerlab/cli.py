"""Command-line front end: orchestrates verifications, emits reports,
and manages the on-disk cache of expensive tables.

`parse_argv` reads the command line against the tables FLAGS, STR_FLAGS and
TARGETS, and `usage` prints them as the help; argparse is not loaded, as
building its parser took about 2.5 ms of every run.

Exit codes: 0 all checks passed, 1 a theorem check failed (a case reported
false, or an exact identity the check relies on failed: InconsistentMultiplicity,
DecompositionError, ContravarianceError, HomDimError, ActionError,
JetInversionError), 2 bad input (parse errors included) or an internal error.
A cache file that cannot be read or written costs a warning, not the exit code.
"""

from __future__ import annotations

import io
import json
import os
import sys
from types import SimpleNamespace

from .partitions import StrictPartition, all_strict_upto, contains, staircase
from . import symfunc

CACHE_HEADER = "queerlab-cache v3"
CACHE_FILE = "qpoly.cache"

# The safe bounds, lifted by --unsafe: past them a run is not known to finish
# within about a second. Each target names the flags it reads against them.
SAFE_H_RANK = 13  # rank of H_n
SAFE_A_RANK = 3  # --n of verify phi-psi: the rank of A(n,n) and of its jets
# n and m of verify prop-dim: each slice is solved at the ranks of its
# support, so every rank builds the systems of rank 2
SAFE_PROP_RANK = 12
SAFE_DEGREE = 18  # Cauchy truncation degree
SAFE_BOUND = 20  # largest |lambda| of a Pieri check
# truncation degree of an ideal check in A(n,m); it caps the effective rank,
# at which the check runs whatever n and m are, at 3
SAFE_DMAX = 9
SAFE_JET_ORDER = 11  # jet order of verify phi-psi
# |lambda| of dump q-expansion: the longest shapes of each size are its slowest
SAFE_Q_SIZE = 54

# The int flags of every subcommand: flag -> (default, lowest value, help).
# A value below the lowest is bad input, refused with or without --unsafe.
FLAGS = {
    "--n": (3, 1, None),
    "--m": (3, 1, None),
    "--nmax": (4, 0, "Hecke-Clifford rank bound"),
    "--dmax": (5, 0, "ideal truncation degree"),
    "--degree": (6, 0, "Cauchy truncation degree"),
    "--vars": (6, 0, None),
    # order 0 truncates away the degree-1 generators
    "--jet-order": (3, 1, None),
    "--bound": (8, 0, "Pieri size bound"),
    # --seed and --jobs set nothing; both are accepted because the
    # benchmark passes them
    "--seed": (0, None, None),
    "--jobs": (1, 1, None),
}


class ConfigError(ValueError):
    pass


def _value(args, flag: str) -> int:
    """The value of an int flag; the row "|--lambda|" reads the size of --lambda."""
    if flag == "|--lambda|":
        return args.lam.size
    return getattr(args, flag[2:].replace("-", "_"))


def _check(args, safe):
    """Refuse a flag below its lowest value; without --unsafe, also refuse
    each (flag, bound) row of `safe` whose value is past its bound."""
    for flag, (_, low, _) in FLAGS.items():
        if low is not None and _value(args, flag) < low:
            raise ConfigError("%s %d is below %d" % (flag, _value(args, flag), low))
    for flag, bound in () if args.unsafe else safe:
        if _value(args, flag) > bound:
            raise ConfigError(
                "%s %d above the safe bound %d (use --unsafe)" % (flag, _value(args, flag), bound)
            )


def _make_folders(files):
    """Make the folder of each file (flag, path, write) that a flag writes,
    once every file is checked, so a refused run makes no folder. A folder
    that cannot be made (a regular file on its path, no permission), or a
    directory at `path` itself, is bad input; so is a `path` this process
    may not write, when `write` is set."""
    for flag, path, write in files:
        folder = top = os.path.dirname(path) or "."
        while not os.path.exists(top):  # up to the nearest folder that exists
            top = os.path.dirname(top) or "."
        if not os.path.isdir(top) or top != folder and not os.access(top, os.W_OK | os.X_OK):
            raise ConfigError("%s: cannot make the directory %s: %s is not a writable directory" % (flag, folder, top))
        if os.path.isdir(path):
            raise ConfigError("%s: %s is a directory" % (flag, path))
        if write and not os.access(path if os.path.exists(path) else top, os.W_OK):
            raise ConfigError("%s: cannot write %s" % (flag, path))
    for flag, path, _ in files:
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        except OSError as exc:
            raise ConfigError("%s: cannot make the directory of %s: %s" % (flag, path, exc.strerror or exc))


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
    """Warm the Q_lambda memo table from the versioned cache file.

    The header line is `CACHE_HEADER sha256=<hex digest of the body>`. A file
    of another version is ignored; a file that fails its digest, does not
    decode or does not parse (`symfunc.parse_qpoly_cache_line`, which holds
    each table to `symfunc._table_fault`) is ignored with a warning, so its
    entries are recomputed and the file is rewritten at the end of the run.
    So is a file that cannot be read.
    """
    path = os.path.join(cache_dir, CACHE_FILE)
    if not os.path.exists(path):
        return 0
    try:
        # a byte that does not decode raises UnicodeDecodeError, a ValueError
        with open(path) as fh:
            header, _, body = fh.read().partition("\n")
        version, _, digest = header.partition(" sha256=")
        if version != CACHE_HEADER:
            return 0  # stale or foreign cache: ignore, recompute
        if digest != _digest(body):
            raise ValueError("checksum mismatch")
        entries = [
            symfunc.parse_qpoly_cache_line(line)
            for line in body.splitlines()
            if line.strip()
        ]
    except (OSError, ValueError) as exc:
        what = "unreadable" if isinstance(exc, OSError) else "corrupt"
        print("warning: ignoring %s cache %s: %s" % (what, path, exc), file=sys.stderr)
        return 0
    for lam, N, table in entries:
        symfunc._QPOLY_CACHE[(lam, N)] = table
    return len(entries)


def write_qpoly_cache(cache_dir: str):
    """Persist every memoized Q_lambda table under a header with the body's digest.

    The file is written under a temporary name in the cache directory, which
    must exist, and renamed over `qpoly.cache`, so an interrupted run leaves
    either the old file or the new one, never a truncated one.
    """
    path = os.path.join(cache_dir, CACHE_FILE)
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


def _render(fmt: str, payload: dict, rows, header) -> str:
    """The report as JSON, as the CSV table (header, rows), or as text: one
    line per scalar field and per case."""
    if fmt == "json":
        return json.dumps(payload) + "\n"
    if fmt == "csv":
        # imported here: only --format csv loads it
        import csv

        buf = io.StringIO()
        csv.writer(buf).writerows([header] + rows)
        return buf.getvalue()
    lines = ["target: %s" % payload.get("target")]
    lines += [
        "  %s: %s" % (k, v)
        for k, v in payload.items()
        if k not in ("target", "status", "cases") and not isinstance(v, (list, dict))
    ]
    lines += ["  " + " ".join("%s=%s" % kv for kv in case.items()) for case in payload.get("cases", [])]
    if payload.get("status") is not None:
        lines.append("status: %s" % payload["status"])
    return "\n".join(lines) + "\n"


def emit(args, payload: dict, rows, header):
    """Print the report in --format and write it to the --out file, which
    holds the JSON form under --format text."""
    text = _render(args.fmt, payload, rows, header)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(_render("json", payload, rows, header) if args.fmt == "text" else text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns its report and the rows of its CSV table
# ---------------------------------------------------------------------------


def _pieri(args):
    from .symfunc import gamma_product, pieri

    one_box = StrictPartition((1,))
    cases = []
    rows = []
    ok = True
    for nu in all_strict_upto(args.bound):
        want = pieri(nu)
        match = gamma_product(one_box, nu) == want
        ok = ok and match
        cases.append({"lambda": nu.serialize(), "pass": match})
        for mu, c in sorted(want.items(), key=lambda t: t[0].parts):
            rows.append([nu.serialize(), mu.serialize(), c])
    return {"target": "pieri", "bound": args.bound, "cases": cases, "status": ok}, rows


def _effective_rank(partitions) -> int:
    """The length of the longest partition a report checks: a rank past it
    repeats the report's cases."""
    return max(p.length for p in partitions)


def _all_passed(passes) -> bool:
    """True when at least one case was checked and every case passed."""
    passes = list(passes)
    return bool(passes) and all(passes)


def _verify_cauchy(args):
    if args.vars < args.degree:
        raise ConfigError(
            "--vars %d below --degree %d: the Cauchy truncation needs "
            "--vars >= --degree" % (args.vars, args.degree)
        )
    first_failure = symfunc.cauchy_check(args.degree, args.vars)
    payload = {
        "target": "cauchy",
        "degree": args.degree,
        "variables": args.vars,
        "cases": [
            {
                "identity": "prod (1+x_i y_j)/(1-x_i y_j) = sum Q_lambda(x) P_lambda(y)",
                "pass": first_failure is None,
                "first_failure": first_failure,
            }
        ],
        "status": first_failure is None,
    }
    return payload, None


def _verify_hecke_ideals(args):
    from .heckeclifford import braid_conjugation_cases, decompose_regular, verify_tensor_ideal_theorem

    cases = verify_tensor_ideal_theorem(args.nmax)
    braid = [b for mn in [(1, 1), (1, 2), (2, 1)] for b in braid_conjugation_cases(*mn)]
    law_breaks = sum(b["empirical_sign"] != (-1) ** (b["x_parity"] * b["y_parity"]) for b in braid)
    mismatches = [b for b in braid if b["empirical_sign"] != b["paper_mn_sign"]]
    # the stated law is checked on every case; the paper's exponent is only noted
    ok = _all_passed(c["pass"] for c in cases) and not law_breaks
    payload = {
        "target": "hecke-ideals",
        "nmax": args.nmax,
        "cases": cases,
        # the signed classes of each H_n: the center's dimension and its
        # number of words, sum |C_j|
        "center": {
            t.n: {"classes": len(t.types), "support": sum(t.weights)}
            for t in map(decompose_regular, range(args.nmax + 1))
        },
        "braid_sign_note": {
            "empirical_law": "sign = (-1)^{|x||y|}",
            "parity_law_mismatches": law_breaks,
            "paper_mn_exponent_mismatches": len(mismatches),
            "sample": mismatches[:4],
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
        for c in cases
    ]
    return payload, rows


# what the one-box relation takes from the literature, not from this run
_ONE_BOX_ASSUMES = [
    "each A_d is multiplicity-free under q(n) x q(m) (Cheng and Wang, AMS GSM 144, ch. 3), "
    "so its summands are orthogonal under the Fischer form",
    "the highest-weight space of a q(n) x q(m) summand L_kappa has a dimension set by l(kappa) alone "
    "(Cheng and Wang, AMS GSM 144, ch. 3), so S_kappa = x_11 S_(kappa - e_1) where kappa_1 >= kappa_2 + 2",
]


def _one_box_report(relation: dict, checks: int) -> dict:
    """The report keys of a walk along the one-box relation: its pairs, how
    each was decided, and the contravariance checks they rest on."""
    from .amodule import added_box

    pairs = sum(len(row) for row in relation.values())
    paired = sum(added_box(nu, kappa) is not None for nu, row in relation.items() for kappa in row)
    return {
        "one_box_pairs": pairs,
        "one_box_decided": {"weight": pairs - paired, "pairing": paired},
        "contravariance_checks": checks,
        "assumes": _ONE_BOX_ASSUMES,
    }


def membership_case(lam: StrictPartition, mu: StrictPartition, predicted: bool, observed: bool) -> dict:
    """One case of an ideal check in A(n,m): is L_mu in the ideal of L_lambda,
    as predicted and as observed."""
    return {
        "lambda": lam.serialize(),
        "mu": mu.serialize(),
        "predicted": predicted,
        "observed": observed,
        "pass": predicted == observed,
    }


def _verify_main_theorem(args):
    from .amodule import contravariance_check, ideal_summands

    cands = all_strict_upto(args.dmax, min(args.n, args.m))
    rank = _effective_rank(cands)
    # no case reads a row or column of A(n,m) past the longest candidate
    walk = max(rank, 1)
    checks = contravariance_check(walk, walk)
    relation = {}
    cases = []
    for lam in cands:
        reached = ideal_summands(walk, lam, args.dmax, relation)
        cases += [membership_case(lam, mu, contains(lam, mu), mu in reached) for mu in cands]
    payload = {
        "target": "main-theorem",
        "n": args.n,
        "m": args.m,
        "d_max": args.dmax,
        "effective_rank": rank,
        **_one_box_report(relation, checks),
        "cases": cases,
        "status": _all_passed(c["pass"] for c in cases),
    }
    return payload, [[c[k] for k in _CASE_COLUMNS] for c in cases]


def _verify_determinantal(args):
    """The staircase (r+1, ..., 1) generates exactly the mu with l(mu) > r:
    row r of the main-theorem matrix, walked from the staircase alone."""
    from .amodule import contravariance_check, ideal_summands

    r = 1
    stair = staircase(r)
    if stair.size > args.dmax:
        raise ConfigError("--dmax %d is below the staircase size %d" % (args.dmax, stair.size))
    # a staircase longer than min(n, m) is no summand of A(n,m): every case
    # would pass without a generator
    rank = min(args.n, args.m)
    if stair.length > rank:
        flag = "--n" if args.n == rank else "--m"
        raise ConfigError("%s %d is below the staircase length %d" % (flag, rank, stair.length))
    mus = all_strict_upto(args.dmax, rank)
    walk = _effective_rank([stair] + mus)
    checks = contravariance_check(walk, walk)
    relation = {}
    reached = ideal_summands(walk, stair, args.dmax, relation)
    cases = [membership_case(stair, mu, mu.length > r, mu in reached) for mu in mus]
    payload = {
        "target": "determinantal",
        "r": r,
        "effective_rank": walk,
        "cases": cases,
        "quotient_lengths_outside": sorted({mu.length for mu in mus if mu not in reached}),
        **_one_box_report(relation, checks),
        "status": _all_passed(c["pass"] for c in cases),
    }
    return payload, None


# the odd generators of A(n,n) (y) and of K (b, b'); every other is even
_ODD_KINDS = ("y", "b", "bp")


def _parities_hold(images: dict) -> bool:
    """Every monomial of each image has an odd number of odd factors exactly
    when its key names an odd generator. A(n,n) and the coordinates of K are
    free supercommutative, and so are the jets; substituting images of their
    generators' parities is then a homomorphism."""
    return all(len(o) % 2 == (key[0] in _ODD_KINDS) for key, img in images.items() for _, o in img)


def _verify_phi_psi(args):
    from .jets import phi_map, psi_map, psi_of_phi_on_generators

    cases = []
    for n in range(1, args.n + 1):
        # phi is multiplicative on all of A(n,n) when its images have the parities
        # of x_ij (even) and y_ij (odd); of degree <= 2, they are whole at order >= 2
        ring, images = phi_map(n, max(args.jet_order, 2))
        mult_ok = _parities_hold(images)
        # m is generated by the x_ij - delta_ij and the y_ij, so phi sends it
        # to 0 at the identity when phi(x_ij) starts at delta_ij, phi(y_ij) at 0
        ident_ok = all(
            ring.constant(img) == int(kind == "x" and i == j)
            for (kind, i, j), img in images.items()
        )
        # psi is a homomorphism too when its images have the parities of
        # the K-coordinates, so psi o phi = id on the generators holds on all of A
        _, psi = psi_map(n, args.jet_order)
        inv_ok = _parities_hold(psi) and all(
            got == want for _, got, want in psi_of_phi_on_generators(n, args.jet_order)
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
        "jet_order": args.jet_order,
        "note": "localization modeled by jets at the identity point",
        "cases": cases,
        "status": _all_passed(c["pass"] for c in cases),
    }
    return payload, None


def _verify_prop_dim(args):
    from .dimcheck import _sweep, hom_dim_sweep, sweep_contravariance_check

    checks = sweep_contravariance_check(args.n, args.m)
    cases = hom_dim_sweep(args.n, args.m)
    payload = {
        "target": "prop-dim",
        "n": args.n,
        "m": args.m,
        "convention": "total (even+odd) dimensions everywhere",
        # the partitions of each case: (lambda, mu, alpha, beta)
        "effective_rank": _effective_rank(p for case in _sweep(args.n, args.m) for p in case),
        "contravariance_checks": checks,
        "cases": cases,
        "status": _all_passed(c["pass"] for c in cases),
    }
    return payload, None


def _parse_lambda(text: str | None) -> StrictPartition:
    try:
        return StrictPartition.parse(text or "")
    except ValueError as exc:
        raise ConfigError("--lambda %r is not a strict partition: %s" % (text, exc))


def _dump_isotypic(args):
    from .heckeclifford import decompose_regular

    tab = decompose_regular(args.n)
    payload = tab.to_dict()
    payload["target"] = "isotypic"
    return payload, [[b[k] for k in _BLOCK_COLUMNS] for b in payload["blocks"]]


def _dump_q_expansion(args):
    terms = symfunc.q_expansion(args.lam)
    bits = []
    for key, c in sorted(terms, key=lambda t: (-len(t[0]), t[0])):
        mono = "*".join("q%d" % r for r in key) or "1"
        bits.append("%s%s" % ("" if c == 1 else "%s*" % c, mono))
    pretty = " + ".join(bits).replace("+ -", "- ")
    payload = {
        "target": "q-expansion",
        "lambda": args.lam.serialize(),
        "terms": [{"q_indices": list(k), "coeff": c} for k, c in terms],
        "pretty": pretty,
    }
    return payload, None


def _dump_dims(args):
    from .queer import dim_T

    val = dim_T(args.lam, args.n)
    payload = {
        "target": "dims",
        "lambda": args.lam.serialize(),
        "n": args.n,
        "dim_T": val,
    }
    return payload, None


# ---------------------------------------------------------------------------
# dispatch and argument parsing
# ---------------------------------------------------------------------------

_PROP_RANK = (("--n", SAFE_PROP_RANK), ("--m", SAFE_PROP_RANK))
_CASE_COLUMNS = ["lambda", "mu", "predicted", "observed", "pass"]
_BLOCK_COLUMNS = ["lambda", "dim_J", "dim_S", "type"]

# (command, target) -> (function, the (flag, safe bound) rows of the flags it
# reads, the header of its CSV table). A flag no row names is not bounded for
# that target; a target whose header is None has no --format csv.
TARGETS = {
    ("pieri", None): (_pieri, (("--bound", SAFE_BOUND),), ["lambda", "mu", "coeff"]),
    ("verify", "hecke-ideals"): (
        _verify_hecke_ideals,
        (("--nmax", SAFE_H_RANK),),
        ["lambda", "m", "predicted", "observed", "pass"],
    ),
    # n and m cost nothing past the effective rank, which --dmax caps
    ("verify", "main-theorem"): (_verify_main_theorem, (("--dmax", SAFE_DMAX),), _CASE_COLUMNS),
    ("verify", "determinantal"): (_verify_determinantal, (("--dmax", SAFE_DMAX),), None),
    # a partition of k <= --degree has at most k parts, so --vars costs nothing
    ("verify", "cauchy"): (_verify_cauchy, (("--degree", SAFE_DEGREE),), None),
    ("verify", "phi-psi"): (_verify_phi_psi, (("--n", SAFE_A_RANK), ("--jet-order", SAFE_JET_ORDER)), None),
    ("verify", "prop-dim"): (_verify_prop_dim, _PROP_RANK, None),
    ("dump", "isotypic"): (_dump_isotypic, (("--n", SAFE_H_RANK),), _BLOCK_COLUMNS),
    ("dump", "q-expansion"): (_dump_q_expansion, (("|--lambda|", SAFE_Q_SIZE),), None),
    # dim_T is a trace over the center of H_|lambda|, whatever --n is
    ("dump", "dims"): (_dump_dims, (("|--lambda|", SAFE_H_RANK),), None),
}


# The str flags: flag -> (attribute, default, choices or None). --lambda is
# a flag of dump alone; every other flag is a flag of every command.
STR_FLAGS = {
    "--out": ("out", None, None),
    "--format": ("fmt", "text", ("json", "csv", "text")),
    "--cache-dir": ("cache_dir", None, None),
    "--lambda": ("lam", None, None),
}


def _targets(command: str) -> list:
    return [t for c, t in TARGETS if c == command and t]


def _flag(token: str, flags: list):
    """(flag, the value after '=' or None) when `token` names one of `flags`:
    exactly, before '=', or by a unique prefix; -h is --help. None when it is
    a value: not led by '-', '-' alone, a negative number, or holding a space.
    Any other token led by '-' is returned as (token, None), an unknown flag."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    name = "--help" if name == "-h" else name
    hits = [name] if name in flags else [f for f in flags if f.startswith(name)] if token[:2] == "--" else []
    if len(hits) > 1:
        raise ConfigError("%s is ambiguous: it could be %s" % (token, ", ".join(hits)))
    if hits:
        return hits[0], value if eq else None
    whole, dot, frac = token[1:].partition(".")
    if whole.isdecimal() and not dot or dot and (not whole or whole.isdecimal()) and frac.isdecimal():
        return None
    return None if " " in token else (token, None)


def parse_argv(argv: list):
    """Read argv as COMMAND [TARGET] [FLAGS], the target and the flags in any
    order; the last of a repeated flag wins. None asks for the usage."""
    if argv and _flag(argv[0], ["--help"]) == ("--help", None):
        return None
    commands = dict.fromkeys(c for c, _ in TARGETS)
    command = argv[0] if argv else ""
    if command not in commands:
        raise ConfigError("%r is not a command: %s" % (command, ", ".join(commands)))
    attrs = {f: f[2:].replace("-", "_") for f in FLAGS}
    attrs.update((f, a) for f, (a, _, _) in STR_FLAGS.items() if f != "--lambda" or command == "dump")
    flags = [*attrs, "--unsafe", "--help"]
    args = SimpleNamespace(command=command, target=None, unsafe=False, **{a: d for a, d, _ in STR_FLAGS.values()})
    vars(args).update((attrs[f], d) for f, (d, _, _) in FLAGS.items())
    rest = []
    tokens = iter(argv[1:])
    for token in tokens:
        hit = _flag(token, flags)
        if hit is None:
            rest.append(token)
            continue
        flag, value = hit
        if flag not in flags:
            raise ConfigError("%s is not a flag of %s" % (token, command))
        if flag in ("--help", "--unsafe"):
            if value is not None:
                raise ConfigError("%s takes no value" % token)
            if flag == "--help":
                return None
            args.unsafe = True
            continue
        if value is None:
            value = next(tokens, None)
            if value is None or _flag(value, flags) is not None:
                raise ConfigError("%s expects a value" % token)
        if flag in FLAGS:
            try:
                value = int(value)
            except ValueError:
                raise ConfigError("%s %r is not an int" % (flag, value))
        elif STR_FLAGS[flag][2] and value not in STR_FLAGS[flag][2]:
            raise ConfigError("%s %r is not one of %s" % (flag, value, ", ".join(STR_FLAGS[flag][2])))
        setattr(args, attrs[flag], value)
    targets = _targets(command)
    if len(rest) != bool(targets) or targets and rest[0] not in targets:
        want = "one target of " + ", ".join(targets) if targets else "no target"
        raise ConfigError("%s takes %s, not %r" % (command, want, " ".join(rest)))
    args.target = rest[0] if rest else None
    return args


def usage() -> str:
    """The help text, read off TARGETS, FLAGS and STR_FLAGS."""
    lines = ["usage: queerlab COMMAND [TARGET] [FLAGS], the target and the flags in any order"]
    lines.append("commands and their targets:")
    for command in dict.fromkeys(c for c, _ in TARGETS):
        lines.append(("  %s %s" % (command, " | ".join(_targets(command)))).rstrip())
    lines.append("int flags, --flag N or --flag=N (default):")
    lines += ["  %-12s %s%s" % (f, d, "  " + text if text else "") for f, (d, _, text) in FLAGS.items()]
    lines.append("other flags:")
    for flag, (attr, default, choices) in STR_FLAGS.items():
        note = " (%s)" % default if default else " (dump only)" if flag == "--lambda" else ""
        lines.append("  %-12s %s%s" % (flag, "|".join(choices) if choices else attr.upper(), note))
    lines.append("  --unsafe     lift the safe bounds")
    lines.append("A flag may be shortened to a unique prefix. Bad input exits 2 as 'error: ...'.")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    name = "queerlab"
    try:
        args = parse_argv(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(usage())
            return 0
        target = args.command, args.target
        name = " ".join(t for t in target if t)
        run, safe, header = TARGETS[target]
        args.lam = _parse_lambda(args.lam)
        _check(args, safe)
        if args.fmt == "csv" and header is None:
            raise ConfigError("--format csv: %s has no table" % name)
        files = [("--out", args.out, True)] if args.out else []
        if args.cache_dir:
            # a cache directory this process may not write still serves a complete file
            files.append(("--cache-dir", os.path.join(args.cache_dir, CACHE_FILE), False))
        _make_folders(files)
        loaded = load_qpoly_cache(args.cache_dir) if args.cache_dir else 0
        payload, rows = run(args)
        emit(args, payload, rows, header)
        # the memo holds every entry loaded, so it outgrows them exactly when
        # the file lacks an entry (or was not loaded) and must be rewritten
        if args.cache_dir and len(symfunc._QPOLY_CACHE) > loaded:
            try:
                write_qpoly_cache(args.cache_dir)
            except OSError as exc:
                # the cache only saves time: the verdict stands without it
                print("warning: cannot write the cache in %s: %s" % (args.cache_dir, exc), file=sys.stderr)
        return 0 if payload.get("status", True) else 1
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # imported on the error path only: the top level stays light
        from .amodule import ContravarianceError
        from .dimcheck import HomDimError
        from .heckeclifford import DecompositionError
        from .jets import JetInversionError
        from .queer import ActionError

        what = "%s: %s" % (type(exc).__name__, exc)
        failed = (symfunc.InconsistentMultiplicity, DecompositionError, ContravarianceError, HomDimError)
        failed += (ActionError, JetInversionError)
        if isinstance(exc, failed):
            # an exact identity failed: a theorem failure, not a crash
            print("check failed in %s: %s" % (name, what), file=sys.stderr)
            return 1
        print("internal error: %s" % what, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
