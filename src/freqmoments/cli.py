"""Command-line frontend: scans, certifications, table reproduction,
identity checks, and series dumps.

Exit codes are a contract: 0 all-pass, 1 mathematical failure or table
mismatch, 2 usage error, 3 resource cap exceeded.  Standard output carries
only the report payload; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cache
from importlib import import_module

from .arith import (
    CONSERVATIVE12,
    DEFAULT_COEFF_BUDGET,
    SHARP24,
    ResourceLimitError,
    SturmConfig,
    primes_up_to,
)

# The series engine, loaded on a command's first use by _load_engine: the
# names the commands take from each module.  Parsing arguments needs none of
# it, so --help and an error argparse finds cost the parser alone, not numpy;
# an ensemble name or a weight spec is checked by the engine, and loads it.
_ENGINE_NAMES = (
    ("congruence", (
        "CertificationRecord", "Progression", "certify", "scan",
        "records_to_csv", "records_to_json", "records_to_text",
        "scan_report_to_csv", "scan_report_to_json", "scan_report_to_text",
        "certify_filtered",  # unused here; perfbench/tracing.py wraps this name
    )),
    ("divisorweights", ("DivisorWeight", "GlaisherFilter")),
    ("qseries", (
        "ORDINARY", "OVERPARTITION", "CoefficientRing", "Ensemble",
        "companion_series", "dump_series", "ensemble_by_name",
    )),
)

# When numpy loads, OpenBLAS starts one spinning thread per CPU.  The program
# makes no threaded BLAS call (its only BLAS use is np.convolve dots of at
# most 10^4 terms), so unless the user chose a count it gets one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@cache
def _load_engine() -> None:
    """Import the series engine and bind _ENGINE_NAMES in this module, once.

    The names are module globals, so the commands look each one up at call
    time and a name patched on this module (perfbench/tracing.py wraps
    several) is the one that runs; a name bound before the load is kept.
    """
    # The thread count has to be chosen before numpy loads.
    if not any(name in os.environ for name in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # Nearly every object the engine's imports create lives until exit, so
    # collecting them finds next to nothing: the cyclic GC stays off while
    # they load, and gc.freeze() then moves them out of its reach, so no
    # later collection (nor a pool worker's, which would also unshare the
    # forked pages) walks them again.  The one large exception is datetime,
    # which numpy's core imports: its pure-Python classes, replaced by the C
    # ones as it loads, are left as about 0.2 MB of garbage cycles that the
    # freeze would keep, so it is imported first and its garbage collected
    # while still young, by a collection of the two young generations only.
    import datetime  # noqa: F401

    gc.collect(1)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        namespace = globals()
        for module, names in _ENGINE_NAMES:
            loaded = import_module(f".{module}", __package__)
            for name in names:
                namespace.setdefault(name, getattr(loaded, name))
    finally:
        gc.freeze()
        if was_enabled:
            gc.enable()


def __getattr__(name: str):
    """Resolve an engine name for a caller outside main (PEP 562)."""
    if not any(name in names for _, names in _ENGINE_NAMES):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_engine()
    return globals()[name]


WEIGHT_GRAMMAR_VERSION = "1"
MEMORY_CAP_ENV = "FREQMOMENTS_MAX_COEFFS"


def _coefficient_budget() -> int:
    raw = os.environ.get(MEMORY_CAP_ENV)
    if raw is None:
        return DEFAULT_COEFF_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"bad {MEMORY_CAP_ENV}: {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{MEMORY_CAP_ENV} must be positive")
    return value


# ---------------------------------------------------------------------------
# Weight spec grammar, version 1:
#   [m=<int>][, twist=<kind>(<args>) | chi=<kind>(<args>) | filter=<kind>(<args>)
#             | rule=<ensemble>]
# The kinds are the rows of divisorweights._FILTER_ROWS, by the names a
# report prints, so every printed twist or filter label parses back;
# twist= and chi= are one key.  rule= names an ensemble, whose canonical
# weights a certification record prints as rule=<name>; only certify takes
# it (parse_weight_spec, not scan's _parse_weight_parts), and only for the
# --ensemble it runs.  Only scan takes a spec without m.
# ---------------------------------------------------------------------------


def _split_top_level(spec: str) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _parse_call(text: str) -> tuple[str, list[int]]:
    if "(" not in text:
        return text, []
    if not text.endswith(")"):
        raise ValueError(f"malformed weight component {text!r}")
    name, _, inner = text.partition("(")
    args = [int(a) for a in inner[:-1].split(",")] if inner[:-1].strip() else []
    return name.strip(), args


def _parse_weight_parts(spec: str) -> tuple[int | None, GlaisherFilter | None]:
    """The m (None if the spec names none) and the twist or filter (None if
    it names neither) of a weight spec."""
    _load_engine()
    exponent: int | None = None
    selector = None
    for part in _split_top_level(spec):
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ValueError(f"weight component {part!r} needs key=value")
        if key == "m":
            if exponent is not None:
                raise ValueError("at most one m per weight")
            exponent = int(value)
        elif key in ("twist", "chi", "filter"):
            if selector is not None:
                raise ValueError("at most one twist or filter per weight")
            selector = GlaisherFilter(*_parse_call(value))
            if selector.is_twist != (key != "filter"):
                raise ValueError(f"{key}={value} names the wrong key: write {selector.label()}")
        else:
            raise ValueError(f"unknown weight key {key!r}")
    return exponent, selector


def parse_weight_spec(spec: str) -> DivisorWeight:
    """Parse the compact weight grammar into a DivisorWeight; a rule=<ensemble>
    part names that ensemble's canonical weights."""
    parts = _split_top_level(spec)
    rules = [part for part in parts if part.partition("=")[0].strip() == "rule"]
    exponent, selector = _parse_weight_parts(", ".join(part for part in parts if part not in rules))
    if exponent is None:
        raise ValueError("weight spec needs m=<int>")
    if rules:
        if len(rules) > 1 or selector is not None:
            raise ValueError("at most one twist, filter or rule per weight")
        selector = ensemble_by_name(rules[0].partition("=")[2])
    return DivisorWeight(exponent, selector)


def _parse_int_list(values: list[str] | None) -> list[int]:
    return [int(v) for v in _parse_str_list(values)]


def _emit(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Golden data for the published certification tables
# ---------------------------------------------------------------------------

# (m, ell, r, prime, level_model, expected B, expected max index)
ORDINARY_TABLE = (
    (3, 7, 0, 7, "natural", 14, 98),
    (3, 7, 0, 7, "safe", 98, 686),
    (3, 7, 5, 7, "natural", 14, 103),
    (3, 7, 5, 7, "safe", 98, 691),
    (3, 11, 0, 11, "natural", 21, 231),
    (3, 11, 0, 11, "safe", 231, 2541),
    (3, 11, 6, 11, "natural", 21, 237),
    (3, 11, 6, 11, "safe", 231, 2547),
    (7, 11, 6, 11, "natural", 45, 501),
    (7, 11, 6, 11, "safe", 495, 5451),
)

# (m, ell, expected B at level 4*ell^2, expected checked range ell*B)
OVERPARTITION_TABLE = (
    (5, 5, 165, 825),
    (9, 5, 285, 1425),
    (7, 7, 420, 2940),
    (13, 7, 756, 5292),
    (11, 11, 1518, 16698),
    (13, 13, 2457, 31941),
)

# chi5-twisted moments at level 4*25 = 100, sharp24.  The m=3 bound is the
# published 52; the m=11 bound 172 is derived from the same formula.
FILTERED_TABLE = (
    (3, 5, 4, 5, 52),
    (11, 5, 4, 5, 172),
)


def _run_scan(args) -> int:
    ensemble = ensemble_by_name(args.ensemble)
    ms = _parse_int_list(args.m)
    if args.m_odd_max is not None:
        ms.extend(range(1, args.m_odd_max + 1, 2))
    exponent, selector = _parse_weight_parts(args.weight) if args.weight else (None, None)
    if exponent is not None:
        if args.m or args.m_odd_max is not None:
            raise ValueError("--weight names its own m; drop --m and --m-odd-max")
        ms = [exponent]
    ells = _parse_int_list(args.ell)
    if args.ell_max is not None:
        ells.extend(p for p in primes_up_to(args.ell_max).primes if p >= 5)
    if not ms or not ells:
        raise ValueError("scan needs weights (--m/--m-odd-max/--weight) and primes (--ell/--ell-max)")
    _progress(f"scanning {len(set(ms))} weights x {len(set(ells))} primes to n={args.nscan}")
    report = scan(
        ensemble,
        ms,
        ells,
        args.nscan,
        include_r0=not args.nonzero_only,
        weight_selector=selector,
        jobs=args.jobs,
        max_coeffs=_coefficient_budget(),
    )
    renderers = {
        "json": scan_report_to_json,
        "csv": scan_report_to_csv,
        "text": scan_report_to_text,
    }
    _emit(args, renderers[args.format](report))
    return 0


def _config_from_args(args, level_model: str) -> SturmConfig:
    custom = None
    if level_model.startswith("custom:"):
        custom = int(level_model.split(":", 1)[1])
        level_model = "custom"
    return SturmConfig(mode=args.mode, level_model=level_model, custom_level=custom)


def _render_records(args, records: list[CertificationRecord]) -> str:
    renderers = {
        "json": records_to_json,
        "csv": records_to_csv,
        "text": records_to_text,
    }
    return renderers[args.format](records)


def _run_certify(args) -> int:
    ensemble = ensemble_by_name(args.ensemble)
    if args.weight:
        if args.m is not None:
            raise ValueError("--weight names its own m; drop --m")
        parsed = parse_weight_spec(args.weight)
        m, selector = parsed.exponent, parsed.selector
        if isinstance(selector, Ensemble) and selector != ensemble:
            raise ValueError(f"rule={selector.name} is not --ensemble {ensemble.name}")
    elif args.m is None:
        raise ValueError("certify needs --m or --weight")
    else:
        m, selector = args.m, None
    # no twist or filter means the ensemble's canonical weights c(d) * d^m
    weight = DivisorWeight(m, selector or ensemble)
    prog = Progression(args.ell, args.r)
    levels = ["natural", "safe"] if args.both_levels else [args.level]
    budget = _coefficient_budget()
    _progress(f"certifying {len(levels)} task(s) for (m={m}, ell={prog.ell}, r={prog.r})")
    records = [
        certify(
            ensemble, m, prog, args.prime, _config_from_args(args, level_model),
            weight=weight, max_coeffs=budget,
        )
        for level_model in levels
    ]
    _emit(args, _render_records(args, records))
    return 0 if all(rec.status == "PASS" for rec in records) else 1


def _published_tables() -> dict:
    """name -> (heading, rows).  Each row is the certify arguments (ensemble,
    m, progression, prime, config, weight) then the expected B and max index."""
    return {
        "ordinary": ("ordinary-partition table (sharp24, both level models):", [
            (ORDINARY, m, Progression(ell, r), prime, SturmConfig(SHARP24, model), None, b, top)
            for m, ell, r, prime, model, b, top in ORDINARY_TABLE
        ]),
        "overpartition": ("overpartition table (conservative12, safe level):", [
            (OVERPARTITION, m, Progression(ell, 0), ell, SturmConfig(CONSERVATIVE12, "safe"),
             None, b, top)
            for m, ell, b, top in OVERPARTITION_TABLE
        ]),
        "filtered": ("filtered propositions (chi5 twist, sharp24, level 100):", [
            (ORDINARY, m, Progression(ell, r), prime, SturmConfig(SHARP24, "safe"),
             DivisorWeight(m, GlaisherFilter.kronecker(5)), b, ell * b + r)
            for m, ell, r, prime, b in FILTERED_TABLE
        ]),
    }


def _run_tables(args) -> int:
    budget = _coefficient_budget()
    records: list[CertificationRecord] = []
    mismatches: list[str] = []
    for name, (heading, rows) in _published_tables().items():
        if args.which not in (name, "all"):
            continue
        _progress(heading)
        for ensemble, m, prog, prime, config, weight, expect_b, expect_max in rows:
            record = certify(ensemble, m, prog, prime, config, weight=weight, max_coeffs=budget)
            records.append(record)
            label = f"(m={m}, ell={prog.ell}, r={prog.r}, {config.level_model})"
            problems = []
            if record.bound_b != expect_b:
                problems.append(f"B={record.bound_b} expected {expect_b}")
            if record.max_index_checked != expect_max:
                problems.append(f"max={record.max_index_checked} expected {expect_max}")
            if record.status != "PASS":
                problems.append(f"status={record.status}")
            if problems:
                mismatches.append(f"{label}: " + "; ".join(problems))
                _progress(f"  MISMATCH {mismatches[-1]}")
            else:
                _progress(f"  ok {label}: B={record.bound_b}, max={record.max_index_checked}, PASS")

    _emit(args, _render_records(args, records))
    if mismatches:
        _progress(f"{len(mismatches)} mismatch(es)")
        return 1
    _progress("all rows match")
    return 0


_IDENTITY_DEFAULTS = {
    "ford": 500,
    "moebius": 40,
    "m1": 2000,
    "fermat": 500,
    "tau691": 300,
    "j": 40,
}


def _run_identities(args) -> int:
    # the identity checks are the only users of the moments module, so no
    # other command pays for loading it
    from .moments import (
        ORACLE_GUARD,
        fermat_congruence_check,
        first_moment_identity_check,
        ford_recursion_check,
        j_identity_check,
        moebius_identity_check,
        tau_convolution_check,
    )

    checks = _parse_str_list(args.check) or list(_IDENTITY_DEFAULTS)
    unknown = set(checks) - set(_IDENTITY_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown identity check(s): {sorted(unknown)}")
    run_check = {
        "ford": ford_recursion_check,
        "moebius": moebius_identity_check,
        "m1": lambda n: first_moment_identity_check(ensemble_by_name(args.ensemble), n),
        "fermat": fermat_congruence_check,
        "tau691": tau_convolution_check,
        "j": j_identity_check,
    }
    depths = {name: args.n if args.n is not None else _IDENTITY_DEFAULTS[name] for name in checks}
    if depths.get("moebius", 0) > ORACLE_GUARD:
        raise ValueError(f"moebius check is oracle-bound at n <= {ORACLE_GUARD}")
    deepest, budget = max(depths.values()), _coefficient_budget()
    if deepest + 1 > budget:
        raise ResourceLimitError(f"identity check of {deepest + 1} coefficients exceeds budget {budget}")
    results = []
    for name in checks:
        results.append(run_check[name](depths[name]))
        _progress(f"  {results[-1].summary()}")
    _emit(args, "".join(f"{result.summary()}\n" for result in results))
    return 0 if all(result.passed for result in results) else 1


def _parse_str_list(values: list[str] | None) -> list[str]:
    out: list[str] = []
    for chunk in values or []:
        out.extend(v.strip() for v in chunk.split(",") if v.strip())
    return out


def _run_dump_series(args) -> int:
    ensemble = ensemble_by_name(args.ensemble)
    if args.ring == "exact":
        ring = CoefficientRing.exact_integers()
    elif args.ring.startswith("mod:"):
        ring = CoefficientRing.integers_mod(int(args.ring.split(":", 1)[1]))
    else:
        raise ValueError(f"unknown ring {args.ring!r} (use exact or mod:<N>)")
    budget = _coefficient_budget()
    if args.n + 1 > budget:
        raise ResourceLimitError(f"dump of {args.n + 1} coefficients exceeds budget {budget}")
    series = companion_series(ensemble, args.n, ring)
    _emit(args, dump_series(series, ensemble.name))
    return 0


def _load_config_defaults(path: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment.  Flags override these."""
    defaults: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, _, value = line.partition("=")
            defaults[key.strip().replace("-", "_")] = value.strip()
    return defaults


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqmoments",
        description=(
            "Frequency moments of Euler-product partition ensembles: scan "
            "arithmetic progressions for congruences and certify them with "
            "half-integral Sturm bounds."
        ),
        epilog=(
            f"Weight grammar v{WEIGHT_GRAMMAR_VERSION}: "
            "[m=<int>][,twist=<kind>(<args>)|chi=<kind>(<args>)|filter=<kind>(<args>)"
            "|rule=<ensemble>], m optional for scan, rule= for certify's --ensemble only; "
            "every twist, filter and rule label a report prints parses back. "
            f"Env {MEMORY_CAP_ENV} overrides the coefficient budget "
            f"(default {DEFAULT_COEFF_BUDGET})."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="at most N worker processes; work too small to repay them runs in this process",
        )
        p.add_argument("--config", help="flat key=value config file; flags override")

    p_scan = sub.add_parser("scan", help="scan progressions for candidate congruences")
    p_scan.add_argument("--ensemble", default="ordinary")
    p_scan.add_argument("--m", action="append", help="odd weight(s), comma separated")
    p_scan.add_argument("--m-odd-max", type=int, help="scan all odd m up to this")
    p_scan.add_argument("--ell", action="append", help="prime(s), comma separated")
    p_scan.add_argument("--ell-max", type=int, help="scan all primes 5..this")
    p_scan.add_argument("--nscan", type=int, default=2000)
    p_scan.add_argument("--weight", help="weight spec; without m=, give --m or --m-odd-max")
    p_scan.add_argument(
        "--nonzero-only", action="store_true", help="skip the r = 0 residue class"
    )
    add_common(p_scan)
    p_scan.set_defaults(func=_run_scan)

    p_cert = sub.add_parser("certify", help="prove one progression up to its Sturm bound")
    p_cert.add_argument("--ensemble", default="ordinary")
    p_cert.add_argument("--m", type=int, help="odd weight")
    p_cert.add_argument("--ell", type=int, required=True)
    p_cert.add_argument("--r", type=int, required=True)
    p_cert.add_argument("--prime", type=int, required=True, help="congruence modulus")
    p_cert.add_argument("--mode", choices=(SHARP24, CONSERVATIVE12), default=CONSERVATIVE12)
    p_cert.add_argument(
        "--level", default="safe", help="natural, safe, or custom:<L> (Gamma0(4L))"
    )
    p_cert.add_argument(
        "--both-levels", action="store_true", help="run natural and safe models"
    )
    p_cert.add_argument("--weight", help="weight spec; twists switch to filtered levels")
    add_common(p_cert)
    p_cert.set_defaults(func=_run_certify)

    p_tab = sub.add_parser("tables", help="reproduce the published certification tables")
    p_tab.add_argument("--which", choices=("ordinary", "overpartition", "filtered", "all"), default="all")
    add_common(p_tab)
    p_tab.set_defaults(func=_run_tables)

    p_id = sub.add_parser("identities", help="run the classical identity checks")
    p_id.add_argument(
        "--check", action="append", help="ford, moebius, m1, fermat, tau691, j (default all)"
    )
    p_id.add_argument("--n", type=int, help="override the check depth")
    p_id.add_argument("--ensemble", default="ordinary", help="ensemble for the m1 check")
    add_common(p_id)
    p_id.set_defaults(func=_run_identities)

    p_dump = sub.add_parser("dump-series", help="dump an ensemble's companion coefficients")
    p_dump.add_argument("--ensemble", default="ordinary")
    p_dump.add_argument("--n", type=int, required=True, help="truncation order")
    p_dump.add_argument("--ring", default="exact", help="exact or mod:<N>")
    add_common(p_dump)
    p_dump.set_defaults(func=_run_dump_series)

    return parser


_BOOLEAN_FLAGS = {"nonzero_only", "both_levels"}


def _inject_config(argv: list[str]) -> list[str]:
    """Turn a --config file into flags inserted right after the subcommand.
    A key whose option the command line names is skipped, so explicit flags
    win, for append options (--m, --ell, --check) too."""
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    if config_path is None:
        return argv
    defaults = _load_config_defaults(config_path)
    named = {token.split("=", 1)[0] for token in argv if token.startswith("--")}
    injected: list[str] = []
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        if flag in named:
            continue
        if key in _BOOLEAN_FLAGS:
            if value.lower() in ("1", "true", "yes", "on"):
                injected.append(flag)
        else:
            injected.extend([flag, value])
    # index 0 is the subcommand
    return argv[:1] + injected + argv[1:]


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    if raw and not raw[0].startswith("-"):
        try:
            raw = _inject_config(raw)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    args = parser.parse_args(raw)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    _load_engine()
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
        raise AssertionError("parser.error exits")


def run(argv: list[str] | None = None) -> int:
    """Process entry point: main(), then freeze the heap so that interpreter
    shutdown does not collect the objects the command created."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
