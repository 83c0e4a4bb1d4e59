"""Per-layer spans for the traced run.

The traced run calls ``freqmoments.cli.main`` in this process and wraps,
for its duration only, the public function each layer exposes, under the
name the calling module looks it up by.  Spans stay in memory until the run
ends.  No code under ``src/`` is changed, so the program itself has no
tracing; the wrappers live here and are removed when the pass ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import resource
import time
from collections import defaultdict
from pathlib import Path

SIGMA = "divisorweights.sigma"
COMPANION = "qseries.companion"
TRANSFORM = "moments.transform"
CERTIFY = "congruence.certify"
SCAN = "congruence.scan"
SERIALIZE = "congruence.serialize"
CLI = "cli"

# (calling module, name it calls, span name).  Every workload asks for JSON,
# so only the JSON renderers are wrapped.  The arith layer gets no span: its
# calls cost microseconds and fall in the congruence self time.
PATCHES = (
    ("freqmoments.congruence", "weighted_sigma_table", SIGMA),
    ("freqmoments.congruence", "companion_series", COMPANION),
    ("freqmoments.congruence", "master_transform", TRANSFORM),
    ("freqmoments.cli", "scan", SCAN),
    ("freqmoments.cli", "certify", CERTIFY),
    ("freqmoments.cli", "certify_filtered", CERTIFY),
    ("freqmoments.cli", "records_to_json", SERIALIZE),
    ("freqmoments.cli", "scan_report_to_json", SERIALIZE),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans: name, start, end, parent span, and the counts the
    layer's arguments and result give."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # The scan calls sigma, companion and transform in turn; the
        # transform's Fermat-class key needs the m and ensemble behind the
        # two series it is handed.
        self._last_sigma = (None, None)
        self._last_companion = (None, None)

    def call(self, name: str, fn, signature, args, kwargs):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        rss_before = _maxrss_kb()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["rss_growth_kb"] = _maxrss_kb() - rss_before
            self._stack.pop()
        if signature is not None:
            self._annotate(span, signature.bind(*args, **kwargs).arguments, result)
        return result

    def _annotate(self, span: dict, arg: dict, result) -> None:
        name = span["name"]
        if name == SIGMA:
            span["coeffs"] = arg["n"] + 1
            self._last_sigma = (result, arg["weight"].exponent)
        elif name == COMPANION:
            span["coeffs"] = arg["n"] + 1
            span["key"] = [arg["ensemble"].name, arg["n"], arg["ring"].modulus]
            self._last_companion = (result, arg["ensemble"].name)
        elif name == TRANSFORM:
            sigma, companion = arg["sigma"], arg["companion"]
            ell, n = sigma.ring.modulus, sigma.n_max
            m = self._last_sigma[1] if self._last_sigma[0] is sigma else None
            ens = self._last_companion[1] if self._last_companion[0] is companion else None
            span["coeffs"] = n + 1
            span["key"] = [ens, ell, n, None if m is None else m % (ell - 1)]
        elif name == CERTIFY:
            span["projected"] = result.bound_b + 1
            if result.fail_witness is not None:
                span["witness_n"] = result.fail_witness[0]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(span_name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, name: str, fn):
        annotated = name in (SIGMA, COMPANION, TRANSFORM, CERTIFY)
        signature = inspect.signature(fn) if annotated else None

        def wrapper(*args, **kwargs):
            return self.call(name, fn, signature, args, kwargs)

        return wrapper

    def run_cli(self, argv: list[str]) -> tuple[int, bytes, float]:
        """cli.main(argv) in this process under a ``cli`` span.  Returns the
        exit code, the bytes it wrote to stdout, and its wall time."""
        from freqmoments import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.call(CLI, cli.main, None, (argv,), {})
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            wall = time.perf_counter() - start
        return code, out.getvalue().encode("utf-8"), wall

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self time, calls, coefficients, distinct keys and peak-RSS growth per
    layer.  Self time is a span's duration minus its direct children's."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    agg: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "coeffs": 0, "rss_kb": 0, "keys": set()}
    )
    # witness_frac is Sigma(n_witness + 1) over Sigma(B + 1), both over FAIL
    # records only: the share of the projection a refutation needs.
    projected = fail_projected = fail_needed = 0
    for span in spans:
        a = agg[span["name"]]
        a["self_s"] += span["end"] - span["start"] - child_time[span["id"]]
        a["calls"] += 1
        a["coeffs"] += span.get("coeffs", 0)
        a["rss_kb"] += span["rss_growth_kb"]
        if "key" in span:
            a["keys"].add(tuple(span["key"]))
        if span["name"] == CERTIFY:
            projected += span["projected"]
            if "witness_n" in span:
                fail_projected += span["projected"]
                fail_needed += span["witness_n"] + 1

    def distinct(name: str) -> float:
        calls = agg[name]["calls"]
        return len(agg[name]["keys"]) / calls if calls else 0.0

    mb = 1024.0
    return {
        "qseries.companion.self_s": agg[COMPANION]["self_s"],
        "qseries.companion.calls": agg[COMPANION]["calls"],
        "qseries.companion.coeffs": agg[COMPANION]["coeffs"],
        "qseries.companion.rss_growth_mb": agg[COMPANION]["rss_kb"] / mb,
        "qseries.companion.distinct_frac": distinct(COMPANION),
        "moments.transform.self_s": agg[TRANSFORM]["self_s"],
        "moments.transform.calls": agg[TRANSFORM]["calls"],
        "moments.transform.coeffs": agg[TRANSFORM]["coeffs"],
        "moments.transform.distinct_frac": distinct(TRANSFORM),
        "divisorweights.sigma.self_s": agg[SIGMA]["self_s"],
        "divisorweights.sigma.calls": agg[SIGMA]["calls"],
        "divisorweights.sigma.coeffs": agg[SIGMA]["coeffs"],
        "congruence.certify.self_s": agg[CERTIFY]["self_s"],
        "congruence.certify.calls": agg[CERTIFY]["calls"],
        "congruence.certify.rss_growth_mb": agg[CERTIFY]["rss_kb"] / mb,
        "congruence.certify.projected": projected,
        "congruence.certify.witness_frac": (
            fail_needed / fail_projected if fail_projected else 0.0
        ),
        "congruence.scan.self_s": agg[SCAN]["self_s"],
        "congruence.serialize.self_s": agg[SERIALIZE]["self_s"],
        "cli.self_s": agg[CLI]["self_s"],
    }
