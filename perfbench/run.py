#!/usr/bin/env python3
"""Certify-latency benchmark for copekit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exact-corpus --seed 1 --seconds 25 --trace 0

One process generates the load as a closed loop: it certifies one instance
at a time, the ``cli`` workload's processes one after another.  A run
certifies its workload's pool in passes, each pass in an order shuffled by
``--seed``, and starts another pass only while that pass is expected to end
within ``--seconds``; it always completes at least one.  Every verdict is
checked against the frozen references and every certificate must re-verify
through ``parse_certificate``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run spends half its time untraced
and half under the layer tracer, and reports the per-layer metrics and the
tracing overhead.  Earlier lines give a readable table and a ``details``
line with machine facts, sample counts and any failures.

Exit codes: 0 after a completed run (``correct`` says whether every output
checked out), 2 when the checkout holds no copekit sources or the
arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import corpus
import tracer as tracing
from speed import REFERENCE_PROBE_S, SpeedScale
from traced_cli import TRACE_PREFIX

RUN_PY = Path(__file__).resolve()
TRACED_CLI = RUN_PY.parent / "traced_cli.py"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
CLI_EXIT = {corpus.NONCONTEXTUAL: 0, corpus.CONTEXTUAL: 10, corpus.UNDETERMINED: 20}
DECIDED = (corpus.NONCONTEXTUAL, corpus.CONTEXTUAL)

END_TO_END = {
    "setup_s": "s",
    "corpus_s": "s",
    "certify_p50_ms": "ms",
    "certify_tail_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Layer sizes beyond calls/total_ms/self_ms, and the counts of guards that
# can pass through a layer.
LAYER_EXTRAS = (
    ("rational_linalg.lp_feasibility", "vars", "count"),
    ("rational_linalg.lp_feasibility", "rows", "count"),
    ("enmf_decision.decide_enmf_existence", "absence", "count"),
    ("enmf_decision.decide_enmf_existence", "guard", "count"),
    ("polytope.span_simplex_polytope", "vertices", "count"),
    ("polytope.span_simplex_polytope", "guard", "count"),
    ("polytope.extreme_rays", "guard", "count"),
    ("certify.vertex_forcing_certificate", "guard", "count"),
)

PER_LAYER = (
    {
        f"{layer}.{key}": unit
        for layer in tracing.LAYER_NAMES
        for key, unit in (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"))
    }
    | {f"{layer}.{key}": unit for layer, key, unit in LAYER_EXTRAS}
    | {"cli.overhead_ms": "ms", "trace.overhead_ms": "ms"}
)


@dataclass
class Sample:
    """One timed certification; ``speed.SpeedScale`` sets ``scale``."""

    instance: str
    raw_ms: float
    verdict: Optional[str] = None
    failure: Optional[str] = None
    cli_overhead_ms: float = 0.0
    scale: float = 1.0

    @property
    def ms(self) -> float:
        return self.raw_ms * self.scale


@dataclass
class Pass:
    samples: list
    stats: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(s.ms for s in self.samples) / 1000.0

    @property
    def raw_seconds(self) -> float:
        return sum(s.raw_ms for s in self.samples) / 1000.0

    @property
    def scale(self) -> float:
        """The pass's overall speed scale, for the layer times traced in it."""
        return self.seconds / self.raw_seconds if self.raw_seconds else 1.0


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(corpus.SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def verdict_failure(reference: dict, verdict: str, reloaded: Optional[str] = None) -> Optional[str]:
    """A decided verdict must agree with a decided reference and survive a reload."""
    expected = reference["verdict"]
    if verdict not in CLI_EXIT:
        return f"unknown verdict {verdict!r}"
    if verdict in DECIDED and expected in DECIDED and verdict != expected:
        return f"verdict {verdict} contradicts the reference {expected}"
    if reloaded is not None and reloaded != verdict:
        return f"reloaded certificate says {reloaded}, not {verdict}"
    return None


def stale_references(pool, references: dict) -> dict:
    """Instances whose frozen reference no longer describes them."""
    stale = {}
    for inst in pool:
        ref = references.get(inst.name)
        if ref is None:
            stale[inst.name] = "no frozen reference"
        elif ref.get("digest") is not None and ref["digest"] != corpus.digest(inst.matrix):
            stale[inst.name] = "instance differs from the one the reference was frozen for"
    return stale


# ---------------------------------------------------------------------------
# Runners: one certification each, timed, then checked untimed
# ---------------------------------------------------------------------------


def certify_runner(ck, tracer: Optional[tracing.Tracer]) -> Callable:
    """In-process ``certify(c)``; the certificate must survive emit and parse."""

    def run(inst, reference) -> Sample:
        start = time.perf_counter()
        cert = ck.certify(inst.matrix)
        ms = (time.perf_counter() - start) * 1000.0
        with tracer.paused() if tracer else contextlib.nullcontext():
            parsed, _ = ck.parse_certificate(ck.emit_certificate(cert, inst.matrix))
        return Sample(inst.name, ms, cert.verdict, verdict_failure(reference, cert.verdict, parsed.verdict))

    return run


def roundtrip_runner(ck, tracer: Optional[tracing.Tracer]) -> Callable:
    """emit_cope -> parse_cope -> certify -> emit_certificate -> parse_certificate."""

    def run(inst, reference) -> Sample:
        start = time.perf_counter()
        c = ck.parse_cope(ck.emit_cope(inst.matrix))
        cert = ck.certify(c)
        parsed, _ = ck.parse_certificate(ck.emit_certificate(cert, c))
        ms = (time.perf_counter() - start) * 1000.0
        return Sample(inst.name, ms, cert.verdict, verdict_failure(reference, cert.verdict, parsed.verdict))

    return run


def cli_runner(ck, tracer: Optional[tracing.Tracer]) -> Callable:
    """A cold ``python -m copekit.cli certify`` process reading the document on stdin.

    Traced runs start the CLI under ``traced_cli.py`` instead and add the
    child's layer statistics to ``tracer.stats``.
    """
    if tracer is None:
        cmd = [sys.executable, "-m", "copekit.cli", "certify"]
    else:
        cmd = [sys.executable, str(TRACED_CLI), "certify"]
    env = program_env()

    def run(inst, reference) -> Sample:
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, input=inst.document, capture_output=True, env=env,
            cwd=corpus.ROOT, timeout=CHILD_TIMEOUT_S,
        )
        ms = (time.perf_counter() - start) * 1000.0
        stderr = proc.stderr.decode(errors="replace")
        if tracer is not None:
            lines = stderr.splitlines()
            if lines and lines[-1].startswith(TRACE_PREFIX):
                tracing.add_stats(tracer.stats, json.loads(lines.pop()[len(TRACE_PREFIX):]))
            stderr = "\n".join(lines)
        try:
            cert, _ = ck.parse_certificate(proc.stdout)
        except ck.ParseError as exc:
            return Sample(inst.name, ms, None, f"exit {proc.returncode}, {exc}; stderr: {stderr[-500:]}")
        failure = verdict_failure(reference, cert.verdict)
        if failure is None and proc.returncode != CLI_EXIT[cert.verdict]:
            failure = f"exit code {proc.returncode} for verdict {cert.verdict}"
        wall_ms = json.loads(proc.stdout).get("wall_time_ms", 0.0)
        return Sample(inst.name, ms, cert.verdict, failure, cli_overhead_ms=ms - wall_ms)

    return run


RUNNERS = {
    "exact-corpus": certify_runner,
    "float-qubits": certify_runner,
    "random-exact": roundtrip_runner,
    "cli": cli_runner,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_passes(pool, references, stale, runner, rng, seconds, scale, tracer=None) -> list[Pass]:
    """Certify the pool in shuffled passes until the next pass would overrun."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        order = list(pool)
        rng.shuffle(order)
        if tracer is not None:
            tracer.reset()
        pass_start = time.perf_counter()
        samples = []
        for inst in order:
            t0 = time.perf_counter()
            if inst.name in stale:
                sample = Sample(inst.name, 0.0, None, stale[inst.name])
            else:
                try:
                    sample = runner(inst, references[inst.name])
                except Exception as exc:  # a raising instance is a failed instance
                    ms = (time.perf_counter() - t0) * 1000.0
                    detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
                    sample = Sample(inst.name, ms, None, f"raised {detail}")
            samples.append(sample)
            if scale is not None:
                scale.add(sample, t0, time.perf_counter())
        passes.append(Pass(samples, tracer.stats if tracer is not None else {}))
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            if scale is not None:
                scale.finish()
            return passes


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def measure_setup(workload: str) -> list[float]:
    """Fresh interpreter until the workload's inputs are built, several times."""
    cmd = [sys.executable, str(RUN_PY), "--setup-probe", "--workload", workload]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=program_env(), cwd=corpus.ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err.decode(errors='replace')[-500:]}")
        times.append(ready)
    return times


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of the workload process: this one, or the largest CLI child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine_facts() -> dict:
    import numpy
    import scipy

    threads = {
        name: os.environ.get(name, "unset")
        for name in ("COPEKIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    }
    cpus = os.cpu_count() or 1
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus,
        "cpu_count": cpus,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": threads,
        "copekit_threads_default": "min(4, CPUs) = %d" % min(4, cpus),
        "loadavg": list(os.getloadavg()),
    }


def end_to_end(workload: str, passes: list[Pass], setup: list[float], rss_mb: float) -> tuple[dict, dict]:
    samples = [s for p in passes for s in p.samples]
    # With every instance failed, fall back to the failed ones' times; correct is false then.
    good = sorted(s.ms for s in samples if s.failure is None) or sorted(s.ms for s in samples)
    q = corpus.TAIL_PERCENTILE[workload]
    decided = sum(1 for s in samples if s.failure is None and s.verdict in DECIDED)
    values = {
        "setup_s": statistics.median(setup),
        "corpus_s": statistics.median(p.seconds for p in passes),
        "certify_p50_ms": statistics.median(good),
        "certify_tail_ms": percentile(good, q),
        "decided_ratio": decided / len(samples),
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "tail_percentile": q,
        "tail_samples_beyond": len(good) - max(1, math.ceil(q / 100.0 * len(good))),
        "latency_samples": len(good),
        "passes": len(passes),
        "corpus_s_per_pass": [round(p.seconds, 4) for p in passes],
        "raw_corpus_s_per_pass": [round(p.raw_seconds, 4) for p in passes],
        "setup_s_each": [round(t, 4) for t in setup],
    }
    return values, extra


def per_layer(passes: list[Pass], untraced: list[Pass]) -> tuple[dict, dict]:
    values = {}
    for name in PER_LAYER:
        layer, key = name.rsplit(".", 1)
        if layer in tracing.LAYER_NAMES:
            values[name] = statistics.median(
                p.stats[layer].get(key, 0) * (p.scale if key.endswith("_ms") else 1) for p in passes
            )
    values["cli.overhead_ms"] = statistics.median(
        sum(s.cli_overhead_ms for s in p.samples) for p in untraced
    )
    traced_ms = statistics.median(p.seconds for p in passes) * 1000.0
    untraced_ms = statistics.median(p.seconds for p in untraced) * 1000.0
    values["trace.overhead_ms"] = traced_ms - untraced_ms
    extra = {
        "missing_layers": tracing.missing_layers(),
        "traced_corpus_ms": traced_ms,
        "untraced_corpus_ms": untraced_ms,
        "traced_passes": len(passes),
        "untraced_passes": len(untraced),
    }
    return values, extra


def per_instance(passes: list[Pass]) -> dict:
    by_name: dict = {}
    for p in passes:
        for s in p.samples:
            by_name.setdefault(s.instance, []).append(s)
    return {
        name: {
            "median_ms": round(statistics.median(s.ms for s in group), 3),
            "raw_median_ms": round(statistics.median(s.raw_ms for s in group), 3),
            "verdicts": sorted({str(s.verdict) for s in group}),
        }
        for name, group in sorted(by_name.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="copekit certify-latency benchmark")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        ck = corpus.load_program()
    except corpus.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pool = corpus.build(args.workload)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    references = corpus.load_references()[args.workload]
    stale = stale_references(pool, references)
    rng = random.Random(args.seed)
    make_runner = RUNNERS[args.workload]
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    # Process timings (cli) do not follow the arithmetic probe; they stay raw.
    scale = SpeedScale() if args.workload != "cli" else None
    if args.trace:
        budget = args.seconds / 2.0
        untraced = run_passes(pool, references, stale, make_runner(ck, None), rng, budget, scale)
        tracer = tracing.Tracer()
        if scale is not None:
            tracer.install()
        try:
            passes = run_passes(pool, references, stale, make_runner(ck, tracer), rng, budget, scale,
                                tracer)
        finally:
            tracer.uninstall()
        metrics, extra = per_layer(passes, untraced)
        units = PER_LAYER
        all_passes = untraced + passes
    else:
        passes = run_passes(pool, references, stale, make_runner(ck, None), rng, args.seconds, scale)
        rss_mb = peak_rss_mb(args.workload)  # before the setup probes add children
        setup = measure_setup(args.workload)
        metrics, extra = end_to_end(args.workload, passes, setup, rss_mb)
        units = END_TO_END
        all_passes = passes

    samples = [s for p in all_passes for s in p.samples]
    failures = [f"{s.instance}: {s.failure}" for s in samples if s.failure is not None]
    details.update(extra)
    details["failed_ratio"] = len(failures) / len(samples)
    details["failures"] = sorted(set(failures))[:20]
    details["instances"] = per_instance(all_passes)
    details["machine"] = machine_facts()
    if scale is not None:
        probes = [seconds for _, seconds in scale.probes]
        details["speed_probe_s"] = {
            "reference": REFERENCE_PROBE_S,
            "median": statistics.median(probes),
            "min": min(probes),
            "max": max(probes),
            "count": len(probes),
        }

    for name, value in metrics.items():
        print(f"{name:<48} {value:>14.4f} {units[name]}")
    print("details " + json.dumps(details, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
