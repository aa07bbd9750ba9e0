"""sepcodes benchmark: closed-loop workloads with a correctness gate.

Usage (from the repository root):

    python3 bench/run.py --workload search --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

One process, one client, no threads.  The library is imported from
``src/`` next to this directory.  A run repeats rounds until ``--seconds``
is used up; each round imports sepcodes afresh, generates the inputs from
the seed and makes a pass over the workload's fixed op list, checking
every answer.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics computed from
the spans, plus the tracing overhead.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (environment, answer ledger, metrics, spans)
goes to ``.bench_out/<workload>-seed<seed>-trace<t>.json``.  The exit code
is non-zero on any wrong answer, and when ``src/sepcodes`` is missing.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("search", "encode", "verify")
COLD_STARTS_PER_ROUND = 6
# Time of reference_work() on the machine that defined the benchmark (2-vCPU
# x86-64 VM at 2.1 GHz, Python 3.11).  Reported times are scaled to it.
REFERENCE_SECONDS = 0.00125
TAIL_BEYOND = 10  # op_ms_tail: the highest percentile with this many samples beyond it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "proven_frac": "ratio",
    "peak_rss_mb": "MB",
}
# span name -> per-layer time metric
LAYER_TIMES = {
    "hypergraphs.min_cover": "hypergraphs.min_cover_ms",
    "hypergraphs.greedy_cover": "hypergraphs.greedy_cover_ms",
    "hypergraphs.remove_redundant": "hypergraphs.remove_redundant_ms",
    "codes.build_hypergraph": "codes.build_hypergraph_ms",
    "codes.verify_code": "codes.verify_code_ms",
    "codes.verify_code_fast": "codes.verify_code_fast_ms",
    "codes.forced_vertices": "codes.forced_vertices_ms",
    "codes.admissibility": "codes.admissibility_ms",
    "graphs.twins": "graphs.twins_ms",
    "graphs.parse_edge_list": "graphs.parse_edge_list_ms",
    "sat_reduction.parse_dimacs": "sat_reduction.parse_dimacs_ms",
    "sat_reduction.build_gadget": "sat_reduction.build_gadget_ms",
    "sat_reduction.brute_force_sat": "sat_reduction.brute_force_sat_ms",
    "cli.main": "cli.main_ms",
}
PER_LAYER = {
    **{metric: "ms" for metric in LAYER_TIMES.values()},
    "hypergraphs.nodes": "count",
    "hypergraphs.us_per_node": "us",
    "hypergraphs.budget_exhausted": "count",
    "hypergraphs.greedy_gap": "count",
    "hypergraphs.reduced_edges": "count",
    "hypergraphs.kept_ratio": "ratio",
    "codes.raw_edges": "count",
    "cli.self_ms": "ms",
    "cli.report_bytes": "bytes",
    "cli.cold_start_ms": "ms",
    "families.generate_ms": "ms",
    "trace.overhead_frac": "ratio",
}
# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("hypergraphs.nodes", "hypergraphs.budget_exhausted", "hypergraphs.greedy_gap",
                "hypergraphs.reduced_edges", "codes.raw_edges", "cli.report_bytes")


class Tracer:
    """Spans kept in memory: name, start, end, parent span id, op id."""

    def __init__(self):
        self.spans: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: dict | None = None, op: int | None = None):
        s = {"id": len(self.spans), "name": name,
             "parent": parent["id"] if parent else None,
             "op": parent["op"] if parent else op}
        self.spans.append(s)
        s["start"] = time.perf_counter()
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


# --- set-up --------------------------------------------------------------


def import_library() -> SimpleNamespace:
    """Fresh import of sepcodes from src/, so each set-up pays import time."""
    for name in [m for m in sys.modules if m == "sepcodes" or m.startswith("sepcodes.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("sepcodes")
    mods = {name: importlib.import_module(f"sepcodes.{name}")
            for name in ("codes", "hypergraphs", "graphs", "families", "sat_reduction", "cli")}
    return SimpleNamespace(**mods)


def set_up(name: str, seed: int, tmpdir: str, tiny: bool):
    """Import sepcodes afresh and generate the workload's inputs.

    Returns (library, workload, layer probe, set-up seconds, generate ms).
    """
    tracer = Tracer()
    started = time.perf_counter()
    lib = import_library()
    inp = workloads.Inputs(lib, random.Random(seed), tmpdir, tiny, tracer)
    wl = workloads.BUILDERS[name](inp)
    seconds = time.perf_counter() - started
    generate_ms = 1000 * sum(duration(s) for s in tracer.spans)
    return lib, wl, workloads.layer_probe(inp), seconds, generate_ms


# --- passes --------------------------------------------------------------


def reference_work() -> int:
    """A fixed pure-Python workload that times the machine, not the program."""
    masks = [(i * 2654435761) & 0xFFFFFFFFFFFF for i in range(1500)]
    acc = 0
    for _ in range(4):
        kept = [m for m in masks if m & 0xFF00 != 0x1200]
        for m in kept:
            acc ^= m & -m
            acc += (m >> 7).bit_count()
    return acc


def reference_seconds() -> float:
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


class Speed:
    """Scales measured times to the reference speed.

    reference_work() is timed right before and right after each measured
    call.  The scale is REFERENCE_SECONDS over the median of the last
    WINDOW such times, so one disturbed reference sample does not skew a
    measurement.  A time measured inside the call times the scale is the
    time at the reference speed, which removes most of the machine's drift.
    """

    WINDOW = 5

    def __init__(self):
        self.recent: collections.deque[float] = collections.deque(maxlen=self.WINDOW)

    def call(self, fn) -> tuple:
        """(fn(), scale)."""
        self.recent.append(reference_seconds())
        value = fn()
        self.recent.append(reference_seconds())
        return value, REFERENCE_SECONDS / statistics.median(self.recent)


class Runner:
    """Runs passes over a workload's ops and checks every answer.

    Op times are kept per label, raw and scaled to the reference speed.
    """

    def __init__(self, gate: workloads.Gate):
        self.gate = gate
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None  # ledger of the first pass
        self.speed = Speed()
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.traced_scaled: dict[str, list[float]] = {}

    def _checked(self, op, produce) -> tuple:
        """Run produce() and check its value; returns (value, ledger entry).

        Both are None when the op raised.
        """
        self.attempted += 1
        before = len(self.gate.failures)
        try:
            value = produce()
            entry = op.check(value, self.gate)
        except Exception:  # a raising op is a failed op, not a crashed benchmark
            self.gate.expect(False, op.label, traceback.format_exc(limit=3).strip())
            value, entry = None, None
        if len(self.gate.failures) > before:
            self.failed += 1
        return value, entry

    def _settle(self, wl, entries: dict) -> None:
        """Cross-check the first pass; later passes must repeat its answers."""
        if self.reference is None:
            self.reference = entries
            wl.cross_check(entries, self.gate)
            return
        for label, entry in entries.items():
            want = self.reference.get(label)
            self.gate.expect(entry == want, label, f"answer changed between passes: "
                                                   f"{entry} vs {want}")

    def untraced_pass(self, wl) -> None:
        entries = {}
        for op in wl.ops:
            def produce(op=op):
                started = time.perf_counter()
                value = op.call()
                return value, time.perf_counter() - started

            def timed(op=op):
                (value, raw), scale = self.speed.call(produce)
                self.raw.setdefault(op.label, []).append(raw)
                self.scaled.setdefault(op.label, []).append(raw * scale)
                return value

            entries[op.label] = self._checked(op, timed)[1]
        self._settle(wl, entries)

    def _traced(self, tracer: Tracer, op, op_id: int, root_name: str):
        """Run op under a root span, then its probe.

        Returns (root span seconds scaled, scale, ledger entry); the first
        two are None when the op raised.
        """
        timing = {}

        def produce():
            with tracer.span(root_name, None, op_id) as root:
                if op.replay is not None:
                    value = op.replay(tracer, root)
                else:
                    with tracer.span(op.layer, root):
                        value = op.call()
            return value, duration(root)

        def timed():
            (value, raw), timing["scale"] = self.speed.call(produce)
            timing["seconds"] = raw * timing["scale"]
            return value

        value, entry = self._checked(op, timed)
        if op.probe is not None and value is not None:
            op.probe(tracer, op_id, value)
        return timing.get("seconds"), timing.get("scale"), entry

    def traced_pass(self, wl, probe, tracer: Tracer) -> tuple[int, float]:
        """One traced pass; returns (index of its first span, median scale)."""
        first = len(tracer.spans)
        entries, scales = {}, []
        for op_id, op in enumerate(wl.ops):
            seconds, scale, entries[op.label] = self._traced(tracer, op, op_id, "op")
            if seconds is not None:
                self.traced_scaled.setdefault(op.label, []).append(seconds)
                scales.append(scale)
        for g in wl.graphs:
            workloads.twins_probe(tracer, g)
        self._traced(tracer, probe, -1, "probe")
        self._settle(wl, entries)
        return first, statistics.median(scales) if scales else 1.0


def layer_metrics(spans: list[dict], scale: float) -> dict:
    """Per-layer sums over the spans of one traced pass, times scaled."""
    out = {metric: 0.0 for metric in LAYER_TIMES.values()}
    counts = dict.fromkeys(("nodes", "exhausted", "raw_edges", "reduced_edges", "greedy_gap",
                            "report_bytes"), 0)
    cli_ms, replay_ms = {}, {}  # op id -> ms
    for s in spans:
        ms = 1000 * duration(s) * scale
        metric = LAYER_TIMES.get(s["name"])
        if metric:
            out[metric] += ms
        for key in counts:
            counts[key] += s.get(key, 0)
        if s["name"] == "cli.main":
            cli_ms[s["op"]] = ms
        elif s["name"] == "replay":
            replay_ms[s["op"]] = ms
    nodes, raw = counts["nodes"], counts["raw_edges"]
    out.update({
        "hypergraphs.nodes": nodes,
        "hypergraphs.us_per_node": 1000 * out["hypergraphs.min_cover_ms"] / nodes if nodes else 0.0,
        "hypergraphs.budget_exhausted": counts["exhausted"],
        "hypergraphs.greedy_gap": counts["greedy_gap"],
        "hypergraphs.reduced_edges": counts["reduced_edges"],
        "hypergraphs.kept_ratio": counts["reduced_edges"] / raw if raw else 0.0,
        "codes.raw_edges": raw,
        "cli.self_ms": sum(ms - replay_ms.get(op, 0.0) for op, ms in cli_ms.items()),
        "cli.report_bytes": counts["report_bytes"],
    })
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def cold_starts(lib, samples: int, gate, speed: Speed) -> list[float]:
    """Scaled wall seconds of fresh `python -m sepcodes.cli family path:4` processes."""
    env = {k: v for k, v in os.environ.items() if k not in ("SEPCODES_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    argv = [sys.executable, "-m", "sepcodes.cli", "family", "path:4", *workloads.CLI_FLAGS]
    fam = lib.families
    known = fam.formula_x_number(fam.FamilySpec(fam.Family.PATH, 4), lib.codes.CodeKind.FTD)

    def start():
        started = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=60, check=False)
        return proc, time.perf_counter() - started

    times = []
    for _ in range(samples):
        (proc, raw), scale = speed.call(start)
        times.append(raw * scale)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["known_numbers"]["FTD"] == known
        except (ValueError, KeyError):
            ok = False
        gate.expect(ok, "cold start", f"exit {proc.returncode} or wrong known_numbers")
    return times


# --- environment ---------------------------------------------------------


def commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
        "commit": commit(), "src_lines": src_lines,
    }


# --- one workload ----------------------------------------------------------


def run_workload(args) -> dict:
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return measure(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def measure(args, tmpdir: str) -> dict:
    """Rounds of set-up and pass(es) until --seconds is used up.

    Each round imports and generates afresh, so set-up (and, traced, cold
    start) samples are spread over the run like the op samples.  Every time
    is scaled to the reference speed (see Speed), and an op's time is its
    median over the rounds.
    """
    gate = workloads.Gate()
    runner = Runner(gate)
    tracer = Tracer()
    setups, generate_ms, cold, layer_passes = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        (lib, wl, probe, setup_seconds, gen_ms), scale = runner.speed.call(
            lambda: set_up(args.workload, args.seed, tmpdir, args.tiny))
        setups.append(setup_seconds * scale)
        generate_ms.append(gen_ms * scale)
        runner.untraced_pass(wl)
        if args.trace:
            first, pass_scale = runner.traced_pass(wl, probe, tracer)
            layer_passes.append(layer_metrics(tracer.spans[first:], pass_scale))
            cold.extend(cold_starts(lib, COLD_STARTS_PER_ROUND, gate, runner.speed))
        now = time.perf_counter()
        if now + (now - started) > deadline:  # the next round would overrun
            break

    op_s = {label: statistics.median(v) for label, v in runner.scaled.items()}
    reference = runner.reference or {}
    unproven = sum(1 for e in reference.values() if e is None or e.get("optimal") is False)
    fail_frac = unproven / len(wl.ops)
    tail_s, tail_pct = tail(list(op_s.values())) if op_s else (0.0, 0.0)
    record = {
        "environment": environment(args),
        "rounds": len(setups),
        "ledger": reference,
        "fail_frac": fail_frac,
        "op_ms": {label: 1000 * t for label, t in op_s.items()},
        "setup_samples_s": setups,
        "cold_start_samples_ms": [1000 * t for t in cold],
        "op_ms_tail_percentile": tail_pct,
        "op_ms_samples": len(op_s),
        "op_samples_ms": {label: [1000 * t for t in v] for label, v in runner.scaled.items()},
        "raw_op_samples_ms": {label: [1000 * t for t in v] for label, v in runner.raw.items()},
        "failures": gate.failures,
    }
    if args.trace:
        metrics = {metric: statistics.median(p[metric] for p in layer_passes)
                   for metric in layer_passes[0]}
        for metric in EXACT_COUNTS:
            values = {p[metric] for p in layer_passes}
            gate.expect(len(values) == 1, metric, f"count differs between passes: {values}")
        metrics["families.generate_ms"] = statistics.median(generate_ms)
        metrics["cli.cold_start_ms"] = 1000 * statistics.median(cold)
        traced = sum(statistics.median(v) for v in runner.traced_scaled.values())
        metrics["trace.overhead_frac"] = traced / sum(op_s.values()) - 1
        units = PER_LAYER
        t0 = tracer.spans[0]["start"]
        record["spans"] = [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                           for s in tracer.spans]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(op_s.values()),
            "op_ms_p50": 1000 * statistics.median(op_s.values()),
            "op_ms_tail": 1000 * tail_s,
            "proven_frac": 1 - fail_frac,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": not gate.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["result"] = result
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"# python {env['python']}, {env['cpu_count']} CPUs, commit {env['commit'][:12]}, "
          f"src {env['src_lines']} lines, seed {args.seed}")
    print(f"# {args.workload}: {len(wl.ops)} ops x {len(setups)} rounds, "
          f"fail_frac {fail_frac:.4f} ({unproven} not proven), "
          f"op_ms_tail = p{tail_pct:.1f} of {len(op_s)} per-op times")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:14.6f} {m['unit']}")
    for failure in gate.failures[:20]:
        print(f"FAIL {failure}")
    print(f"# record: {path.relative_to(ROOT)}")
    return result


# --- all workloads ---------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then one table."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        if proc.returncode != 0:
            results[name]["correct"] = False
    metrics = list(PER_LAYER if args.trace else END_TO_END)
    print(f"{'metric':34s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for metric in metrics:
        unit = (PER_LAYER if args.trace else END_TO_END)[metric]
        cells = "".join(f"{results[w]['metrics'].get(metric, {}).get('value', float('nan')):14.4f}"
                        for w in WORKLOADS)
        print(f"{metric:34s} {unit:6s}{cells}")
    if not args.trace:
        cells = "".join(f"{1 - results[w]['metrics'].get('proven_frac', {}).get('value', 1):14.4f}"
                        for w in WORKLOADS)
        print(f"{'fail_frac':34s} {'ratio':6s}{cells}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "sepcodes" / "__init__.py").is_file():
        print(f"error: no sepcodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
