"""Benchmark driver for nlpme.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Runs from the root of a source checkout (the directory holding
BENCHMARK.json and src/nlpme).  Each workload (see workloads.py) runs as a
closed loop with one client: every sample is a fresh Python process
(child.py) that imports nlpme from src/, parses the workload's configs and
times `nlpme.experiments.run_experiment` on each, so module caches start
cold as they do for a CLI user.  One untimed warm-up process compiles the
bytecode first; then processes are started back to back until --seconds
have passed.  BLAS/OpenMP threads are pinned to 1 in every child.

--trace 0 reports BENCHMARK.json's end_to_end metrics, measured with
tracing off.  --trace 1 alternates untraced and traced processes and
reports its per_layer metrics: in a traced process tracer.py wraps each
layer's public functions from outside and records spans.

Output checks, folded into the result's `correct` and `failed`: every
manifest check passes; every file the manifest lists matches its checksum;
the output files plus the manifest core are byte-identical to the first
run of the same source tree, workload and seed (reference digests are kept
under .bench_run/ref); and in traced runs every call count and counter
repeats exactly.  --smoke shrinks every workload to n=64 so the harness
can be exercised in seconds (test_bench.py).

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0  # the whole run, the last process's timeout included


def median(values):
    return statistics.median(values) if values else 0.0


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


class Runner:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, configs, outdir: Path, spans_path: Path, deadline: float):
        self.configs = configs
        self.outdir = outdir
        self.spans_path = spans_path
        self.deadline = deadline
        self.timed_out = False
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env.update({var: str(THREADS) for var in THREAD_VARS})

    def spawn(self, trace: bool, run: bool = True):
        """One fresh process; its result dict, or None if it failed."""
        spec = {"src": str(ROOT / "src"), "configs": self.configs, "run": run,
                "trace": trace, "out": str(self.outdir),
                "spans_path": str(self.spans_path)}
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), repr(t_spawn)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=ROOT, env=self.env, text=True)
        try:
            out, err = proc.communicate(json.dumps(spec),
                                        timeout=max(self.deadline - t_spawn, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.timed_out = True
            print("child process timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(self.outdir, ignore_errors=True)
        if proc.returncode != 0 or not out.strip():
            print(f"child process failed (exit {proc.returncode}):\n{err[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads(out.strip().splitlines()[-1])


def counts_of(sample: dict) -> dict:
    counts = {f"{name}.calls": row[0] for name, row in sample["layers"].items()}
    counts.update(sample["counters"])
    return counts


def tail_line(name: str, values: list, unit: str) -> str:
    """Median, quartiles and the highest percentile with >= 10 samples above."""
    vals = sorted(values)
    n = len(vals)
    line = f"{name}: median {median(vals):.6g} {unit}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        line += f", quartiles {q1:.6g}..{q3:.6g}"
    if n > 10:
        rank = n - 10
        line += f", p{100.0 * rank / n:.0f} {vals[rank - 1]:.6g}"
    else:
        line += ", no percentile with 10 samples above it"
    return line + f" (n={n})"


def layer_metric(name, traced, untraced, known_kinds):
    """Value of one per_layer metric from the traced and untraced samples."""
    first = traced[0]
    if name == "trace.overhead_s":
        return (median([sum(r["run_s"] for r in s["runs"]) for s in traced])
                - median([sum(r["run_s"] for r in s["runs"]) for s in untraced]))
    if name == "trace.coverage":
        return median([s["covered_s"] / sum(r["run_s"] for r in s["runs"])
                       for s in traced])
    if name in ("evolve.dt_min", "evolve.dt_median"):
        return first[name.replace("evolve.", "")]
    if name in first["counters"]:
        return first["counters"][name]
    prefix, stat = name.rsplit(".", 1)
    if prefix.startswith("experiments.") and stat == "run_s":
        kind = prefix.split(".", 1)[1]
        if kind not in known_kinds:
            raise KeyError(name)
        return median([sum(r["run_s"] for r in s["runs"] if r["kind"] == kind)
                       for s in untraced])
    if prefix not in first["names"] or stat not in ("calls", "self_s", "us_per_call"):
        raise KeyError(name)
    rows = [s["layers"].get(prefix, [0, 0.0, 0.0]) for s in traced]
    if stat == "calls":
        return rows[0][0]
    if stat == "self_s":
        return median([row[2] for row in rows])
    return median([row[1] / row[0] * 1e6 if row[0] else 0.0 for row in rows])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="n=64 and tiny horizons, to exercise the harness")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "nlpme" / "__init__.py").is_file():
        print(f"no nlpme sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    configs = workloads.config_texts(args.workload, args.seed, args.smoke)
    (WORK / "ref").mkdir(parents=True, exist_ok=True)
    # reference outputs and counts of this source tree and these configs
    src_sha256 = src_digest()
    key = hashlib.sha256((src_sha256 + json.dumps(configs)).encode()).hexdigest()
    ref_path = WORK / "ref" / f"{tag}-{key[:16]}.json"
    start = time.monotonic()
    runner = Runner(configs, WORK / f"out-{tag}", WORK / f"spans-{tag}.json",
                    start + DEADLINE_S)

    warm = runner.spawn(trace=False, run=False)
    if warm is None:
        return 1
    untraced, traced = [], []
    t0 = time.monotonic()
    while True:
        untraced.append(runner.spawn(trace=False))
        if args.trace:
            traced.append(runner.spawn(trace=True))
        if runner.timed_out or time.monotonic() - t0 >= args.seconds:
            break

    samples = untraced + traced
    ok = [s for s in samples if s is not None]
    if not ok or (args.trace and not any(traced)):
        print("no process completed", file=sys.stderr)
        return 1

    # checks and byte identity, per experiment run
    checks_per_run = [r["checks"] for r in ok[0]["runs"]]
    ref = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    ref.setdefault("digests", [r["digest"] for r in ok[0]["runs"]])
    runs_attempted = len(samples) * len(configs)
    runs_failed = checks = checks_failed = mismatched = 0
    for s in samples:
        if s is None:
            runs_failed += len(configs)
            mismatched += len(configs)
            checks += sum(checks_per_run)
            checks_failed += sum(checks_per_run)
            continue
        for r, digest in zip(s["runs"], ref["digests"]):
            differs = r["digest"] != digest
            checks += r["checks"]
            checks_failed += r["checks_failed"]
            mismatched += differs
            runs_failed += bool(r["checks_failed"] or differs)
    checks_failed_share = checks_failed / max(checks, 1)
    output_mismatch = mismatched / runs_attempted

    counts_repeat = True
    traced_ok = [s for s in traced if s is not None]
    if traced_ok:
        ref.setdefault("counts", counts_of(traced_ok[0]))
        counts_repeat = all(counts_of(s) == ref["counts"] for s in traced_ok)
    ref_path.write_text(json.dumps(ref, indent=1, sort_keys=True))

    env = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
           "commit": commit(), "src_sha256": src_sha256, **warm["versions"],
           **cpu_info(), "threads": THREADS,
           "thread_env": {var: runner.env[var] for var in THREAD_VARS}}
    print("env " + json.dumps(env, sort_keys=True))
    good = [s for s in untraced if s is not None]
    totals = [sum(r["run_s"] for r in s["runs"]) for s in good]
    print(tail_line("run_s", totals, "s"))
    print(tail_line("setup_s", [s["setup_s"] for s in good], "s"))
    for cfg_runs in zip(*(s["runs"] for s in good)):
        print(tail_line(f"experiments.{cfg_runs[0]['kind']}.run_s",
                        [r["run_s"] for r in cfg_runs], "s"))
    print(f"checks_failed: {checks_failed_share:.6g} ({checks_failed} of {checks} checks)")
    print(f"output_mismatch: {output_mismatch:.6g} ({mismatched} of {runs_attempted} runs)")
    if traced_ok:
        print(f"exact_counts: {'repeat' if counts_repeat else 'DIFFER'} "
              f"over {len(traced_ok)} traced processes")
        layers = sorted(traced_ok[0]["layers"].items(), key=lambda kv: -kv[1][2])
        for name, (calls, incl, self_s) in layers:
            print(f"  {name:<45} calls {calls:>8}  self_s {self_s:.4f}  "
                  f"incl_s {incl:.4f}")

    metrics = {}
    try:
        if args.trace:
            kinds = {c["experiment"]["kind"] for cs in workloads.WORKLOADS.values()
                     for c in cs}
            for m in spec["per_layer"]:
                metrics[m["name"]] = {
                    "value": layer_metric(m["name"], traced_ok, good, kinds),
                    "unit": m["unit"]}
        else:
            values = {"setup_s": median([s["setup_s"] for s in good]),
                      "run_s": median(totals),
                      "peak_rss_mb": median([s["peak_rss_mb"] for s in good])}
            for m in spec["end_to_end"]:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    except KeyError as exc:
        print(f"BENCHMARK.json names a metric this benchmark cannot measure: {exc}",
              file=sys.stderr)
        return 1

    correct = (runs_failed == 0 and checks_failed == 0 and mismatched == 0
               and counts_repeat)
    print(json.dumps({"correct": correct, "attempted": runs_attempted,
                      "failed": runs_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
