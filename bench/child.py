"""One cold benchmark process: import nlpme, parse the configs, run them.

Started by run.py as `python3 child.py <t_spawn>`, where t_spawn is the
parent's time.monotonic() taken just before the spawn (CLOCK_MONOTONIC is
system-wide on Linux), so set-up time includes interpreter start-up.  The
JSON spec arrives on stdin; one JSON result line goes to stdout.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time


def _output_digest(outdir, man, manifest_core):
    """sha256 over the output files plus the manifest core.

    Also verifies that every file the manifest lists hashes on disk to the
    checksum the manifest records.
    """
    digest = hashlib.sha256()
    for rel in sorted(man.files):
        with open(os.path.join(outdir, rel), "rb") as f:
            on_disk = hashlib.sha256(f.read()).hexdigest()
        if on_disk != man.files[rel]:
            raise RuntimeError(f"{rel}: manifest checksum does not match the file")
        digest.update(f"{rel}={on_disk}\n".encode())
    with open(os.path.join(outdir, "manifest.txt"), encoding="utf-8") as f:
        digest.update(manifest_core(f.read()).encode())
    return digest.hexdigest()


def main() -> None:
    t_spawn = float(sys.argv[1])
    spec = json.load(sys.stdin)

    import nlpme
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(nlpme.__file__).startswith(src + os.sep):
        raise SystemExit(f"nlpme was imported from {nlpme.__file__}, not from {src}")
    from nlpme import config, experiments
    from nlpme.manifest import manifest_core  # bound before tracing: not a run span

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cfgs = [config.parse_config(text) for text in spec["configs"]]
    setup_s = time.monotonic() - t_spawn

    mark = len(tracer.spans) if tracer else 0
    runs = []
    for i, cfg in enumerate(cfgs if spec["run"] else []):
        outdir = os.path.join(spec["out"], f"{i}-{cfg.experiment}")
        start = time.perf_counter()
        man = experiments.run_experiment(cfg, outdir)
        run_s = time.perf_counter() - start
        runs.append({
            "kind": cfg.experiment,
            "run_s": run_s,
            "checks": len(man.checks),
            "checks_failed": sum(not c.passed for c in man.checks),
            "digest": _output_digest(outdir, man, manifest_core),
        })

    result = {
        "versions": {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
        "setup_s": setup_s,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["names"] = sorted(tracer.names)
        result["layers"] = tracer.summary()
        result["covered_s"] = sum(row[2] for row in tracer.summary(mark).values())
        result["counters"] = dict(tracer.counters)
        dts = sorted(tracer.dts) or [0.0]
        result["dt_min"], result["dt_median"] = dts[0], statistics.median(dts)
        with open(spec["spans_path"], "w", encoding="utf-8") as f:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                       "spans": tracer.spans}, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
