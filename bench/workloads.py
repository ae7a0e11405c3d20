"""Workload definitions: each workload is a list of nlpme INI configs.

Every workload is chosen so that one layer carries most of the run and a
change to that layer has a contrasting workload on which it should not
move anything:

stiff_density
    `simulate` at m=2, s=0.2, n=4096.  The explicit step count grows like
    n^(2(1-s)), so thousands of spectral steps dominate: the per-step cost
    of `step_density`, `cfl_dt`, `riesz_gradient` and the FFTs is
    everything.  Contrast for the mollified operator (eps = 0 never calls
    it) and for the output writers (<2% here).
mollified_chain
    `continuation` over three (eps, delta, mu) triples at n=2048.  The only
    workload that applies the dense O(n^2) mollified operator and fills its
    kernel cache, so it shows both its time and its resident memory.
verification_suite
    `integrated`, `barrier-check` and `transform-check` in one process.
    These pipelines bypass the density solver (35 density steps in total),
    so a density-solver change must leave this workload flat; it loads the
    primitive scheme, the whole-line quadrature and the FPME relaxation.
snapshot_movie
    `simulate` at n=8192 with 201 snapshots.  Same solver as stiff_density
    but the load is on storing results (CSV formatting, SVG), so it catches
    changes that speed steps but add cost per snapshot or per output file.

The benchmark seed feeds only `[experiment] seed`.  Smoke mode shrinks
every workload to n=64 and tiny horizons so the harness itself can be
exercised in seconds.
"""

from __future__ import annotations

# Each config is {section: {key: value}}; SMOKE holds per-config overrides
# applied on top in smoke mode.
WORKLOADS = {
    "stiff_density": [
        {
            "experiment": {"kind": "simulate"},
            "model": {"m": 2.0, "s": 0.2},
            "grid": {"half_length": 15.0, "n": 4096},
            "time": {"t_end": 0.5, "snapshots": 5},
            "initial": {"kind": "gaussian", "mass": 2.0, "width": 1.0},
        },
    ],
    "mollified_chain": [
        {
            "experiment": {"kind": "continuation"},
            "model": {"m": 2.0, "s": 0.5},
            "grid": {"half_length": 15.0, "n": 2048},
            "time": {"t_end": 1.0, "snapshots": 5},
            "initial": {"kind": "gaussian", "mass": 2.0, "width": 1.0},
            "continuation": {"schedule": "0.1 0.01 0.01; 0.05 0.005 0.005; "
                                         "0.025 0.0025 0.0025"},
        },
    ],
    "verification_suite": [
        {
            "experiment": {"kind": "integrated"},
            "model": {"m": 1.5, "s": 0.5},
            "grid": {"half_length": 15.0, "n": 1024},
            "time": {"t_end": 0.3, "snapshots": 5},
            "initial": {"kind": "gaussian", "mass": 2.0, "width": 1.0},
            "integrated": {"pairs": 50, "steps": 100},
        },
        {
            "experiment": {"kind": "barrier-check"},
            "model": {"m": 1.5, "s": 0.5},
            "grid": {"half_length": 15.0, "n": 1024},
            "time": {"t_end": 0.1, "snapshots": 5},
            "initial": {"kind": "bump", "mass": 2.0, "radius": 1.25,
                        "center": -2.25},
            "barrier": {"x0": -1.0, "t_probe": 0.1},
        },
        {
            "experiment": {"kind": "transform-check"},
            "grid": {"half_length": 15.0, "n": 1024},
            "initial": {"kind": "gaussian", "mass": 2.0, "width": 1.0},
            "transform": {"q": 2.0, "sigma": 0.5, "tau_end": 14.0},
        },
    ],
    "snapshot_movie": [
        {
            "experiment": {"kind": "simulate"},
            "model": {"m": 1.5, "s": 0.5},
            "grid": {"half_length": 20.0, "n": 8192},
            "time": {"t_end": 1.0, "snapshots": 201},
            "initial": {"kind": "gaussian", "mass": 2.0, "width": 1.0},
        },
    ],
}

SMOKE = {
    "stiff_density": [{"grid": {"n": 64}, "time": {"t_end": 0.05}}],
    "mollified_chain": [{"grid": {"n": 64}, "time": {"t_end": 0.1}}],
    "verification_suite": [
        {"grid": {"n": 64}, "time": {"t_end": 0.05},
         "integrated": {"pairs": 2, "steps": 5}},
        {"grid": {"n": 64}},
        {"grid": {"n": 64}, "transform": {"tau_end": 2.0}},
    ],
    "snapshot_movie": [{"grid": {"n": 64}, "time": {"t_end": 0.05,
                                                    "snapshots": 11}}],
}


def config_texts(workload: str, seed: int, smoke: bool = False) -> list:
    """INI texts of a workload's configs, in run order."""
    texts = []
    for i, sections in enumerate(WORKLOADS[workload]):
        merged = {name: dict(keys) for name, keys in sections.items()}
        merged["experiment"]["seed"] = seed
        if smoke:
            for name, keys in SMOKE[workload][i].items():
                merged.setdefault(name, {}).update(keys)
        lines = []
        for name, keys in merged.items():
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
        texts.append("\n".join(lines) + "\n")
    return texts
