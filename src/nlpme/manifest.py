"""Run manifests: check verdicts, file checksums, config echo.

The verdicts are :class:`diagnostics.CheckResult`s, the type the check
battery returns, so a pipeline writes them as it gets them.

Each output file is checksummed as it is written, read back in 1 MiB
chunks, so no file is held in memory whole.  The manifest is written
atomically (temp file + rename) after all other outputs exist.
Timestamp-like and provenance lines (the wall clock, the python, numpy
and scipy versions) are `#`-prefixed so determinism comparisons can
strip them: two runs of the same config must agree on every non-comment
line.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy
# Only the top-level package (~10 ms), for its version: no scipy subpackage
# loads at import.  bench/child.py also reads sys.modules["scipy"], so a
# run that never imported scipy would fail there with a KeyError.
import scipy

from .diagnostics import CheckResult

__all__ = ["CheckResult", "RunManifest", "write_manifest", "manifest_core"]

VERSION = "0.1.0"
MANIFEST_NAME = "manifest.txt"
CHUNK = 1 << 20  # bytes read per sha256 update


@dataclass
class RunManifest:
    experiment: str
    config_text: str
    checks: list = field(default_factory=list)
    files: dict = field(default_factory=dict)  # relpath -> sha256
    wall_clock: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_file(self, outdir, relpath) -> None:
        digest = hashlib.sha256()
        with open(os.path.join(outdir, relpath), "rb") as f:
            while chunk := f.read(CHUNK):
                digest.update(chunk)
        self.files[relpath] = digest.hexdigest()


def _render(man: RunManifest) -> str:
    lines = ["# nlpme run manifest", f"# wall_clock_seconds: {man.wall_clock:.3f}",
             f"# versions: python {sys.version.split()[0]}, "
             f"numpy {numpy.__version__}, scipy {scipy.__version__}"]
    lines.append(f"experiment = {man.experiment}")
    lines.append(f"version = {VERSION}")
    lines.append(f"all_passed = {str(man.all_passed).lower()}")
    for c in man.checks:
        status = "PASS" if c.passed else "FAIL"
        detail = f"  # {c.detail}" if c.detail else ""
        lines.append(f"check {c.name} = {status} value={c.value:.9g}{detail}")
    for relpath in sorted(man.files):
        lines.append(f"file {relpath} = sha256:{man.files[relpath]}")
    lines.append("config:")
    for ln in man.config_text.splitlines():
        lines.append("    " + ln)
    return "\n".join(lines) + "\n"


def write_manifest(man: RunManifest, outdir) -> str:
    """Atomic write: the manifest only appears once fully written."""
    path = os.path.join(outdir, MANIFEST_NAME)
    fd, tmp = tempfile.mkstemp(dir=outdir, prefix=".manifest-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(_render(man))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def manifest_core(text: str) -> str:
    """Manifest content with comment (timestamp) lines stripped."""
    return "\n".join(
        ln for ln in text.splitlines() if not ln.lstrip().startswith("#")
    )
