"""On-disk cache for analysis reports, keyed by table fingerprint and code.

Reports are deterministic functions of the ring tables and of the code that
computes them, so a hit on both can be replayed without recomputation.  The
code enters the key as ``code_version()``, a digest of the package's own
sources, so an edited predicate never reads a report an older one wrote.
The cache directory defaults to ``~/.cache/ringlab`` and can be overridden
with the RINGLAB_CACHE environment variable or the --cache flag.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Optional

CACHE_VERSION = "analysis v1"


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """sha256 of the package's ``*.py`` sources, taken once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        h.update(f"{path.name} {len(source)}\n".encode())
        h.update(source)
    return h.hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get("RINGLAB_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ringlab"


class ReportCache:
    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.{code_version()}.json"

    def get(self, fingerprint: str,
            valid: Optional[Callable[[dict], bool]] = None) -> Optional[dict]:
        """The report stored under fingerprint, or None.  valid is the
        writer's check of a report's fields; an entry it rejects is a miss."""
        path = self._path(fingerprint)
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        # stale versions, other rings' reports and malformed entries are
        # misses, overwritten on put
        if not (isinstance(report, dict)
                and report.get("format") == CACHE_VERSION
                and report.get("fingerprint") == fingerprint
                and (valid is None or valid(report))):
            self.misses += 1
            return None
        self.hits += 1
        return report

    def put(self, fingerprint: str, report: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(fingerprint)
        # a temporary file of its own per write, so concurrent writers of
        # one fingerprint never share one; the replace is atomic
        fd, tmp = tempfile.mkstemp(dir=self.directory,
                                   prefix=f"{fingerprint}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(report, f, indent=2, sort_keys=True)
                f.write("\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        # this ring's entries from other code versions and older releases
        for stale in [self.directory / f"{fingerprint}.json",
                      *self.directory.glob(f"{fingerprint}.*.json")]:
            if stale != path:
                stale.unlink(missing_ok=True)
