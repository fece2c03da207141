"""On-disk cache for analysis reports, keyed by table fingerprint and code.

Reports are deterministic functions of the ring tables and of the code that
computes them, so a hit on both can be replayed without recomputation.  The
code enters the key as ``code_version()``, a digest of the package's own
sources, so an edited predicate never reads a report an older one wrote.
The cache directory defaults to ``~/.cache/ringlab`` and can be overridden
with the RINGLAB_CACHE environment variable or the --cache flag.

Its ``index`` subdirectory maps an expression's text and size cap to the
fingerprint and name of the ring it builds.  A repeated ``analyze`` finds
its report there without building or hashing the ring, and a repeated
``prop --json`` or ``ideals --json`` prints the ring's fingerprint without
hashing its tables.  The three commands read and write the same entries.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Callable, Optional

CACHE_VERSION = "analysis v1"

_HEX64 = re.compile(r"[0-9a-f]{64}")
# a missing file, bytes that are not UTF-8 or not JSON, nesting too deep
_UNREADABLE = (OSError, ValueError, RecursionError)
_ESCAPE = json.encoder.encode_basestring_ascii


class _Unencodable(Exception):
    """A value ``_encode`` leaves to ``json.dumps``."""


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set, ``json.dumps`` always runs the pure-Python encoder,
    one generator step per token.  This writes the reports' own types (str
    keyed dicts, lists, tuples, str, int, bool, None) in one pass, an
    all-int list in one join; any other value hands the whole object to
    ``json.dumps``.
    """
    try:
        return _encode(obj, "\n")
    except (_Unencodable, TypeError):    # TypeError: unorderable keys
        return json.dumps(obj, indent=2, sort_keys=True)


def _encode(obj, newline: str) -> str:
    kind = type(obj)
    if kind is str:
        return _ESCAPE(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(obj):
            if type(key) is not str:
                raise _Unencodable
            items.append(_ESCAPE(key) + ": " + _encode(obj[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_encode(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise _Unencodable


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
        # (report, text) of the last put, so a caller printing the report
        # it just stored need not encode it again
        self._written = None

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.{code_version()}.json"

    def get(self, fingerprint: str,
            valid: Optional[Callable[[dict], bool]] = None,
            count_miss: bool = True) -> Optional[dict]:
        """The report stored under fingerprint, or None.  valid is the
        writer's check of a report's fields; an entry it rejects is a miss.
        A caller that looks the ring up again after a miss passes
        ``count_miss=False``, so that one request counts one miss."""
        path = self._path(fingerprint)
        try:
            with open(path) as f:
                report = json.load(f)
        except _UNREADABLE:
            self.misses += count_miss
            return None
        # stale versions, other rings' reports and malformed entries are
        # misses, overwritten on put
        if not (isinstance(report, dict)
                and report.get("format") == CACHE_VERSION
                and report.get("fingerprint") == fingerprint
                and (valid is None or valid(report))):
            self.misses += count_miss
            return None
        self.hits += 1
        return report

    def put(self, fingerprint: str, report: dict) -> None:
        path = self._path(fingerprint)
        text = _dumps(report) + "\n"
        self._replace(path, text)
        self._written = (report, text)
        # this ring's entries from other code versions and older releases
        self._prune(path, [self.directory / f"{fingerprint}.json",
                           *self.directory.glob(f"{fingerprint}.*.json")])

    def _text(self, report: dict) -> str:
        """report as ``put`` writes it: the text of the last put when that
        stored this very report, else encoded afresh."""
        if self._written is not None and self._written[0] is report:
            return self._written[1]
        return _dumps(report) + "\n"

    @staticmethod
    def _replace(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # a temporary file of its own per write, so concurrent writers of
        # one entry never share one; the replace is atomic
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=path.name.split(".", 1)[0] + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @staticmethod
    def _prune(path: Path, entries) -> None:
        for stale in entries:
            if stale != path:
                stale.unlink(missing_ok=True)

    # -- the expression index ---------------------------------------------
    #
    # One expression text under one size cap builds the same tables under
    # the same name whenever the code is the same, unless the expression
    # reads a file; callers (``analyze``, ``prop --json``, ``ideals
    # --json``) index only expressions that read none.  An entry holds the
    # text and cap it was made for, the ring's fingerprint and its name.

    def _index_path(self, text: str, max_order: int) -> Path:
        key = hashlib.sha256(f"{max_order}\n{text}".encode(
            errors="surrogatepass")).hexdigest()
        return self.directory / "index" / f"{key}.{code_version()}.json"

    def _index_get(self, text: str,
                   max_order: int) -> Optional[tuple[str, str]]:
        """(fingerprint, ring name) indexed for text under max_order, or
        None when the entry is missing, malformed or made for other input."""
        try:
            with open(self._index_path(text, max_order)) as f:
                entry = json.load(f)
        except _UNREADABLE:
            return None
        if not (type(entry) is dict
                and entry.keys() == {"text", "max_order", "fingerprint",
                                     "ring"}
                and entry["text"] == text
                and type(entry["max_order"]) is int
                and entry["max_order"] == max_order
                and type(entry["fingerprint"]) is str
                and _HEX64.fullmatch(entry["fingerprint"])
                and type(entry["ring"]) is str):
            return None
        return entry["fingerprint"], entry["ring"]

    def _index_put(self, text: str, max_order: int, fingerprint: str,
                   ring: str) -> None:
        path = self._index_path(text, max_order)
        self._replace(path, _dumps({"text": text, "max_order": max_order,
                                    "fingerprint": fingerprint,
                                    "ring": ring}) + "\n")
        # this key's entries from other code versions
        key = path.name.split(".", 1)[0]
        self._prune(path, path.parent.glob(f"{key}.*.json"))
