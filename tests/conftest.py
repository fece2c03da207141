import pytest

from ringlab import core


@pytest.fixture(autouse=True)
def _cache_in_tmp_path(tmp_path, monkeypatch):
    """Point the default cache directory at the test's own tmp_path.

    ``analyze``, ``prop --json`` and ``ideals --json`` read and write the
    cache unless given ``--no-cache``; without this a test run would leave
    entries under ``~/.cache/ringlab`` and one test could read another's.
    """
    monkeypatch.setenv("RINGLAB_CACHE", str(tmp_path / "ringlab-cache"))


def _serial_fingerprint(R):
    """The digest of R's tables, hashed from a fresh copy that shares
    nothing with R."""
    S = core.FiniteRing(R.add.copy(), R.mul.copy(), R.zero, R.one)
    core._memoize_fingerprint(S)
    return S._fingerprint


@pytest.fixture
def serial_fingerprint():
    """The oracle for a printed fingerprint: R -> the digest of a fresh
    copy of R's tables."""
    return _serial_fingerprint
