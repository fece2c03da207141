import pytest


@pytest.fixture(autouse=True)
def _cache_in_tmp_path(tmp_path, monkeypatch):
    """Point the default cache directory at the test's own tmp_path.

    ``analyze``, ``prop --json`` and ``ideals --json`` read and write the
    cache unless given ``--no-cache``; without this a test run would leave
    entries under ``~/.cache/ringlab`` and one test could read another's.
    """
    monkeypatch.setenv("RINGLAB_CACHE", str(tmp_path / "ringlab-cache"))
