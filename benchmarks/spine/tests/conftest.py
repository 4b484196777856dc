"""Make the benchmark's modules and the ``repro`` package importable."""

import os
import sys

import pytest

SPINE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(SPINE))
for path in (SPINE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(autouse=True)
def private_sds_cache(tmp_path, monkeypatch):
    """Keep in-process solves off the user's persistent SDS cache."""
    monkeypatch.setenv("REPRO_SDS_CACHE_DIR", str(tmp_path / "sds-cache"))
