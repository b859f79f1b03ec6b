"""The native kernel's build-on-import loader and its numpy fallback."""

import logging
import threading

import numpy as np
import pytest

from repro import SketchConfig, SketchSession, _kernels


def test_native_kernel_loaded():
    """The kernel must build and load here: an unbuilt kernel is a failure."""
    assert _kernels.KERNEL is not None
    assert _kernels.backend() == "native"


def test_library_is_built_once_and_reused(tmp_path):
    path = _kernels.build(cache_dir=tmp_path)
    assert path.parent == tmp_path and path.exists()
    stamp = path.stat().st_mtime_ns
    assert _kernels.build(cache_dir=tmp_path) == path
    assert path.stat().st_mtime_ns == stamp
    assert _kernels.load(cache_dir=tmp_path) is not None


def test_concurrent_first_builds_publish_one_library(tmp_path):
    paths, errors = [], []

    def build():
        try:
            paths.append(_kernels.build(cache_dir=tmp_path))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(set(paths)) == 1
    assert [p.name for p in tmp_path.iterdir()] == [paths[0].name]


@pytest.mark.parametrize("broken", ["missing compiler", "unwritable cache"])
def test_fallback_warns_once_and_numpy_still_answers(broken, tmp_path, caplog,
                                                    monkeypatch):
    if broken == "missing compiler":
        options = dict(compiler=str(tmp_path / "no-such-cc"), cache_dir=tmp_path)
    else:
        # a cache directory under a regular file cannot be created, even by root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        options = dict(cache_dir=blocker / "cache")
    with caplog.at_level(logging.WARNING, logger="repro.kernels"):
        kernel = _kernels.load(**options)
    assert kernel is None
    warnings = [r for r in caplog.records if r.name == "repro.kernels"]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    assert "numpy" in warnings[0].getMessage()

    monkeypatch.setattr(_kernels, "KERNEL", kernel)
    assert _kernels.backend() == "numpy"
    session = SketchSession.from_config(
        SketchConfig("count_min", dimension=None, width=64, depth=3, seed=1)
    )
    session.ingest(np.array([5, 5, 2**40]))
    assert session.query(kind="point", index=5) >= 2.0
