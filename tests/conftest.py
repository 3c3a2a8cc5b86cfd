"""Session-scoped Ray fixture — ONE ray.init per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    _join_ray_data_threads(timeout_s=10.0)
    ray.shutdown()


def _join_ray_data_threads(timeout_s: float) -> None:
    """Wait, up to ``timeout_s`` in total, for Ray Data's batch
    threads (``map_tp_*``) to finish.  A stream abandoned by a test
    (``take``, ``limit``) leaves one running; if it touches the core
    worker after ``ray.shutdown()``, the process aborts with exit 1
    after every test has passed."""
    import threading
    import time

    deadline = time.monotonic() + timeout_s
    for t in threading.enumerate():
        if t.name.startswith("map_tp_") and t is not threading.current_thread():
            t.join(max(0.0, deadline - time.monotonic()))
