import pytest

from sbt_lab import autodiff as ad


@pytest.fixture(autouse=True)
def _restore_fork_width():
    """cli.run reads SBT_LAB_THREADS into the process's fork-join width;
    each test gets back the width it started with."""
    saved = ad._process_width
    yield
    ad._process_width = saved
