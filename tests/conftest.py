"""Shared fixtures and helpers for the Tetra test suite."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.api import run_source


def run(text: str, inputs: list[str] | None = None, backend="thread",
        config=None, **kwargs):
    """Run dedented Tetra source and return its output lines."""
    result = run_source(textwrap.dedent(text), inputs=inputs,
                        backend=backend, config=config, **kwargs)
    return result.output_lines()


def run_output(text: str, inputs: list[str] | None = None, backend="thread",
               config=None, **kwargs) -> str:
    """Run dedented Tetra source and return raw output."""
    return run_source(textwrap.dedent(text), inputs=inputs, backend=backend,
                      config=config, **kwargs).output


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(tmp_path, text: str, *args: str, timeout: float = 30):
    """``tetra run`` of dedented Tetra source in a fresh process, killed
    after ``timeout`` seconds (so a hang fails instead of stalling the
    suite); returns the completed process."""
    path = tmp_path / "prog.ttr"
    path.write_text(textwrap.dedent(text).lstrip("\n"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro.tools.cli", "run", *args, path.name],
        capture_output=True, text=True, timeout=timeout, env=env,
        cwd=tmp_path)


@pytest.fixture(autouse=True, scope="session")
def private_native_cache(tmp_path_factory):
    """Build the suite's native artifacts in a temporary cache, never in
    the developer's ``~/.cache/tetra/native`` (whose LRU cap the suite
    would otherwise fill, evicting the developer's own artifacts)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TETRA_NATIVE_CACHE",
                     str(tmp_path_factory.mktemp("native-cache")))
        yield


@pytest.fixture(params=["thread", "sequential", "coop", "sim"])
def any_backend(request):
    """Parameterizes a test over every execution backend."""
    return request.param
