"""Golden executions: what every bundled program does, pinned as data.

``tests/data/exec_golden.json`` holds one record per run of every
``examples/tetra/*.ttr`` file and every :data:`repro.programs.ALL_PROGRAMS`
listing (``figure1_factorial`` fed ``5`` and ``25``) on the sequential,
coop and ``SimBackend(cores=4)`` backends, each with race detection off and
on, at ``num_workers=4``.  A record keeps

* the console output, ``aborted_by`` and the rendered diagnostic;
* the race reports in order: variable, then each site's thread, access
  kind and ``line:column``;
* on the simulator, the makespans at 1 and 8 model cores and the variables
  :func:`~repro.analysis.races.replay_trace` finds in the recorded trace;
* on coop with races on, the recorded schedule's decisions (turn order,
  lock grants, parallel-for worker counts).

The fixture was recorded from the tree-walking interpreter, before the
closure compiler became the only executor and took over race detection.
Regenerate it only for a deliberate change to what a program does::

    PYTHONPATH=src python tests/test_exec_golden.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.races import replay_trace
from repro.api import run_source
from repro.errors import TetraError
from repro.programs import ALL_PROGRAMS
from repro.runtime.sim import SimBackend

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "data" / "exec_golden.json"

BACKENDS = ("sequential", "coop", "sim")

#: Programs that read stdin, and the input lines each is run with.
INPUTS = {"figure1_factorial": (["5"], ["25"])}


@functools.cache
def programs() -> dict[str, tuple[str, list[str]]]:
    """Every (source, inputs) the fixture covers, by a stable name."""
    listings = {}
    for path in sorted((ROOT / "examples" / "tetra").glob("*.ttr")):
        listings[f"examples/tetra/{path.name}"] = (
            path.stem, path.read_text(encoding="utf-8"))
    for name, text in ALL_PROGRAMS.items():
        listings[f"programs/{name}"] = (name, text)
    out = {}
    for key, (stem, text) in listings.items():
        for inputs in INPUTS.get(stem, ([],)):
            suffix = f" <{' '.join(inputs)}>" if inputs else ""
            out[key + suffix] = (text, inputs)
    return out


def _site(site) -> list:
    return [site.thread, site.kind, f"{site.span.line}:{site.span.column}"]


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode("utf-8")).hexdigest()


def _makespan(sim: SimBackend, cores: int):
    """The trace's makespan on ``cores`` model cores, or the diagnostic of
    a trace the machine cannot schedule (a lock-order deadlock)."""
    try:
        return sim.schedule(cores).makespan
    except TetraError as exc:
        return exc.message


def record(text: str, inputs: list[str], backend: str, races: bool) -> dict:
    """One run in fixture form."""
    target = SimBackend(cores=4) if backend == "sim" else backend
    recording = backend == "coop" and races
    result = run_source(text, list(inputs), backend=target, name="<golden>",
                        num_workers=4, detect_races=races,
                        record_schedule=recording, on_error="return")
    row = {
        "output": result.output,
        "aborted_by": result.aborted_by,
        "diagnostic": (result.error.render()
                       if result.error is not None else None),
        "races": [[r.variable, _site(r.first), _site(r.second)]
                  for r in result.races],
    }
    if backend == "sim":
        row["makespan_1"] = _makespan(target, 1)
        row["makespan_8"] = _makespan(target, 8)
        row["replayed_races"] = [r.variable
                                 for r in replay_trace(target.trace)]
    if recording:
        schedule = result.schedule
        # Turn lists run to tens of thousands of labels; the fixture keeps
        # their count and digest, and the small decision lists verbatim.
        row["turns"] = [len(schedule["turns"]), _digest(schedule["turns"])]
        row["lock_grants"] = [len(schedule["lock_grants"]),
                              _digest(schedule["lock_grants"])]
        row["parallel_fors"] = schedule["parallel_fors"]
    return row


def _cases() -> list[tuple[str, str, bool]]:
    return [(name, backend, races) for name in sorted(programs())
            for backend in BACKENDS for races in (False, True)]


def _key(name: str, backend: str, races: bool) -> str:
    return f"{name} | {backend} | races={'on' if races else 'off'}"


@functools.cache
def _load() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name,backend,races", _cases(),
                         ids=[_key(*case) for case in _cases()])
def test_execution_matches_golden(name, backend, races):
    text, inputs = programs()[name]
    assert record(text, inputs, backend, races) \
        == _load()[_key(name, backend, races)]


def test_fixture_covers_every_run():
    assert sorted(_load()) == sorted(_key(*case) for case in _cases())


def _write() -> None:
    golden = {}
    for name, backend, races in _cases():
        text, inputs = programs()[name]
        golden[_key(name, backend, races)] = record(text, inputs, backend,
                                                    races)
    FIXTURE.parent.mkdir(exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        # One run per line keeps diffs of the fixture reviewable.
        handle.write("{\n")
        handle.write(",\n".join(
            f"{json.dumps(key)}: {json.dumps(row, ensure_ascii=False)}"
            for key, row in golden.items()))
        handle.write("\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_exec_golden.py --write")
    _write()
