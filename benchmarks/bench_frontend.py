"""Front-end phase cost: microseconds per token for each compile phase.

Every ``run_source`` call that misses the program cache — each run in a
student's edit-run loop, and each distinct request to ``tetra serve`` —
pays for the whole front end.  This benchmark splits that cost by phase
over a fixed corpus (every ``repro.programs`` listing and every
``examples/tetra/*.ttr`` file):

* **lex** — ``Scanner(source).scan()``;
* **parse** — ``parse_source`` minus its own scan;
* **check** — ``check_program`` on a fresh tree;
* **determinism** — ``determinism_info`` on a fresh checked tree;
* **closure_compile** — ``compile_program`` for a fresh interpreter.

Each phase is timed over the whole corpus, best of N rounds, and divided
by the corpus's token count, so numbers from different commits compare
directly.  ``--label`` names the run inside the JSON artifact, so one
file holds a run of the parent commit beside a run of the change::

    PYTHONPATH=src python benchmarks/bench_frontend.py --json BENCH_frontend.json --label change
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.analysis.determinism import determinism_info
from repro.interp.compile import compile_program
from repro.interp.interpreter import Interpreter
from repro.lexer.scanner import Scanner
from repro.parser import parse_source
from repro.programs import ALL_PROGRAMS
from repro.source import SourceFile
from repro.types import check_program

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("lex", "parse", "check", "determinism", "closure_compile")


def corpus() -> list[SourceFile]:
    sources = [SourceFile.from_string(text, name)
               for name, text in sorted(ALL_PROGRAMS.items())]
    for path in sorted((ROOT / "examples" / "tetra").glob("*.ttr")):
        sources.append(SourceFile.from_path(str(path)))
    return sources


def _checked(sources):
    programs = [parse_source(src) for src in sources]
    for program, src in zip(programs, sources):
        check_program(program, src)
    return programs


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(rounds: int) -> dict:
    """Best-of-``rounds`` seconds per phase over the whole corpus."""
    sources = corpus()
    tokens = sum(len(Scanner(src).scan()) for src in sources)
    best = dict.fromkeys(PHASES + ("lex_and_parse",), float("inf"))
    for _ in range(rounds):
        # The later phases annotate the tree in place, so every round
        # times them on fresh trees built outside the timed region.
        fresh = [parse_source(src) for src in sources]
        checked = _checked(sources)
        interps = [Interpreter(p, src, fast=False)
                   for p, src in zip(_checked(sources), sources)]
        times = {
            "lex": _timed(lambda: [Scanner(src).scan() for src in sources]),
            "lex_and_parse": _timed(
                lambda: [parse_source(src) for src in sources]),
            "check": _timed(lambda: [check_program(p, src) for p, src
                                     in zip(fresh, sources)]),
            "determinism": _timed(
                lambda: [determinism_info(p) for p in checked]),
            "closure_compile": _timed(
                lambda: [compile_program(i) for i in interps]),
        }
        for phase, seconds in times.items():
            best[phase] = min(best[phase], seconds)
    best["parse"] = max(0.0, best.pop("lex_and_parse") - best["lex"])
    return {"sources": len(sources), "tokens": tokens,
            "us_per_token": {phase: round(best[phase] / tokens * 1e6, 4)
                             for phase in PHASES}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer timing rounds (CI mode)")
    parser.add_argument("--json", metavar="FILE",
                        help="merge the run into this JSON artifact")
    parser.add_argument("--label", default="current",
                        help="name of this run in the artifact's 'runs'")
    args = parser.parse_args(argv)

    run = measure(rounds=3 if args.smoke else 15)
    run["mode"] = "smoke" if args.smoke else "full"
    run["python"] = platform.python_version()
    total = sum(run["us_per_token"].values())
    for phase in PHASES:
        print(f"{phase:>16}: {run['us_per_token'][phase]:8.3f} us/token")
    print(f"{'front end':>16}: {total:8.3f} us/token over {run['tokens']} "
          f"tokens in {run['sources']} sources")
    if args.json:
        payload = {"benchmark": "frontend",
                   "workload": "repro.programs listings + examples/tetra",
                   "unit": "us_per_token", "runs": {}}
        if os.path.exists(args.json):
            with open(args.json, encoding="utf-8") as handle:
                payload = json.load(handle)
        payload["machine_cores"] = os.cpu_count()
        payload["runs"][args.label] = run
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json} (run '{args.label}')")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
