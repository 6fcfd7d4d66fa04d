"""I/O channels: where ``print`` goes and where ``read_*`` come from.

The paper's IDE directs "program input and output ... to a console pane";
headless tooling and tests need the same indirection.  An
:class:`IOChannel` is shared by every thread of a program, so writes are
serialized — one ``print`` call emits one atomic chunk even when eight
threads print at once (interleaving *between* calls is still real and
observable, which is the teachable part).

Every channel also meters what the program writes: ``output_limit`` caps
the run at that many characters of output and aborts it with an
*uncatchable* :class:`~repro.errors.TetraLimitError` (``limit="output"``)
when exceeded.  Without the cap a ``while``-loop of ``print`` grows a
:class:`CapturingIO`'s chunk buffer without bound — invisible to the
value-heap :class:`~repro.resilience.guard.HeapMeter`, which only counts
container cells — an OOM vector for any hosted run.  When only
``memory_limit`` is configured the interpreter derives a proportional
output cap, so a memory-limited run is bounded on both fronts.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from typing import Iterable

from ..errors import TetraIOError, TetraLimitError
from ..source import NO_SPAN, Span


class IOChannel:
    """Abstract console: a byte sink and a line source."""

    #: Abort the run after this many characters of output (0 = unlimited).
    output_limit: int = 0
    #: Characters the program has written so far (all channels meter).
    chars_written: int = 0

    def write(self, text: str) -> None:
        raise NotImplementedError

    def read_line(self, span: Span = NO_SPAN) -> str:
        raise NotImplementedError

    def set_output_limit(self, limit: int) -> None:
        """Arm (or tighten — never loosen) the output cap."""
        limit = int(limit)
        if limit and (not self.output_limit or limit < self.output_limit):
            self.output_limit = limit

    def _meter(self, text: str) -> bool:
        """Account one write; True when the cap is now exceeded.

        Call with the channel's write lock held — the chunk is recorded
        *before* the overflow raises so partial output survives the abort
        (``on_error="return"`` reports it).
        """
        self.chars_written += len(text)
        return bool(self.output_limit) \
            and self.chars_written > self.output_limit

    def _overflow(self) -> None:
        raise TetraLimitError(
            f"the program produced more than {self.output_limit} "
            "characters of output (an unbounded print loop?) — raise the "
            "cap with --output-limit or RuntimeConfig(output_limit=...)",
            limit="output",
        )


class StandardIO(IOChannel):
    """Real stdin/stdout (the ``tetra run`` command-line driver)."""

    def __init__(self, output_limit: int = 0) -> None:
        self._write_lock = threading.Lock()
        self.output_limit = int(output_limit)
        self.chars_written = 0

    def write(self, text: str) -> None:
        with self._write_lock:
            sys.stdout.write(text)
            sys.stdout.flush()
            over = self._meter(text)
        if over:
            self._overflow()

    def read_line(self, span: Span = NO_SPAN) -> str:
        line = sys.stdin.readline()
        if line == "":
            raise TetraIOError("end of input while reading", span)
        return line.rstrip("\n")


class CapturingIO(IOChannel):
    """In-memory console for tests, the IDE pane, and embedded use.

    ``inputs`` pre-loads the lines ``read_*`` builtins will consume;
    :attr:`output` accumulates everything printed, and :meth:`lines` splits
    it for assertions.
    """

    def __init__(self, inputs: Iterable[str] = (), output_limit: int = 0):
        self._write_lock = threading.Lock()
        self._chunks: list[str] = []
        self._inputs: deque[str] = deque(inputs)
        self.output_limit = int(output_limit)
        self.chars_written = 0
        #: Every line ``read_line`` handed to the program, in order — a
        #: recorded schedule's ``inputs``, so its replay re-feeds them.
        self.consumed: list[str] = []

    def write(self, text: str) -> None:
        with self._write_lock:
            self._chunks.append(text)
            over = self._meter(text)
        if over:
            self._overflow()

    def read_line(self, span: Span = NO_SPAN) -> str:
        try:
            line = self._inputs.popleft()
        except IndexError:
            raise TetraIOError(
                "the program asked for input but none was provided", span
            ) from None
        self.consumed.append(line)
        return line

    def push_input(self, line: str) -> None:
        self._inputs.append(line)

    @property
    def output(self) -> str:
        with self._write_lock:
            return "".join(self._chunks)

    def lines(self) -> list[str]:
        text = self.output
        if text.endswith("\n"):
            text = text[:-1]
        return text.split("\n") if text else []

    def clear(self) -> None:
        with self._write_lock:
            self._chunks.clear()


class TeeIO(CapturingIO):
    """A :class:`CapturingIO` that stays interactive.

    Writes echo to real stdout as they happen and ``read_line`` falls back
    to real stdin when no pre-loaded input remains.  ``tetra run
    --record-schedule`` uses this so the schedule artifact can embed the
    run's exact output and inputs while the program still talks to the
    console.
    """

    def write(self, text: str) -> None:
        with self._write_lock:
            self._chunks.append(text)
            sys.stdout.write(text)
            sys.stdout.flush()
            over = self._meter(text)
        if over:
            self._overflow()

    def read_line(self, span: Span = NO_SPAN) -> str:
        try:
            line = self._inputs.popleft()
        except IndexError:
            raw = sys.stdin.readline()
            if raw == "":
                raise TetraIOError("end of input while reading",
                                   span) from None
            line = raw.rstrip("\n")
        self.consumed.append(line)
        return line
