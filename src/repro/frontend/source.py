"""Source text handling: locations, spans and snippet rendering.

Both the Lime frontend and the OpenCL-C frontend attach a
:class:`Location` to every token and AST node so that diagnostics across
the whole toolchain read uniformly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass


@dataclass(frozen=True)
class Location:
    """A point in a source file (1-based line and column)."""

    filename: str
    line: int
    column: int

    def __str__(self):
        return "{}:{}:{}".format(self.filename, self.line, self.column)


@dataclass(frozen=True)
class Span:
    """A contiguous region of source text, from ``start`` to ``end``."""

    start: Location
    end: Location

    def __str__(self):
        return str(self.start)


class SourceFile:
    """A named piece of source text with line-oriented access.

    Used by the lexers to map offsets to :class:`Location` objects and by
    diagnostic rendering to show the offending line.
    """

    def __init__(self, text, filename="<lime>"):
        self.text = text
        self.filename = filename
        # The offset at which each line begins, first line first.
        self.line_starts = self._compute_line_starts(text)

    @staticmethod
    def _compute_line_starts(text):
        starts = [0]
        index = text.find("\n")
        while index >= 0:
            starts.append(index + 1)
            index = text.find("\n", index + 1)
        return starts

    def location(self, offset):
        """Return the :class:`Location` of a character ``offset``."""
        if offset < 0 or offset > len(self.text):
            raise ValueError("offset {} out of range".format(offset))
        line = bisect.bisect_right(self.line_starts, offset) - 1
        column = offset - self.line_starts[line] + 1
        return Location(self.filename, line + 1, column)

    def line_text(self, line):
        """Return the text of a 1-based ``line`` without its newline."""
        if line < 1 or line > len(self.line_starts):
            raise ValueError("line {} out of range".format(line))
        start = self.line_starts[line - 1]
        if line == len(self.line_starts):
            end = len(self.text)
        else:
            end = self.line_starts[line] - 1
        return self.text[start:end]

    def snippet(self, location, marker="^"):
        """Render a two-line caret snippet for ``location``."""
        line_text = self.line_text(location.line)
        caret = " " * (location.column - 1) + marker
        return "{}\n{}".format(line_text, caret)
