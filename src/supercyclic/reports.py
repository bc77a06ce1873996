"""Small report records shared by the decision procedures.

Machine-readable serializations are line-oriented ``key=value`` text.  Values
are escaped so a record never contains a raw newline, which lets reports and
witness graphs travel through the same one-record-per-block streams as the
graph format.
"""

from __future__ import annotations

from typing import NamedTuple

from .bigraph import VertexSet


def escape_value(s: str) -> str:
    return s.replace("\\", "\\\\").replace("\n", "\\n")


def unescape_value(s: str) -> str:
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "\\" and i + 1 < len(s):
            nxt = s[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def machine_lines(pairs: list[tuple[str, str]]) -> str:
    return "\n".join(f"{k}={escape_value(v)}" for k, v in pairs) + "\n"


class CheckReport(NamedTuple):
    """Outcome of a single boolean check on a single graph.

    ``witness`` carries the vertex set that exhibits a failure when one
    exists; ``approximate`` marks checks that are necessary but not
    sufficient (currently only the one-deletion Y-minimality mode).
    """

    check: str
    passed: bool
    witness: VertexSet | None = None
    detail: str = ""
    approximate: bool = False

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        parts = [f"{self.check}: {verdict}"]
        if self.witness is not None:
            parts.append(f"witness {self.witness}")
        if self.detail:
            parts.append(self.detail)
        if self.approximate:
            parts.append("(approximate)")
        return "; ".join(parts)
