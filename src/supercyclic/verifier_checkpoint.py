"""Plain-text resumable checkpoints for long verification campaigns.

A checkpoint stores how far a campaign got through its deterministic stream
plus any violations found so far.  Resuming replays nothing: the driver
skips the already-examined prefix.  Resuming against a different campaign
or parameter set fails loudly instead of silently mixing runs.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import InputError, is_number
from .reports import machine_lines, unescape_value


class CheckpointConfig:
    __slots__ = ("path", "every")

    def __init__(self, path: str | os.PathLike, every: int = 500) -> None:
        if every < 1:
            raise InputError(f"checkpoint interval must be at least 1, "
                             f"got {every}")
        self.path = path
        self.every = every


class CheckpointState(NamedTuple):
    campaign: str
    key: str
    examined: int
    checked: int
    complete: bool
    violations: tuple[tuple[str, str, str, str], ...]  # check, graph, witness, extra


def save_checkpoint(path: str | os.PathLike, state: CheckpointState) -> None:
    pairs = [("checkpoint", "1"), ("campaign", state.campaign),
             ("key", state.key), ("examined", str(state.examined)),
             ("checked", str(state.checked)),
             ("complete", "1" if state.complete else "0"),
             ("violations", str(len(state.violations)))]
    for i, violation in enumerate(state.violations):
        pairs += [(f"violation.{i}.{name}", value) for name, value in
                  zip(("check", "graph", "witness", "extra"), violation)]
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(machine_lines(pairs))
        os.replace(tmp, path)
    except OSError as exc:
        # name the path asked for, not the temporary file beside it
        raise OSError(exc.errno, f"cannot write checkpoint: {exc.strerror}",
                      str(path)) from exc


def load_checkpoint(path: str | os.PathLike, campaign: str,
                    key: str) -> CheckpointState | None:
    """Read a checkpoint; None when the file does not exist yet.

    A file with a repeated field, or a ``complete=`` other than 0 or 1, is
    refused: no writer makes one, so it cannot say where a run stopped.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    fields: dict[str, str] = {}
    for ln in raw.splitlines():
        if not ln.strip():
            continue
        k, sep, v = ln.partition("=")
        if not sep:
            raise InputError(f"malformed checkpoint line {ln!r} in {path}")
        if k in fields:
            raise InputError(f"checkpoint {path} repeats its {k}= line")
        fields[k] = v
    if fields.get("checkpoint") != "1":
        raise InputError(f"{path} is not a checkpoint file")
    got_campaign = unescape_value(fields.get("campaign", ""))
    got_key = unescape_value(fields.get("key", ""))
    if (got_campaign, got_key) != (campaign, key):
        raise InputError(
            f"checkpoint {path} belongs to campaign {got_campaign!r} with "
            f"parameters {got_key!r}; refusing to resume {campaign!r} "
            f"with {key!r}")

    def text(name: str) -> str:
        if name not in fields:
            raise InputError(f"checkpoint {path} has no {name}= line")
        return unescape_value(fields[name])

    def count(name: str) -> int:
        value = text(name)
        if not is_number(value):
            raise InputError(f"checkpoint {path}: {name}={value!r} is not "
                             f"a nonnegative integer")
        return int(value)

    complete = text("complete")
    if complete not in ("0", "1"):
        raise InputError(f"checkpoint {path}: complete={complete!r} is not "
                         f"0 or 1")
    violations = tuple(
        (text(f"violation.{i}.check"), text(f"violation.{i}.graph"),
         text(f"violation.{i}.witness"),
         unescape_value(fields.get(f"violation.{i}.extra", "")))
        for i in range(count("violations")))
    return CheckpointState(
        campaign=campaign, key=key,
        examined=count("examined"), checked=count("checked"),
        complete=complete == "1",
        violations=violations)
