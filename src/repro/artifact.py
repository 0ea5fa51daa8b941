"""One loader, one diagnostic: uniform artifact-file error handling.

Every persisted artifact family the repository reads back — attack
certificates and world logs — used to hand-roll its own malformed-file
handling, each with a slightly different message shape.  This module
is the single chokepoint: a loader names the *kind* of artifact it
expects and supplies a parser; any parse failure becomes one
:class:`~repro.errors.ArtifactError` with the uniform one-liner

    ``<path>:<line>: not a <kind> (<ExcType>: <detail>)``

(line-oriented artifacts: the world-log readers and the job recovery
fold pass the line number to :func:`artifact_error`) or
``<path>: not a <kind> (...)`` (whole-document artifacts, through
:func:`load_artifact`).  The CLI
maps :class:`ArtifactError` to exit 2 — the file exists but is not the
artifact it claims to be, an environment failure, never a domain
verdict.

>>> print(artifact_error("run.worldlog", "world-log record",
...                      ValueError("bad"), line=3))
run.worldlog:3: not a world-log record (ValueError: bad)
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.errors import ArtifactError, ReproError

T = TypeVar("T")

_PARSE_FAILURES = (ValueError, KeyError, TypeError, RecursionError, ReproError)
"""What a parser may raise for malformed content (``json.JSONDecodeError``
is a ``ValueError``; JSON nested past the interpreter's recursion limit
raises ``RecursionError``).  Anything else is a bug and propagates."""


def artifact_error(
    path: str,
    kind: str,
    error: BaseException,
    line: int | None = None,
) -> ArtifactError:
    """The uniform malformed-artifact diagnostic, ready to raise."""
    location = f"{path}:{line}" if line is not None else path
    article = "an" if kind[:1].lower() in "aeiou" else "a"
    return ArtifactError(
        f"{location}: not {article} {kind} "
        f"({type(error).__name__}: {error})"
    )


def load_artifact(
    path: str,
    kind: str,
    parse: Callable[[str], T],
) -> T:
    """Parse a whole-document artifact with the uniform diagnostic.

    Args:
        path: the artifact file.
        kind: the human name of the expected document
            (``"attack certificate"``, ...).
        parse: ``text -> document``; parse failures become the canonical
            :class:`ArtifactError` one-liner.

    Raises:
        ArtifactError: when the document does not parse (CLI exit 2).
        OSError: if the file cannot be read.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            # bytes that are not UTF-8 fail here, as a ValueError
            return parse(handle.read())
        except _PARSE_FAILURES as exc:
            raise artifact_error(path, kind, exc) from exc
