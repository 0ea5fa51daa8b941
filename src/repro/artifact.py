"""One loader, one diagnostic: uniform artifact-file error handling.

Every persisted artifact family the repository reads back — run-ledger
JSONL files, attack certificates, world logs — used to hand-roll its
own malformed-file handling, each with a slightly different message
shape.  This module is the single chokepoint: a loader names the *kind*
of artifact it expects and supplies a parser; any parse failure becomes
one :class:`~repro.errors.ArtifactError` with the uniform one-liner

    ``<path>:<line>: not a <kind> (<ExcType>: <detail>)``

(line-oriented artifacts) or ``<path>: not a <kind> (...)`` (whole-
document artifacts).  The CLI maps :class:`ArtifactError` to exit 2 —
the file exists but is not the artifact it claims to be, an environment
failure, never a domain verdict.

>>> import tempfile, os
>>> with tempfile.TemporaryDirectory() as d:
...     path = os.path.join(d, "garbage.jsonl")
...     _ = open(path, "w").write("this is not json\\n")
...     try:
...         load_artifact_lines(path, "ledger event", __import__("json").loads)
...     except Exception as e:
...         print(type(e).__name__, ":1: not a ledger event" in str(e))
ArtifactError True
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

from repro.errors import ArtifactError, ReproError

T = TypeVar("T")

_PARSE_FAILURES = (ValueError, KeyError, TypeError, ReproError)
"""What a parser may raise for malformed content (``json.JSONDecodeError``
is a ``ValueError``).  Anything else is a bug and propagates."""


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


def load_artifact_lines(
    path: str,
    kind: str,
    parse: Callable[[str], T],
) -> list[T]:
    """Parse a line-oriented (JSONL) artifact with uniform diagnostics.

    Blank lines are skipped.  ``parse`` receives each stripped line and
    may raise any of the standard parse failures (``ValueError``,
    ``KeyError``, ``TypeError``, :class:`ReproError`); the failure is
    rewrapped as the canonical ``file:line`` :class:`ArtifactError`.

    Args:
        path: the artifact file.
        kind: the human name of the expected record (``"ledger event"``,
            ``"world-log record"``, ...) — appears verbatim in
            diagnostics.
        parse: ``line -> record``.

    Raises:
        ArtifactError: on any malformed line (CLI exit 2).
        OSError: if the file cannot be read.
    """
    records: list[T] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse(line))
            except _PARSE_FAILURES as exc:
                raise artifact_error(
                    path, kind, exc, line=number
                ) from exc
    return records


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
        text = handle.read()
    try:
        return parse(text)
    except _PARSE_FAILURES as exc:
        raise artifact_error(path, kind, exc) from exc
