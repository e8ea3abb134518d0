"""Persisted JSON: one version check, one file loader, one JSONL ledger.

Every artifact this package persists — corpus cases, probe ladders,
growth curves, bench and SLO reports, traces, span trees and the trend
ledgers — is a JSON object stamped with a schema version under ``"v"`` or
``"version"`` (whichever the format has always used), and most also carry
a ``"kind"``.  Readers refuse a non-object, a foreign version or a wrong
kind with :class:`~repro.errors.ConfigurationError` instead of guessing:
silently misreading evidence from another schema generation is worse than
refusing it.

JSONL ledgers (bench history, SLO history, traces) are appended one line
at a time, so a writer killed mid-append leaves at most one torn *final*
line.  :func:`iter_jsonl` drops that line with a :class:`RuntimeWarning`.
An unreadable line with durable lines after it is corruption, not
tearing, and raises; a parseable line with a foreign version or kind
raises even at the tail, because a version mismatch is never a partial
write.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, TypeVar, Union

from repro.errors import ConfigurationError

__all__ = ["append_jsonl", "expect_versioned", "iter_jsonl", "load_json_file"]

T = TypeVar("T")


def expect_versioned(
    data: Any,
    what: str,
    version: int,
    *,
    key: str,
    kind: Optional[str] = None,
) -> Dict[str, Any]:
    """Return ``data`` if it is a ``what`` this build reads, else raise.

    ``key`` names the version field (``"v"`` or ``"version"``); ``kind``,
    when given, must equal ``data["kind"]``.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    if data.get(key) != version:
        raise ConfigurationError(
            f"unsupported {what} version {data.get(key)!r}; "
            f"this build reads version {version}"
        )
    if kind is not None and data.get("kind") != kind:
        raise ConfigurationError(
            f"{what} has kind {data.get('kind')!r}, expected {kind!r}"
        )
    return data


def load_json_file(path: Union[str, Path], what: str) -> Any:
    """Parse a whole JSON file; unreadable or non-JSON files raise."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigurationError(
            f"{what} {str(path)!r} cannot be read: {error}"
        ) from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"{what} {str(path)!r} is not valid JSON: {error} (the file is "
            f"not JSON, or was cut short)"
        ) from error


def iter_jsonl(
    path: Union[str, Path], what: str, parse: Callable[[Any], T]
) -> Iterator[T]:
    """Stream ``parse(entry)`` for every line of a JSONL ledger.

    Blank lines are skipped.  A torn final line is dropped with a
    :class:`RuntimeWarning`; any other unreadable line, and any error
    ``parse`` raises, becomes a :class:`~repro.errors.ConfigurationError`
    naming the file and line.
    """
    pending: Optional[Tuple[int, str]] = None
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"{what} {str(path)!r} cannot be read: {error}"
        ) from error
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                raise ConfigurationError(
                    f"{what} {str(path)!r} line {pending[0]} is unreadable "
                    f"but later lines exist (a torn append leaves none; when "
                    f"later entries exist the file is corrupt): {pending[1]}"
                )
            try:
                data = json.loads(line)
            except json.JSONDecodeError as error:
                pending = (line_number, str(error))
                continue
            try:
                entry = parse(data)
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"{what} {str(path)!r} line {line_number}: {error}"
                ) from error
            yield entry
    if pending is not None:
        warnings.warn(
            f"{what} {str(path)!r} ends with a torn line "
            f"(line {pending[0]}); dropping it: {pending[1]}",
            RuntimeWarning,
            stacklevel=2,
        )


def append_jsonl(path: Union[str, Path], entry: Dict[str, Any]) -> None:
    """Append ``entry`` as one compact, key-sorted line to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
        handle.write("\n")
