"""Deterministic analysis reports and plot-data emission.

Every CLI run produces one AnalysisReport serialized as JSON: the command
line, a digest of the input, the parameters, named high-precision scalars
(decimal strings with a digit count and an uncertainty spread), named
sequences, and any identifications.  Serialization is deterministic for
identical inputs and parameters; the report digest excludes timestamps so
reruns are diffable.  Plot data goes to RFC-4180-style CSV side files.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional

import mpmath
from mpmath.libmp import dps_to_prec, finf, fnan, fninf, from_rational, mpf_pos, to_str


@contextmanager
def unlimited_int_digits():
    """Lift CPython's 4300-digit limit on int <-> str conversion for the
    block, then restore it: b-files and reports carry exact terms whole."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters that predate the limit
        yield
        return
    old = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def decimal_str(value, digits: Optional[int] = None) -> str:
    """Full-precision decimal rendering; never a binary float repr.

    Integral values print exactly.  Any other value is rounded once to
    nearest at 5 guard digits beyond max(mp.dps, digits), then printed to
    `digits` (default: that working precision) significant digits.
    """
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    dps = max(mpmath.mp.dps, digits or 0) + 5
    prec = dps_to_prec(dps)
    if isinstance(value, Fraction):
        # exact quotient rounded once, not re-rounded at mp.prec by mpf()
        raw = from_rational(value.numerator, value.denominator, prec, "n")
    else:
        if not isinstance(value, mpmath.mpf):
            with mpmath.workdps(dps):
                value = mpmath.mpf(value)
        # one round-to-nearest at dps, as mpf(value) under workdps(dps) does,
        # without entering a precision context for the common mpf case
        raw = mpf_pos(value._mpf_, prec, "n")
    return to_str(raw, digits or dps)


def scalar_entry(value, digits: int, spread=None) -> dict:
    entry = {"value": decimal_str(value, digits), "digits": digits}
    if spread is not None:
        entry["spread"] = decimal_str(spread, 5)
    return entry


def sequence_entry(offset: int, values, digits: Optional[int] = None) -> dict:
    with unlimited_int_digits():
        return {
            "offset": offset,
            "values": [decimal_str(v, digits) for v in values],
        }


def identification_entry(kind: str, payload_str: str, certified_digits: int) -> dict:
    return {
        "kind": kind,
        "payload": payload_str,
        "certified_digits": certified_digits,
    }


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_ascii_digits(text: str) -> bool:
    """Whether text is one or more ASCII digits.  Checked on its bytes,
    which costs far less per character than str.isdecimal."""
    return text.isascii() and text.encode().isdigit()


# encodes one JSON scalar (str, int, float, bool or None) as json.dumps does
_SCALAR = json.JSONEncoder()


class _JsonText(str):
    """The JSON text of one value, ready to write."""


def _encoded(obj):
    """obj with each leaf encoded once: dicts stay dicts, lists and tuples
    become lists, a string of ASCII digits stays itself (it needs no
    escaping, so a long decimal term is neither scanned nor copied), and
    any other leaf becomes its _JsonText."""
    if isinstance(obj, dict):
        return {k: _encoded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encoded(v) for v in obj]
    if isinstance(obj, str) and is_ascii_digits(obj):
        return obj
    return _JsonText(_SCALAR.encode(obj))


def _json_key(key) -> str:
    """A dict key as JSON renders it, with the rules of json.dumps."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _SCALAR.encode(key)
    return _SCALAR.encode(key)


def _json_pieces(node, newline: Optional[str]) -> Iterator[str]:
    """The JSON text of an `_encoded` dict or list in pieces, keys sorted:
    compact when `newline` is None, else indented by two spaces per level,
    where `newline` ends each line at the node's own level.  The two forms
    are those of json.dumps with sort_keys and either separators=(",", ":")
    or indent=2."""
    is_dict = isinstance(node, dict)
    if not node:
        yield "{}" if is_dict else "[]"
        return
    inner = None if newline is None else newline + "  "
    comma = "," + (inner or "")
    sep = ("{" if is_dict else "[") + (inner or "")
    if is_dict:
        colon = ":" if newline is None else ": "
        items = [(_json_key(k) + colon, v) for k, v in sorted(node.items())]
    else:
        items = zip(repeat(""), node)
    for head, value in items:
        if isinstance(value, (dict, list)):
            yield sep + head
            yield from _json_pieces(value, inner)
        elif isinstance(value, _JsonText):
            yield sep + head + value
        else:  # ASCII digits, quoted as they are
            yield sep + head + '"'
            yield value
            yield '"'
        sep = comma
    yield (newline or "") + ("}" if is_dict else "]")


def _sha256_of(pieces: Iterable[str]) -> str:
    h = hashlib.sha256()
    for piece in pieces:
        h.update(piece.encode("utf-8"))
    return h.hexdigest()


@dataclass
class AnalysisReport:
    command: str
    input_digest: str
    parameters: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    sequences: dict = field(default_factory=dict)
    identifications: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    created_at: str = field(
        default_factory=lambda: _dt.datetime.now(_dt.timezone.utc).isoformat()
    )

    def _canonical_body(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "parameters": self.parameters,
            "scalars": self.scalars,
            "sequences": self.sequences,
            "identifications": self.identifications,
            "notes": self.notes,
        }

    def digest(self) -> str:
        """Digest of everything except timestamps (rerun-stable): SHA-256 of
        the compact sorted-key JSON of the body, hashed as it is encoded."""
        return _sha256_of(_json_pieces(_encoded(self._canonical_body()), None))

    def json_chunks(self) -> Iterator[str]:
        """The report as indented sorted-key JSON plus a final newline, in
        pieces, so a large report is written without one string of it all.
        Each value is encoded once, for the digest and the file alike."""
        doc = _encoded(self._canonical_body())
        digest = _sha256_of(_json_pieces(doc, None))
        doc["created_at"] = _encoded(self.created_at)
        doc["report_digest"] = _encoded(digest)
        yield from _json_pieces(doc, "\n")
        yield "\n"

    def to_json(self) -> str:
        return "".join(self.json_chunks())


def write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the text pieces `chunks` to `path` through a unique temp file
    in the same directory and `os.replace`, creating the directory first;
    readers see the old file or the new one, never a partial one, and a
    failed write leaves no temp file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # a unique name opened exclusively, so concurrent writers never share it;
    # unlike mkstemp it keeps the umask's permissions for the final file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_report(path: Path, report: AnalysisReport, csvs: Optional[dict] = None) -> None:
    """Write the figure CSVs as `<key>.csv` beside `path`, then the JSON
    report, each atomically; the report goes last, so a run that fails to
    write never replaces the previous report."""
    for key, text in (csvs or {}).items():
        write_atomic(path.parent / f"{key}.csv", [text])
    write_atomic(path, report.json_chunks())


def write_run(path: Path, command: str, fields: dict):
    """Write a run's report and return its `stdout` (text, or text blocks).
    `fields` are the AnalysisReport fields but `command`, plus the figure
    `csvs` ({key: csv_text}, written beside `path`) and `stdout`; callers
    print only what this returns, so a failed run prints nothing."""
    body = {k: v for k, v in fields.items() if k not in ("csvs", "stdout")}
    write_report(path, AnalysisReport(command=command, **body), fields.get("csvs"))
    return fields.get("stdout", "")


def emit_csv(points: Iterable[tuple], header: tuple[str, str] = ("x", "y"),
             digits: Optional[int] = None) -> str:
    """RFC-4180-style two-column CSV of decimal values, each printed by
    decimal_str at `digits` significant digits (default: full precision).

    Non-finite points are dropped; an empty input yields just the header.
    """
    lines = [",".join(header)]
    for x, y in points:
        if _finite(x) and _finite(y):
            lines.append(f"{decimal_str(x, digits)},{decimal_str(y, digits)}")
    return "\n".join(lines) + "\n"


def _finite(v) -> bool:
    if isinstance(v, (int, Fraction)):
        return True
    if not isinstance(v, mpmath.mpf):
        v = mpmath.mpf(v)
    return v._mpf_ not in (finf, fninf, fnan)
