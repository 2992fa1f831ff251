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
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional

import mpmath
from mpmath.libmp import finf, fnan, fninf, from_float, to_str


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

    An int, or a Fraction with denominator 1, prints exactly, as str(int).
    An mpf, a float or another Fraction prints as its exact value rounded
    once, half up, to D = `digits` significant digits (default: mp.dps + 5);
    any other value, text included, raises TypeError.  With e the decimal
    exponent of the leading digit, the form is fixed point when
    min(-(D // 3), -5) < e < D, otherwise scientific, d.ddd followed by e+N
    or e-N; trailing zeros after the point are stripped, keeping one digit
    after it (1.0, 1.5e+20); negative values lead with "-".

    Zero ("0.0"), +inf, -inf, nan and values whose binary exponent exp + bc
    is beyond +-3500 are handed to mpmath's to_str(value, D).
    """
    return _Decimals(digits)(value)


_LOG10_2 = math.log10(2)
_NON_FINITE = (finf, fninf, fnan)


class _Decimals:
    """The renderer of decimal_str at one digit count D, built once per
    call of decimal_str, sequence_entry or emit_csv."""

    def __init__(self, digits: Optional[int]):
        self.digits = digits or mpmath.mp.dps + 5
        self.min_fixed = min(-(self.digits // 3), -5)
        self.scales = {}  # j -> (j, 10**|j|)

    def __call__(self, value) -> str:
        return self.text(self.raw(value))

    def raw(self, value):
        """An integer's exact decimal string, or else the exact value that
        `text` rounds: a raw mpf (sign, man, exp, bc) or a Fraction."""
        if isinstance(value, mpmath.mpf):
            return value._mpf_
        if isinstance(value, int):
            return str(value)
        if isinstance(value, Fraction):
            return str(value.numerator) if value.denominator == 1 else value
        if isinstance(value, float):
            return from_float(value)  # exactly, and so are inf and nan
        raise TypeError(f"decimal_str renders numbers only, not a {type(value).__name__}")

    def scale(self, low: int) -> tuple:
        """(j, 10^|j|) for j = D + 1 - floor(low log10(2)): when |x| >= 2^low,
        floor(|x| 10^j) has at least D + 1 digits (one more than the bound
        needs, against the float's error)."""
        j = self.digits + 1 - math.floor(low * _LOG10_2)
        scale = self.scales.get(j)
        if scale is None:
            scale = self.scales[j] = (j, 10 ** abs(j))
        return scale

    def text(self, raw) -> str:
        """The decimal string of `raw`, a result of `raw()`: the first digits
        of the exact value, rounded half up to D."""
        if type(raw) is str:
            return raw
        d = self.digits
        if type(raw) is tuple:
            sign, man, exp, bc = raw
            if not man or not -3500 <= exp + bc <= 3500:  # zero, inf, nan or far out
                return to_str(raw, d)
            j, ten = self.scale(exp + bc - 1)
            if j < 0:  # |x| >= 10^(D + 1): its integer part, below 2^3500, has the digits
                j, ten = 0, 1
            man *= ten
            digits = str(man << exp if exp >= 0 else man >> -exp)
        else:  # a Fraction
            sign, num, den = raw.numerator < 0, abs(raw.numerator), raw.denominator
            j, ten = self.scale(num.bit_length() - den.bit_length() - 1)
            digits = str(num * ten // den if j >= 0 else num // (den * ten))
        e = len(digits) - j - 1
        # round half up to D digits and strip trailing zeros
        if len(digits) > d and digits[d] >= "5":
            head = digits[:d].rstrip("9")
            if head:  # its last digit, not a 9, goes up by one
                digits = head[:-1] + "123456789"[int(head[-1])]
            else:
                digits, e = "1", e + 1
        else:
            digits = digits[:d].rstrip("0")
        sign = "-" if sign else ""
        if self.min_fixed < e < d:
            if e < 0:
                return f"{sign}0.{'0' * (-1 - e)}{digits}"
            if len(digits) > e + 1:
                return f"{sign}{digits[:e + 1]}.{digits[e + 1:]}"
            return f"{sign}{digits}{'0' * (e + 1 - len(digits))}.0"
        return f"{sign}{digits[0]}.{digits[1:] or '0'}e{'+' if e > 0 else ''}{e}"


def scalar_entry(value, digits: int, spread=None) -> dict:
    entry = {"value": decimal_str(value, digits), "digits": digits}
    if spread is not None:
        entry["spread"] = decimal_str(spread, 5)
    return entry


def sequence_entry(offset: int, values, digits: Optional[int] = None) -> dict:
    with unlimited_int_digits():
        return {"offset": offset, "values": list(map(_Decimals(digits), values))}


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
    dec = _Decimals(digits)
    raw, text = dec.raw, dec.text
    lines = [",".join(header)]
    for x, y in points:
        x, y = raw(x), raw(y)
        if not (type(x) is tuple and x in _NON_FINITE or type(y) is tuple and y in _NON_FINITE):
            lines.append(f"{text(x)},{text(y)}")
    return "\n".join(lines) + "\n"
