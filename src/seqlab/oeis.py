"""OEIS b-file handling: parsing, rendering, and fetching with a local cache.

A b-file is plain text with one ``index value`` pair per line and optional
``#`` comment lines; indices must increase by exactly one.  Fetching uses
the standard public b-file URL and keeps a byte-identical copy under the
cache directory, which is always consulted first; offline mode never
touches the network.
"""

from __future__ import annotations

import os
import re
from collections import deque
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .errors import (
    CacheMiss,
    MalformedLine,
    NetworkError,
    NonContiguousIndex,
    SequenceNotFound,
)
from .report import is_ascii_digits, unlimited_int_digits, write_atomic
from .sequences import Sequence

CACHE_ENV_VAR = "SEQLAB_CACHE_DIR"
_A_NUMBER_RE = re.compile(r"^[Aa]?(\d+)$")


@dataclass(frozen=True)
class BFile:
    """Raw b-file body for one A-number, exactly as stored on disk."""

    a_number: str
    text: str


# What int() accepts of a token that is not plain ASCII digits: a sign,
# underscores between digits, and any Unicode decimal digits.
_INT_TOKEN_RE = re.compile(r"[+-]?\d+(?:_\d+)*")


def _int_token(token: str) -> bool:
    """Whether int() accepts the token, found without converting it."""
    return is_ascii_digits(token) or _INT_TOKEN_RE.fullmatch(token) is not None


def _scan_bfile(text: str) -> Iterator[tuple[int, str]]:
    """(index, value token) of each data line of b-file text, in order.

    Every line is checked (two tokens, an int value, contiguous indices),
    but no value is converted, so a caller converts only what it keeps.
    Run it under unlimited_int_digits: indices are converted."""
    expected: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or not _int_token(parts[1]):
            raise MalformedLine(lineno, raw)
        try:
            idx = int(parts[0])
        except ValueError:
            raise MalformedLine(lineno, raw) from None
        if expected is not None and idx != expected:
            raise NonContiguousIndex(lineno, expected, idx)
        yield idx, parts[1]
        expected = idx + 1
    if expected is None:
        raise MalformedLine(0, "<no data lines>")


def parse_bfile(text: str) -> Sequence:
    """Parse b-file text into a Sequence whose offset is the first index."""
    with unlimited_int_digits():
        lines = _scan_bfile(text)
        offset, first = next(lines)
        return Sequence(offset, (int(first), *(int(v) for _, v in lines)))


def parse_bfile_tail(text: str, k: int) -> Sequence:
    """The last k terms of b-file text (all of them if there are fewer), at
    their indices.  Every line is checked as parse_bfile checks it, so the
    same text raises the same error, but only these k values are converted
    to int: that conversion is quadratic in the digits of a term."""
    if k < 1:
        raise ValueError(f"parse_bfile_tail needs k >= 1, got {k}")
    with unlimited_int_digits():
        window = deque(_scan_bfile(text), maxlen=k)
        return Sequence(window[0][0], tuple(int(v) for _, v in window))


def _decimal(token: str) -> str:
    """str(int(token)) of a value token that _scan_bfile accepted: the
    token itself when it already has that form (ASCII digits, no leading
    zero, at most a leading "-"), so a long term is not converted twice."""
    digits = token[1:] if token[0] == "-" else token
    if is_ascii_digits(digits) and (digits[0] != "0" or token == "0"):
        return token
    return str(int(token))


def parse_bfile_decimal(text: str) -> tuple[int, list[str]]:
    """(first index, the terms as str(int) prints them) of b-file text.
    Every line is checked as parse_bfile checks it, so the same text
    raises the same error; only a token of another form (a sign "+",
    leading zeros, underscores, non-ASCII digits) is converted to int."""
    with unlimited_int_digits():
        lines = _scan_bfile(text)
        offset, first = next(lines)
        return offset, [_decimal(first), *(_decimal(v) for _, v in lines)]


# Lines per block: 64 lines of 2000-digit terms are about 128 KiB.
_BFILE_BLOCK = 64


def bfile_text(offset: int, values: Iterable) -> Iterator[str]:
    """b-file lines ``index value`` for values (or their decimal strings)
    indexed consecutively from `offset`, yielded as text blocks of a fixed
    number of lines, so that a long b-file is never held whole."""
    lines = (f"{n} {v}\n" for n, v in enumerate(values, offset))
    while block := "".join(islice(lines, _BFILE_BLOCK)):
        yield block


def render_bfile(seq: Sequence) -> str:
    """Render a Sequence as b-file text; parse_bfile inverts this exactly."""
    with unlimited_int_digits():
        return "".join(bfile_text(seq.offset, seq.terms))


def canonical_a_number(a_number: str) -> str:
    m = _A_NUMBER_RE.match(a_number.strip())
    if not m:
        raise ValueError(f"not an A-number: {a_number!r}")
    return f"A{int(m.group(1)):06d}"


def bfile_url(a_number: str) -> str:
    a_id = canonical_a_number(a_number)
    return f"https://oeis.org/{a_id}/b{a_id[1:]}.txt"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "seqlab"


def _urllib_fetcher(url: str) -> str:
    # imported here: urllib.request pulls in http.client, email and socket,
    # which only a network fetch needs
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise SequenceNotFound(url) from exc
        raise NetworkError(f"HTTP {exc.code} for {url}") from exc
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise NetworkError(f"cannot reach {url}: {exc}") from exc


def fetch_oeis(
    a_number: str,
    cache_dir: Optional[Path] = None,
    offline: bool = False,
    fetcher: Optional[Callable[[str], str]] = None,
) -> BFile:
    """Return the b-file for an A-number, cache-first.

    The cache layout is ``<cache>/<A-number>.bfile``; a hit is returned
    byte-identically without touching the network.  On a miss, offline mode
    raises CacheMiss; otherwise the standard public URL is fetched (HTTP 404
    maps to SequenceNotFound, transport failures to NetworkError) and the
    body is cached before returning.  `fetcher` injects the transport for
    testing.
    """
    a_id = canonical_a_number(a_number)
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = cache / f"{a_id}.bfile"
    if path.exists():
        return BFile(a_id, path.read_text(encoding="utf-8"))
    if offline:
        raise CacheMiss(f"{a_id} not cached under {cache} and offline mode is on")
    text = (fetcher or _urllib_fetcher)(bfile_url(a_id))
    write_atomic(path, [text])
    return BFile(a_id, text)
