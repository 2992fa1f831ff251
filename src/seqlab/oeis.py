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
from .report import unlimited_int_digits, write_atomic
from .sequences import Sequence

CACHE_ENV_VAR = "SEQLAB_CACHE_DIR"
_A_NUMBER_RE = re.compile(r"^[Aa]?(\d+)$")


@dataclass(frozen=True)
class BFile:
    """Raw b-file body for one A-number, exactly as stored on disk."""

    a_number: str
    text: str

    def sequence(self) -> Sequence:
        return parse_bfile(self.text)


def parse_bfile(text: str) -> Sequence:
    """Parse b-file text into a Sequence whose offset is the first index."""
    offset: Optional[int] = None
    expected = 0
    terms: list[int] = []
    with unlimited_int_digits():
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MalformedLine(lineno, raw)
            try:
                idx, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedLine(lineno, raw) from None
            if offset is None:
                offset = idx
                expected = idx
            if idx != expected:
                raise NonContiguousIndex(lineno, expected, idx)
            terms.append(value)
            expected += 1
    if offset is None:
        raise MalformedLine(0, "<no data lines>")
    return Sequence(offset, tuple(terms))


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
