"""Cross-checks against OEIS b-files.

The power-cardinality sequences for k = 1..4 are catalogued: A000012
(all ones), A001316 (powers of 2 by bit count), A048883 (powers of 3 by
bit count) and A253064.  This module parses the standard OEIS b-file
format ("index value" per line, '#' comments allowed), compares a
b-file term by term with what this package computes, and can fetch
b-files over HTTPS when networking is explicitly allowed.  Fetched
files are cached under $SYMNABLA_CACHE (default ~/.cache/symnabla);
a cached file is reused without touching the network again.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import (
    BFileFormatError,
    BFileParseError,
    CoverageError,
    DomainError,
    TransportError,
)
from .recurrence import term

#: k -> OEIS id of the power-cardinality sequence, where catalogued.
SEQUENCE_IDS = {1: "A000012", 2: "A001316", 3: "A048883", 4: "A253064"}


def catalogued_id(k: int) -> str:
    """The OEIS id for k; DomainError outside the catalogued k = 1..4."""
    if k not in SEQUENCE_IDS:
        raise DomainError(f"no catalogued sequence for k={k}; supported: 1..4")
    return SEQUENCE_IDS[k]


_ID_PATTERN = re.compile(r"\AA\d{6}\Z")


def _check_sequence_id(sequence_id: str) -> str:
    if not _ID_PATTERN.match(sequence_id):
        raise DomainError(
            f"sequence id must be 'A' plus six digits, got {sequence_id!r}"
        )
    return sequence_id


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: (index, value) entries with strictly increasing
    indices, plus the sequence id when known."""

    sequence_id: Optional[str]
    entries: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def value_at(self, n: int) -> int:
        for i, v in self.entries:
            if i == n:
                return v
        raise KeyError(n)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def contiguous_limit_from(self, start: int = 0) -> Optional[int]:
        """Largest limit such that every index start..limit is present,
        or None if start itself is missing."""
        present = self.as_dict()
        if start not in present:
            return None
        n = start
        while n + 1 in present:
            n += 1
        return n


def parse_bfile(text: str | bytes, sequence_id: Optional[str] = None) -> BFile:
    """Parse b-file content.

    Malformed lines, and bytes that are not UTF-8, raise BFileParseError
    with the 1-based line number; non-monotone indices raise
    BFileFormatError.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # number the bad byte's line as splitlines() numbers lines
            # below; the "x" opens a new line after a trailing break
            line_number = len((text[: exc.start].decode("utf-8") + "x").splitlines())
            raise BFileParseError(
                f"not UTF-8: byte {text[exc.start : exc.start + 1]!r}", line_number
            ) from None
    if sequence_id is not None:
        _check_sequence_id(sequence_id)
    entries: list[tuple[int, int]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(
                f"expected 'index value', got {raw!r}", line_number
            )
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise BFileParseError(
                f"non-integer field in {raw!r}", line_number
            ) from None
        entries.append((index, value))
    for (i1, _), (i2, _) in zip(entries, entries[1:]):
        if i2 <= i1:
            raise BFileFormatError(
                f"indices must be strictly increasing, saw {i1} then {i2}"
            )
    return BFile(sequence_id, tuple(entries))


def serialize_bfile(bfile: BFile) -> str:
    """Render back to b-file text; parse_bfile round-trips this."""
    return "".join(f"{i} {v}\n" for i, v in bfile.entries)


@dataclass(frozen=True)
class CrosscheckReport:
    """Outcome of comparing computed terms against a b-file."""

    k: int
    sequence_id: Optional[str]
    limit: int
    mismatch: Optional[tuple[int, int, int]]  # (n, computed, listed)

    @property
    def ok(self) -> bool:
        return self.mismatch is None

    def summary(self) -> str:
        if self.ok:
            return f"AGREE 0..{self.limit}"
        n, computed, listed = self.mismatch
        return f"MISMATCH at n={n}: computed {computed}, b-file {listed}"


def crosscheck(k: int, bfile: BFile, limit: int) -> CrosscheckReport:
    """Compare term(k, n) with the b-file for every n in 0..limit.

    Only the catalogued range k in 1..4 is accepted.  A b-file that
    does not cover 0..limit raises CoverageError naming the gap; the
    report carries the first mismatch, if any.
    """
    catalogued_id(k)
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    listed = bfile.as_dict()
    # Each scan stops within len(listed) + 1 steps, whatever the limit.
    first = next((n for n in range(limit + 1) if n not in listed), None)
    if first is not None:
        last = next(n for n in range(limit, -1, -1) if n not in listed)
        raise CoverageError(
            f"b-file does not cover indices {first}..{last} (needs 0..{limit})"
        )
    for n in range(limit + 1):
        computed = term(k, n)
        if computed != listed[n]:
            return CrosscheckReport(k, bfile.sequence_id, limit, (n, computed, listed[n]))
    return CrosscheckReport(k, bfile.sequence_id, limit, None)


def cache_dir_path(cache_dir: Optional[str | os.PathLike] = None) -> Path:
    """Resolve the b-file cache directory: explicit argument, then the
    SYMNABLA_CACHE environment variable, then ~/.cache/symnabla."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("SYMNABLA_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "symnabla"


def fetch_bfile(
    sequence_id: str,
    *,
    allow_network: bool = False,
    cache_dir: Optional[str | os.PathLike] = None,
    timeout: float = 30.0,
) -> BFile:
    """Load a b-file from the cache, fetching it over HTTPS on a miss.

    Network access is off unless allow_network is set; a cache miss
    without it raises TransportError advising fixture mode.  Fetched
    content is parsed before being cached, so the cache never holds
    garbage.
    """
    _check_sequence_id(sequence_id)
    filename = f"b{sequence_id[1:]}.txt"
    path = cache_dir_path(cache_dir) / filename
    if path.exists():
        return parse_bfile(path.read_bytes(), sequence_id)
    if not allow_network:
        raise TransportError(
            f"{sequence_id} is not cached at {path} and networking is disabled; "
            "enable fetching explicitly or pass a local fixture b-file"
        )
    url = f"https://oeis.org/{sequence_id}/{filename}"
    import urllib.error  # only a fetch needs them; they slow every import
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            text = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise TransportError(f"fetching {url} failed: {exc}") from exc
    bfile = parse_bfile(text, sequence_id)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        warnings.warn(f"could not cache {sequence_id} at {path}: {exc}")
    return bfile
