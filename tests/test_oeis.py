"""B-file parsing, serialisation, crosschecks, and cached fetching."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import symnabla
from symnabla.core import brute_card
from symnabla.errors import (
    BFileFormatError,
    BFileParseError,
    CoverageError,
    DomainError,
    TransportError,
)
from symnabla.oeis import (
    SEQUENCE_IDS,
    BFile,
    cache_dir_path,
    crosscheck,
    fetch_bfile,
    parse_bfile,
    serialize_bfile,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(sequence_id):
    return (FIXTURES / f"b{sequence_id[1:]}.txt").read_text()


def test_sequence_id_table():
    assert SEQUENCE_IDS == {
        1: "A000012",
        2: "A001316",
        3: "A048883",
        4: "A253064",
    }


def test_parse_simple():
    bf = parse_bfile("0 1\n1 2\n2 4\n", sequence_id="A001316")
    assert len(bf) == 3
    assert bf.sequence_id == "A001316"
    assert bf.value_at(2) == 4
    assert bf.as_dict() == {0: 1, 1: 2, 2: 4}
    assert bf.entries == ((0, 1), (1, 2), (2, 4))


def test_parse_comments_blanks_and_bytes():
    raw = b"# header comment\n\n0 1\n# inline comment line\n1 2\n\n"
    bf = parse_bfile(raw)
    assert bf.entries == ((0, 1), (1, 2))
    assert bf.sequence_id is None


def test_parse_bytes_that_are_not_utf8():
    """A bad byte is a parse error on the line that holds it, numbered
    as the lines of decoded text are."""
    cases = [
        (b"\xff0 1\n", 1),
        (b"0 1\n1 \xff\xfe\n", 2),
        (b"0 1\n\x80", 2),  # the bad byte opens a line
        (b"0 1\r\n1 2\r\n\xc3", 3),  # a truncated two-byte sequence
        (b"0 1\r1 \xff", 2),  # a lone CR ends a line for splitlines
        (b"# \xc3\xa9 is fine\n0 1\n1 2\n2 \xe9\n", 4),
    ]
    for raw, line in cases:
        with pytest.raises(BFileParseError) as info:
            parse_bfile(raw)
        assert info.value.line_number == line, raw
        assert str(info.value).startswith(f"line {line}: not UTF-8"), raw


def test_parse_negative_values_allowed():
    # b-files may carry negative terms and offsets
    bf = parse_bfile("-1 5\n0 -7\n")
    assert bf.value_at(0) == -7
    assert bf.value_at(-1) == 5


def test_parse_rejects_malformed_lines():
    with pytest.raises(BFileParseError) as err:
        parse_bfile("0 1\n1 2 3\n")
    assert err.value.line_number == 2
    assert "line 2:" in str(err.value)
    with pytest.raises(BFileParseError):
        parse_bfile("0 one\n")
    with pytest.raises(BFileParseError):
        parse_bfile("justoneword\n")


def test_parse_rejects_non_increasing_indices():
    with pytest.raises(BFileFormatError):
        parse_bfile("0 1\n0 2\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("5 1\n3 2\n")


def test_value_at_missing_index():
    bf = parse_bfile("0 1\n2 4\n")
    with pytest.raises(KeyError):
        bf.value_at(1)


def test_contiguous_limit():
    bf = parse_bfile("0 1\n1 2\n2 4\n5 9\n")
    assert bf.contiguous_limit_from(0) == 2
    assert bf.contiguous_limit_from(5) == 5
    assert bf.contiguous_limit_from(3) is None
    empty = BFile(None, ())
    assert empty.contiguous_limit_from(0) is None


def test_serialize_roundtrip():
    bf = parse_bfile("0 1\n1 4\n2 4\n")
    text = serialize_bfile(bf)
    assert text == "0 1\n1 4\n2 4\n"
    assert parse_bfile(text).entries == bf.entries


def test_fixture_files_agree_with_oracle():
    for k, sid in SEQUENCE_IDS.items():
        bf = parse_bfile(fixture_text(sid), sequence_id=sid)
        assert bf.contiguous_limit_from(0) == 63
        rep = crosscheck(k, bf, 63)
        assert rep.ok
        assert rep.mismatch is None
        assert rep.summary() == "AGREE 0..63"
        # spot check against the independent set oracle
        assert bf.value_at(13) == brute_card(k, 13)


def test_crosscheck_reports_mismatch():
    sid = SEQUENCE_IDS[2]
    bf = parse_bfile(fixture_text(sid), sequence_id=sid)
    doctored = list(bf.entries)
    doctored[7] = (7, bf.value_at(7) + 1)
    bad = BFile(sid, tuple(doctored))
    rep = crosscheck(2, bad, 16)
    assert not rep.ok
    assert rep.mismatch == (7, 8, 9)
    assert rep.summary() == "MISMATCH at n=7: computed 8, b-file 9"


def test_crosscheck_coverage_error():
    bf = parse_bfile("0 1\n1 2\n")
    with pytest.raises(CoverageError) as err:
        crosscheck(2, bf, 10)
    assert "2..10" in str(err.value)


def test_crosscheck_domain_errors():
    bf = parse_bfile("0 1\n")
    with pytest.raises(DomainError):
        crosscheck(5, bf, 0)  # no listed sequence beyond k = 4
    with pytest.raises(DomainError):
        crosscheck(0, bf, 0)


def test_cache_dir_resolution(tmp_path, monkeypatch):
    explicit = cache_dir_path(tmp_path / "explicit")
    assert explicit == tmp_path / "explicit"
    monkeypatch.setenv("SYMNABLA_CACHE", str(tmp_path / "from-env"))
    assert cache_dir_path() == tmp_path / "from-env"
    monkeypatch.delenv("SYMNABLA_CACHE")
    assert cache_dir_path().name == "symnabla"


def test_fetch_uses_cache_without_network(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "b001316.txt").write_text("0 1\n1 2\n2 4\n")
    bf = fetch_bfile("A001316", cache_dir=cache)
    assert bf.entries == ((0, 1), (1, 2), (2, 4))
    assert bf.sequence_id == "A001316"


def test_fetch_reads_the_cache_as_utf8_bytes(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "b001316.txt").write_bytes("# \u00e9\n0 1\n1 2\n".encode("utf-8"))
    assert fetch_bfile("A001316", cache_dir=cache).entries == ((0, 1), (1, 2))
    (cache / "b001316.txt").write_bytes(b"0 1\n1 2\n2 \xff\n")
    with pytest.raises(BFileParseError) as info:
        fetch_bfile("A001316", cache_dir=cache)
    assert info.value.line_number == 3


def test_fetch_without_cache_or_network_flag(tmp_path):
    with pytest.raises(TransportError):
        fetch_bfile("A001316", cache_dir=tmp_path / "empty")


def test_fetch_network_path_is_mocked(tmp_path, monkeypatch):
    """The network branch downloads, parses, and fills the cache."""
    calls = []

    class FakeResponse:
        def read(self):
            return b"0 1\n1 2\n"

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    def fake_urlopen(url, timeout):
        calls.append((url, timeout))
        return FakeResponse()

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    cache = tmp_path / "cache"
    bf = fetch_bfile("A001316", allow_network=True, cache_dir=cache, timeout=5.0)
    assert bf.entries == ((0, 1), (1, 2))
    assert len(calls) == 1
    assert "A001316" in calls[0][0] and calls[0][1] == 5.0
    # the download landed in the cache: a second call needs no network
    assert (cache / "b001316.txt").exists()
    again = fetch_bfile("A001316", cache_dir=cache)
    assert again.entries == bf.entries


def test_import_leaves_urllib_request_unloaded():
    """Only a fetch needs urllib.request, so importing the package (and
    so every CLI start) does not pay for it."""
    src = str(Path(symnabla.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, symnabla, symnabla.cli; print('urllib.request' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_fetch_rejects_bad_ids():
    with pytest.raises(DomainError):
        fetch_bfile("X123")
    with pytest.raises(DomainError):
        fetch_bfile("A12")


def test_fixture_comment_line_is_skipped():
    text = fixture_text("A000012")
    assert text.startswith("#")
    bf = parse_bfile(text)
    assert bf.value_at(0) == 1 and bf.value_at(63) == 1
