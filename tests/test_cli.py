"""Command line behaviour: output formats, exit codes, error routing."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symnabla
from symnabla import cli, recurrence
from symnabla.cli import build_parser, main
from symnabla.errors import SizeLimitError, SymnablaError, TransportError
from symnabla.oeis import parse_bfile
from symnabla.recurrence import (
    METHODS,
    fast_term,
    matrix_term,
    matrix_term_range,
    sparse_term,
    sparse_terms,
    term_range,
)

FIXTURES = Path(__file__).parent / "fixtures"

# child interpreters import the same symnabla as this process, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(symnabla.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_term_plain(capsys):
    code, out, err = run_cli(capsys, "term", "--k", "8", "--n", "1883")
    assert (code, out, err) == (0, "4997448\n", "")


def test_term_methods_agree(capsys):
    for method in ("auto", "brute", "matrix", "reduce"):
        code, out, _ = run_cli(
            capsys, "term", "--k", "8", "--n", "59", "--method", method
        )
        assert code == 0 and out == "13624\n"


def test_term_json(capsys):
    code, out, _ = run_cli(capsys, "term", "--k", "8", "--n", "27", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"k": 8, "n": 27, "method": "auto", "value": 2216}


def test_seq_plain(capsys):
    code, out, _ = run_cli(capsys, "seq", "--k", "1", "--limit", "5")
    assert code == 0 and out == "1 1 1 1 1 1\n"


def test_seq_csv(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--k", "4", "--limit", "4", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value"]
    assert rows[1:] == [["0", "1"], ["1", "4"], ["2", "4"], ["3", "12"], ["4", "4"]]


def test_seq_bfile_roundtrips(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--k", "2", "--limit", "8", "--format", "bfile"
    )
    assert code == 0
    bf = parse_bfile(out)
    assert bf.as_dict() == {0: 1, 1: 2, 2: 2, 3: 4, 4: 2, 5: 4, 6: 4, 7: 8, 8: 2}


def test_seq_json(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--k", "8", "--limit", "3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload == {"k": 8, "method": "auto", "values": [1, 8, 8, 48]}


def test_sparse_rows(capsys):
    code, out, _ = run_cli(capsys, "sparse", "--k", "8", "--count", "4")
    assert code == 0 and out == "1 8 48 296\n"
    code, out, _ = run_cli(capsys, "sparse", "--k", "7", "--count", "4")
    assert code == 0 and out == "1 7 43 265\n"


def test_sparse_bfile_indexes_by_exponent(capsys):
    code, out, _ = run_cli(
        capsys, "sparse", "--k", "8", "--count", "3", "--format", "bfile"
    )
    assert out == "0 1\n1 8\n2 48\n"


def test_sparse_csv_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "sparse", "--k", "6", "--count", "4", "--format", "csv"
    )
    assert code == 0 and out == "t,value\n0,1\n1,6\n2,30\n3,150\n"
    code, out, _ = run_cli(
        capsys, "sparse", "--k", "8", "--count", "3", "--format", "json"
    )
    assert code == 0 and out == '{"k": 8, "values": [1, 8, 48]}\n'


def test_sparse_count_is_bounded_before_any_term(capsys, monkeypatch):
    # the digit bound holds for every k: term t has at most floor(t log10 k) + 1 digits
    for k in range(1, 9):
        for count in (1, 2, 5, 60, 300):
            values = cli._sparse_values(k, count)
            digits = sum(len(str(v)) for v in values)
            assert digits <= count + math.ceil(math.log10(k) * count * (count - 1) / 2)
            monkeypatch.setattr(cli, "DEFAULT_ELEMENT_CAP", digits - 1)
            with pytest.raises(SizeLimitError):
                cli._sparse_values(k, count)
            monkeypatch.undo()

    drawn = []

    def counted(k):
        for t, value in enumerate(sparse_terms(k)):
            drawn.append(t)
            yield value

    monkeypatch.setattr(cli, "sparse_terms", counted)
    for count in (10**6, 2**70, 10**200):
        code, out, err = run_cli(capsys, "sparse", "--k", "8", "--count", str(count))
        assert (code, out) == (3, "") and "over the cap 16777216" in err
    assert drawn == [0, 0, 0]  # only the first term, which checks k
    code, _, err = run_cli(capsys, "sparse", "--k", "9", "--count", str(10**6))
    assert code == 2 and "k in 1..8" in err
    # count 0 prints an empty sequence for any k, as before the bound
    code, out, _ = run_cli(capsys, "sparse", "--k", "1", "--count", "0", "--format", "json")
    assert (code, out) == (0, '{"k": 1, "values": []}\n')


@pytest.mark.parametrize("fmt", ["plain", "csv", "json", "bfile"])
def test_seq_object_sweeps_print_as_fixed_width(capsys, monkeypatch, fmt):
    """With the value bound patched past 2**64, every sweep runs on
    Python ints, and every method prints the bytes of the fixed-width
    run."""
    cases = [(8, m, 600) for m in ("auto", "matrix", "reduce")] + [(8, "brute", 200)]
    cases += [(7, m, 600) for m in ("auto", "fast", "matrix")] + [(k, "auto", 600) for k in range(2, 7)]
    fixed = {}
    for k, method, limit in cases:
        argv = ("seq", "--k", str(k), "--limit", str(limit), "--method", method, "--format", fmt)
        code, fixed[argv], _ = run_cli(capsys, *argv)
        assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a value went per index or through the fixed-width writer")

    per_index = cli.term
    monkeypatch.setattr(recurrence, "sparse_term", lambda k, t: 2**64)
    monkeypatch.setattr(cli, "_write_int64", refuse)
    monkeypatch.setattr(cli, "term", lambda k, n, method: per_index(k, n, method) if method == "fast" else refuse())
    for argv, out in fixed.items():
        assert run_cli(capsys, *argv) == (0, out, ""), argv


def test_seq_plain_output_spans_several_slices(capsys):
    limit = 3 * 2**16 + 5  # plain output is joined 2**16 values at a time
    code, out, _ = run_cli(capsys, "seq", "--k", "8", "--limit", str(limit), "--method", "reduce")
    assert code == 0
    assert out == " ".join(map(str, matrix_term_range(limit).tolist())) + "\n"


def test_seq_sweeps_every_k_without_per_index_calls(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("seq fell back to per-index calls")

    monkeypatch.setattr(cli, "term", refuse)
    monkeypatch.setattr(cli, "reduce_term", refuse)
    for k in range(1, 9):
        code, out, err = run_cli(capsys, "seq", "--k", str(k), "--limit", "1000")
        assert (code, err) == (0, "")
        reference = matrix_term if k == 8 else (lambda n: fast_term(k, n))
        assert out.split() == [str(reference(n)) for n in range(1001)]
    # 23-bit limits at k = 7 and 8, for every sweep
    limit = 2**22 + 1
    for k in (7, 8):
        reference = matrix_term if k == 8 else (lambda n: fast_term(k, n))
        tail = [str(sparse_term(k, 22)), str(reference(2**22)), str(reference(limit))]
        first = None
        for method in ("auto", "matrix", "reduce")[: 3 if k == 8 else 2]:
            code, out, err = run_cli(capsys, "seq", "--k", str(k), "--limit", str(limit), "--method", method)
            assert (code, err) == (0, "")
            first = first or out
            assert out == first, (k, method)
        assert first.count(" ") == limit and first[-100:].split()[-3:] == tail


def _printed(values, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._print_values(values, fmt, "n", {"k": 8, "method": "auto"})
    return buf.getvalue()


# every digit count from 1 to 20, with 10**j - 1, 10**j, 10**j + 1,
# 2**63 - 1, 2**63 and 2**64 - 1
CRAFTED = np.array(
    [10**j + d for j in range(20) for d in (-1, 0, 1)] + [2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64
)


def _mixed_widths(rows):
    """One chunk's rows cycling through 1, 8, 9, 16, 17, 19 and 20 digits:
    one and two words of 8 digits, full and with a digit over, and three
    words, the most a uint64 needs."""
    rng = np.random.default_rng(7)
    lows = np.array([0, 10**7, 10**8, 10**15, 10**16, 10**18, 10**19], dtype=np.uint64)
    highs = np.array([10, 10**8, 10**9, 10**16, 10**17, 10**19, 2**64 - 1], dtype=np.uint64)
    digits = np.resize(np.arange(7), rows)
    return rng.integers(lows[digits], highs[digits], dtype=np.uint64)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json", "bfile"])
def test_int64_writer_equals_the_str_path(fmt):
    assert {len(str(v)) for v in CRAFTED.tolist()} == set(range(1, 21))
    limits = (0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5)  # around the writer's chunks
    arrays = [term_range(8, limit) for limit in limits]
    arrays += [CRAFTED, CRAFTED[::-1], np.array([], dtype=np.uint64)]
    mixed = _mixed_widths(2**16)
    assert [len(str(v)) for v in mixed[:14].tolist()] == [1, 8, 9, 16, 17, 19, 20] * 2
    # a seeded sample of every bit length, so every digit count
    rng = np.random.default_rng(20261018)
    sample = rng.integers(0, 2**64, 5000, dtype=np.uint64) >> rng.integers(0, 64, 5000, dtype=np.uint64)
    assert {int(v).bit_length() for v in sample.tolist()} == set(range(65))
    arrays += [mixed, sample]
    if fmt in ("csv", "bfile"):  # the index gets wider between chunks, past 10**5 and 10**6
        arrays.append(term_range(8, 10**6 + 3))
    for values in arrays:
        assert _printed(values, fmt) == _printed(values.tolist(), fmt)


def _printed_by_rows(values, fmt):
    """The list formats as written before the chunked writer: csv.writer
    and one print per row, and plain and json as one str each."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if fmt == "plain":
            print(" ".join(map(str, values)))
        elif fmt == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(["n", "value"])
            writer.writerows([i, v] for i, v in enumerate(values))
        elif fmt == "json":
            print(json.dumps({"k": 8, "method": "auto", "values": values}))
        else:
            for i, v in enumerate(values):
                print(f"{i} {v}")
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["plain", "csv", "json", "bfile"])
def test_list_writer_equals_the_row_writers(fmt):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    if before is not None:
        sys.set_int_max_str_digits(0)  # as main does
    try:
        huge = [sparse_term(8, t) for t in (5600, 5700, 6500)]  # 4358 to 5059 digits
        assert min(len(str(v)) for v in huge) > 4300
        lists = [[], [0], [1, 8] + huge + [7], huge * 3, list(range(2**16 + 3))]
        lists.append(term_range(8, 3 * 2**16 + 5).tolist())  # several chunks
        for values in lists:
            assert _printed(values, fmt) == _printed_by_rows(values, fmt), len(values)
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


def test_reduce_trace_of_a_huge_index(capsys):
    n = str(2**1500 - 1)
    code, out, err = run_cli(capsys, "reduce", "--n", n, "--trace")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith(f"n={n} ") and lines[-1] == f"value {sparse_term(8, 1500)}"
    code, out, err = run_cli(capsys, "reduce", "--n", n, "--trace", "--format", "json")
    assert (code, out) == (3, "")
    assert err == "error: the derivation expands to a tree of more than the cap of 16777216 nodes\n"
    # deeper than the JSON encoder's recursion limit, but a small tree
    deep = int("10" * 750 + "1", 2)
    code, out, err = run_cli(capsys, "reduce", "--n", str(deep), "--trace", "--format", "json")
    assert code == 0 and err == ""
    assert out.startswith(f'{{"n": {deep}, "value": {matrix_term(deep)}, "optional_rules": false, "trace": {{"n": {deep}, ')


def test_optional_rules_can_push_a_json_trace_over_the_cap(capsys):
    """On 10 repeated 750 times then 1, prefix_10101 fires at every
    length and its children share little, so the tree grows like the
    Fibonacci numbers and passes the cap, while the core rules' tree
    stays small."""
    n = str(int("10" * 750 + "1", 2))
    code, out, err = run_cli(capsys, "reduce", "--n", n, "--trace", "--format", "json")
    assert code == 0 and err == "" and out.startswith(f'{{"n": {n}, ')
    code, out, err = run_cli(capsys, "reduce", "--n", n, "--trace", "--format", "json", "--optional-rules")
    assert (code, out) == (3, "")
    assert err == "error: the derivation expands to a tree of more than the cap of 16777216 nodes\n"


def test_chains_plain(capsys):
    code, out, _ = run_cli(capsys, "chains", "--k", "8", "--n", "1")
    assert code == 0
    assert out.splitlines() == [
        "A base=1 len=4",
        "A base=3 len=2",
        "C base=5 len=1",
        "C base=7 len=1",
    ]


def test_chains_json(capsys):
    code, out, _ = run_cli(
        capsys, "chains", "--k", "8", "--n", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert len(payload) == 18
    assert payload[0] == {"kind": "A", "base": "1", "length": 2}
    assert sum(c["length"] for c in payload) == 48


def test_structure_plain(capsys):
    code, out, _ = run_cli(capsys, "structure", "--k", "8", "--n", "2")
    assert code == 0 and out == "(32,10,12,4,4)\n"


def test_structure_json(capsys):
    code, out, _ = run_cli(
        capsys, "structure", "--k", "8", "--n", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert payload == {
        "k": 8,
        "t": 2,
        "b": 32,
        "c": 10,
        "u": 12,
        "v": 4,
        "r": 4,
    }


def test_structure_small_k(capsys):
    code, out, _ = run_cli(capsys, "structure", "--k", "5", "--n", "2")
    assert code == 0
    assert out.count(",") == 2  # three components below k = 8


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "8", "--max-n", "4")
    assert code == 0
    assert out.startswith("PASS k=8 powers 0..4")


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--k", "7", "--max-n", "5", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["k"] == 7
    assert len(payload["vectors"]) == 6
    assert payload["failures"] == []


def test_reduce_plain_with_trace(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--n", "27", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=27 bits=11011 rule=suffix_011 value=2216"
    assert lines[-1] == "value 2216"


def test_reduce_plain_no_trace(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--n", "27")
    assert (code, out) == (0, "value 2216\n")


def test_reduce_json_with_trace(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--n", "27", "--trace", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["n"] == 27 and payload["value"] == 2216
    assert payload["trace"]["rule"] == "suffix_011"


def test_reduce_optional_rules(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--n", "1883", "--optional-rules")
    assert (code, out) == (0, "value 4997448\n")


def test_oeis_agree(capsys):
    code, out, _ = run_cli(
        capsys,
        "oeis",
        "--k",
        "2",
        "--bfile",
        str(FIXTURES / "b001316.txt"),
        "--limit",
        "16",
    )
    assert (code, out) == (0, "AGREE 0..16\n")


def test_oeis_defaults_to_full_coverage(capsys):
    code, out, _ = run_cli(
        capsys, "oeis", "--k", "3", "--bfile", str(FIXTURES / "b048883.txt")
    )
    assert (code, out) == (0, "AGREE 0..63\n")


def test_oeis_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "oeis",
        "--k",
        "1",
        "--bfile",
        str(FIXTURES / "b000012.txt"),
        "--limit",
        "10",
        "--format",
        "json",
    )
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["sequence_id"] == "A000012"
    assert payload["limit"] == 10


def test_oeis_mismatch_exits_4(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 2\n2 2\n3 5\n")
    code, out, _ = run_cli(
        capsys, "oeis", "--k", "2", "--bfile", str(bad), "--limit", "3"
    )
    assert code == 4
    assert out == "MISMATCH at n=3: computed 4, b-file 5\n"


def test_oeis_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "oeis", "--k", "2", "--bfile", str(tmp_path / "nope.txt")
    )
    assert code == 2
    assert err.startswith("error:")


def test_oeis_non_utf8_bfile_exits_2_with_the_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n1 \xff\xfe\n")
    code, out, err = run_cli(capsys, "oeis", "--k", "2", "--bfile", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2") and "Traceback" not in err


def test_oeis_fetch_without_network_exits_2(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise TransportError("no network in tests")

    monkeypatch.setattr("symnabla.cli.fetch_bfile", refuse)
    code, _, err = run_cli(
        capsys, "oeis", "--k", "2", "--fetch", "--cache-dir", str(tmp_path)
    )
    assert code == 2
    assert "no network in tests" in err


def test_every_package_error_exits_2_without_a_traceback(capsys, monkeypatch):
    """main maps any SymnablaError to exit 2, a subclass it does not
    name included; a SizeLimitError, also one, keeps exit 3."""

    class NewError(SymnablaError):
        pass

    class NewCapError(SizeLimitError):
        pass

    for error, status in ((NewError, 2), (NewCapError, 3)):

        def fail(args, error=error):
            raise error("made up for the test")

        monkeypatch.setattr(cli, "cmd_term", fail)
        code, out, err = run_cli(capsys, "term", "--k", "8", "--n", "5")
        assert (code, out, err) == (status, "", "error: made up for the test\n")


def test_oeis_fetch_rejects_uncatalogued_k_before_io(capsys, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("fetch_bfile must not be called for an uncatalogued k")

    monkeypatch.setattr("symnabla.cli.fetch_bfile", forbidden)
    code, out, err = run_cli(
        capsys, "oeis", "--k", "5", "--fetch", "--cache-dir", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: no catalogued sequence for k=5")


def test_oeis_fetch_uses_cache(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    src = (FIXTURES / "b001316.txt").read_text()
    (cache / "b001316.txt").write_text(src)
    code, out, _ = run_cli(
        capsys,
        "oeis",
        "--k",
        "2",
        "--fetch",
        "--cache-dir",
        str(cache),
        "--limit",
        "20",
    )
    assert (code, out) == (0, "AGREE 0..20\n")


def test_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "term", "--k", "0", "--n", "1")
    assert code == 2
    assert err == "error: k must be in 1..64, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "--k", "8", "--limit", "-1"),
        ("seq", "--k", "7", "--limit", "-1"),
        ("seq", "--k", "8", "--limit", "-1", "--method", "reduce"),
        ("seq", "--k", "2", "--limit", "-3", "--method", "brute"),
        ("sparse", "--k", "8", "--count", "-2"),
    ],
)
def test_negative_sizes_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be >= 0" in err


def test_size_limit_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "term",
        "--k",
        "8",
        "--n",
        "511",
        "--method",
        "brute",
        "--max-elements",
        "1000",
    )
    assert code == 3
    assert "over the cap 1000" in err


def test_memory_error_exits_3(capsys, monkeypatch):
    """An allocation the machine refuses ends in one error line, not a
    traceback, as seq --k 2 --limit 2**39 --max-elements 2**40 did."""

    def exhaust(*args, **kwargs):
        np.empty(1 << 58, dtype=np.int64)  # 2 EiB, past any address space

    monkeypatch.setattr(cli, "term_range", exhaust)
    code, out, err = run_cli(capsys, "seq", "--k", "2", "--limit", "10")
    assert (code, out) == (3, "")
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    monkeypatch.setattr(cli, "term_range", lambda *a, **kw: (_ for _ in ()).throw(MemoryError()))
    assert run_cli(capsys, "seq", "--k", "2", "--limit", "10") == (3, "", "error: out of memory\n")


def test_plain_trace_text_is_capped(capsys, monkeypatch):
    n = str(2**300 - 1)
    code, out, err = run_cli(capsys, "reduce", "--n", n, "--trace")
    assert code == 0 and err == ""
    monkeypatch.setattr(recurrence, "DEFAULT_ELEMENT_CAP", len(out) // 8 - 1)
    code, out, err = run_cli(capsys, "reduce", "--n", n, "--trace")
    assert (code, out) == (3, "")
    assert err.startswith("error: the trace text would pass the cap of ")


def test_seq_term_count_is_capped(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran before the cap check")

    monkeypatch.setattr(cli, "term_range", refuse)
    monkeypatch.setattr(cli, "matrix_term_range", refuse)
    monkeypatch.setattr(cli, "reduce_term_range", refuse)
    monkeypatch.setattr(cli, "power_card_sequence", refuse)
    for method in ("auto", "brute", "reduce"):
        code, out, err = run_cli(
            capsys, "seq", "--k", "8", "--limit", "100", "--method", method, "--max-elements", "50"
        )
        assert (code, out) == (3, "")
        assert err == "error: seq would hold 101 terms, over the cap 50\n"
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "seq", "--k", "8", "--limit", "49", "--max-elements", "50")
    assert code == 0 and len(out.split()) == 50


def test_seq_brute_refuses_before_building_sets(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a set was built before the refusal")

    monkeypatch.setattr(cli, "power_card_sequence", refuse)
    # the first a(n) over the cap, as the set sweep itself reports it
    for k, limit, size in ((5, 4097, 54142101), (3, 65537, 43046721), (7, 65537, 89419819)):
        code, out, err = run_cli(capsys, "seq", "--k", str(k), "--limit", str(limit), "--method", "brute")
        assert (code, out) == (3, "")
        assert err == f"error: symmetric power reached {size} elements, over the cap 16777216\n"
    code, _, err = run_cli(capsys, "seq", "--k", "8", "--limit", "40", "--method", "brute", "--max-elements", "300")
    assert code == 3 and err == "error: symmetric power reached 368 elements, over the cap 300\n"
    # term_range sweeps any limit the cap admits, so no set is built here either
    code, out, err = run_cli(capsys, "seq", "--k", "8", "--limit", str(2**22), "--method", "brute")
    assert (code, out) == (3, "")
    assert err == "error: symmetric power reached 17570128 elements, over the cap 16777216\n"
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "seq", "--k", "8", "--limit", "40", "--method", "brute")
    assert code == 0 and out.split() == [str(v) for v in term_range(8, 40).tolist()]


HUGE_N = 2**6000 - 1


@pytest.mark.parametrize("k, reference", [(8, matrix_term), (5, lambda n: fast_term(5, n))])
def test_term_prints_values_past_the_digit_limit(capsys, k, reference):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get_limit()
    outputs = {}
    for fmt in ("plain", "csv", "json", "bfile"):
        code, outputs[fmt], err = run_cli(
            capsys, "term", "--k", str(k), "--n", str(HUGE_N), "--format", fmt
        )
        assert (code, err) == (0, "")
        assert get_limit() == before  # main restores the limit it lifted
    if before is not None:
        sys.set_int_max_str_digits(0)
    try:
        n, value = str(HUGE_N), str(reference(HUGE_N))
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)
    assert outputs == {
        "plain": f"{value}\n",
        "csv": f"k,n,value\n{k},{n},{value}\n",
        "json": f'{{"k": {k}, "n": {n}, "method": "auto", "value": {value}}}\n',
        "bfile": f"{n} {value}\n",
    }


def test_verify_failure_exits_4(capsys, monkeypatch):
    """A doctored verification report routes to exit code 4."""
    import symnabla.cli as cli_mod

    class FakeReport:
        k = 8
        n_max = 2
        ok = False
        failures = ()
        vectors = ()

        def summary(self):
            return "FAIL fabricated"

    monkeypatch.setattr(cli_mod, "verify_transfer", lambda *a, **kw: FakeReport())
    code, out, _ = run_cli(capsys, "verify", "--k", "8", "--max-n", "2")
    assert code == 4
    assert out == "FAIL fabricated\n"


_BUMPED_B = "k=5 n=2 vector component=b: expected 13, got 10"


@pytest.mark.parametrize(
    "argv, doctored, code, out",
    [
        ("structure --k 8 --n 2 --format csv", False, 0, "b,c,u,v,r\n32,10,12,4,4\n"),
        ("structure --k 5 --n 2 --format csv", False, 0, "b,c,r\n10,4,11\n"),
        (
            "structure --k 5 --n 2 --format json",
            False,
            0,
            '{"k": 5, "t": 2, "b": 10, "c": 4, "u": 0, "v": 0, "r": 11}\n',
        ),
        (
            "verify --k 5 --max-n 2 --format json",
            False,
            0,
            '{"k": 5, "max_n": 2, "ok": true, "vectors": [[0, 0, 1], [3, 1, 2], [10, 4, 11]], '
            '"failures": []}\n',
        ),
        ("verify --k 5 --max-n 2", True, 4, f"FAIL k=5: 1 mismatch(es)\n{_BUMPED_B}\n"),
        (
            "verify --k 5 --max-n 2 --format json",
            True,
            4,
            '{"k": 5, "max_n": 2, "ok": false, "vectors": [[0, 0, 1], [3, 1, 2], [10, 4, 11]], '
            f'"failures": ["{_BUMPED_B}"]}}\n',
        ),
        (
            "oeis --k 4 --bfile b253064.txt --format json",
            False,
            0,
            '{"k": 4, "sequence_id": "A253064", "limit": 63, "ok": true, "mismatch": null}\n',
        ),
        ("oeis --k 3 --bfile b001316.txt", False, 4, "MISMATCH at n=1: computed 3, b-file 2\n"),
        (
            "oeis --k 3 --bfile b001316.txt --format json",
            False,
            4,
            '{"k": 3, "sequence_id": "A048883", "limit": 63, "ok": false, "mismatch": [1, 3, 2]}\n',
        ),
        ("reduce --n 27 --format json", False, 0, '{"n": 27, "value": 2216, "optional_rules": false}\n'),
        (
            "reduce --n 27 --optional-rules --format json",
            False,
            0,
            '{"n": 27, "value": 2216, "optional_rules": true}\n',
        ),
    ],
)
def test_single_result_commands_print_pinned_bytes(capsys, monkeypatch, argv, doctored, code, out):
    """Literal stdout and exit code of structure, verify and oeis in each
    format, and of untraced reduce in json.  A doctored replay bumps one
    entry of k = 5's step matrix."""
    if doctored:
        from symnabla import chains

        rows = [list(r) for r in chains._STEP_ROWS[5]]
        rows[0][0] += 1
        monkeypatch.setitem(chains._STEP_ROWS, 5, tuple(map(tuple, rows)))
    args = [str(FIXTURES / a) if a.startswith("b") and a.endswith(".txt") else a for a in argv.split()]
    assert run_cli(capsys, *args) == (code, out, "")


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["term", "--k", "8"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sparse", "--k", "8", "--count", "3", "--format", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["oeis", "--k", "2"])  # needs --bfile or --fetch
    assert exc.value.code == 2


def test_chains_format_excludes_bfile():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["chains", "--k", "8", "--n", "1", "--format", "bfile"])


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors and --help
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_answers_as_a_fresh_one(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 2\n2 2\n3 5\n")
    fixture = str(FIXTURES / "b001316.txt")
    calls = [
        ("seq", "--k", "8", "--limit", "20", "--format", "json"),
        ("seq", "--k", "8", "--limit", "20"),  # defaults again after non-default options
        ("reduce", "--n", "27", "--trace", "--optional-rules", "--format", "json"),
        ("reduce", "--n", "27"),
        ("term", "--k", "8"),  # usage error: no --n
        ("term", "--k", "8", "--n", "27", "--method", "brute", "--format", "csv"),
        ("term", "--k", "0", "--n", "1"),  # exit 2
        ("seq", "--k", "8", "--limit", "100", "--max-elements", "50"),  # exit 3
        ("seq", "--k", "8", "--limit", "63", "--method", "brute"),  # the default cap again
        ("sparse", "--k", "8", "--count", "3", "--format", "nonsense"),  # usage error
        ("oeis", "--k", "2", "--bfile", str(bad), "--limit", "3"),  # exit 4
        ("oeis", "--k", "2", "--bfile", fixture, "--limit", "16", "--format", "json"),
        ("oeis", "--k", "2", "--bfile", fixture),  # --limit back to the b-file's coverage
        ("term", "--help"),
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", build_parser)  # a new parser for every call
        fresh = [_outcome(capsys, argv) for argv in calls]
    assert {code for code, _, _ in fresh} == {0, 2, 3, 4, ("SystemExit", 2), ("SystemExit", 0)}
    cli._parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in calls] == fresh
    assert [_outcome(capsys, argv) for argv in reversed(calls)] == fresh[::-1]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for n in range(40):
        assert main(["term", "--k", str(n % 8 + 1), "--n", str(n)]) == 0
        with pytest.raises(SystemExit):
            main(["term", "--k", "8"])
    capsys.readouterr()
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_main_runs_the_command_function_patched_after_the_parser_is_built(capsys, monkeypatch):
    # a tracer wraps cmd_* on the module after the first call has built the parser
    assert main(["term", "--k", "8", "--n", "27"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_term", lambda args: seen.append(args.n) or 0)
    assert main(["term", "--k", "8", "--n", "5"]) == 0
    assert seen == [5] and capsys.readouterr().out == "2216\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symnabla", "term", "--k", "8", "--n", "27"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2216\n"


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "symnabla", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    for name in ("term", "seq", "sparse", "chains", "structure", "verify", "reduce"):
        assert name in proc.stdout


def test_closed_stdout_exits_quietly():
    """A reader that stops early (as `| head -c 100` does) gets no traceback.

    The output, several MB, outgrows the pipe buffer, so the child is
    still writing when the pipe closes.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "symnabla", "seq", "--k", "8", "--limit", "300000", "--format", "bfile"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert head.startswith(b"0 1\n1 8\n")
    assert "Traceback" not in err and err == ""


def test_huge_sizes_are_refused_before_any_work(capsys):
    # 1 << t for t = 2**70 cannot even be formed; the cap refuses first
    for command in ("chains", "structure"):
        code, out, err = run_cli(capsys, command, "--k", "8", "--n", str(2**70))
        assert (code, out) == (3, "")
        assert "over the cap" not in err and "more than the cap of 16777216" in err
    # the coverage scan does not enumerate 0..limit
    code, out, err = run_cli(
        capsys, "oeis", "--k", "2", "--bfile", str(FIXTURES / "b001316.txt"), "--limit", str(2**70)
    )
    assert (code, out) == (2, "")
    assert err == f"error: b-file does not cover indices 64..{2**70} (needs 0..{2**70})\n"
    # the set oracle builds only H**0 = {1} for a power-of-two index, so 2**63 is cheap and exact
    brute = run_cli(capsys, "term", "--k", "2", "--n", str(2**63), "--method", "brute")
    assert brute == run_cli(capsys, "term", "--k", "2", "--n", str(2**63), "--method", "auto") == (0, "2\n", "")


SIZES = (-1, 0, 1, 2, 3, 7, 11, 2**31 - 1, 2**62, 2**63 - 1, 2**63, 2**64 + 1, 2**70)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(("term", "seq", "sparse", "chains", "structure", "verify", "reduce", "oeis")),
    k=st.integers(-1, 13),
    size=st.sampled_from(SIZES),
    method=st.sampled_from(METHODS),
    fmt=st.sampled_from(("plain", "csv", "json", "bfile")),
    cap=st.sampled_from((-1, 0, 1, 64, 500)),
    count=st.integers(-2, 2**70),
)
def test_cli_fuzz_exit_codes(command, k, size, method, fmt, cap, count):
    """Any argument mix ends in a documented exit code, never a traceback."""
    argv = [command]
    if command != "reduce":
        argv += ["--k", str(k)]
    if command in ("term", "reduce", "chains", "structure"):
        argv += ["--n", str(size)]
    elif command in ("seq", "oeis"):
        argv += ["--limit", str(size)]
    elif command == "verify":
        argv += ["--max-n", str(size)]
    else:
        argv += ["--count", str(count)]
    if command in ("term", "seq"):
        argv += ["--method", method]
    if command == "oeis":
        argv += ["--bfile", str(FIXTURES / "b001316.txt")]
    if command not in ("sparse", "reduce", "oeis"):
        argv += ["--max-elements", str(cap)]
    argv += ["--format", fmt]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the format or a value
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
