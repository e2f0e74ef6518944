"""Command-line front end.

Exit codes: 0 success, 2 usage or domain error, 3 resource cap
exceeded or memory exhausted (a MemoryError), 4 verification
mismatch.  A stdout closed by its reader (as ``| head`` does) ends the
command quietly with 0.

``main`` may be called repeatedly in one process.  It parses with one
parser per process, built on the first call, so a later call pays only
for parsing and its command; ``build_parser`` returns a new parser.

Each output shape has one printer:

* a record, the one result of ``term``, ``structure``, ``verify`` and
  ``oeis``: ``_print_record``, which holds the plain, csv, json and
  bfile rule for all four;
* a sequence indexed from 0 (``seq``, ``sparse``): ``_print_values``;
* a chain list (``chains``): ``cmd_chains`` itself;
* a value and its derivation trace (``reduce``): ``cmd_reduce``
  itself, which streams the trace's JSON in slices.

Indexing conventions differ by command, deliberately:

* ``term``, ``seq`` and ``reduce`` take the dense index n;
* ``sparse``, ``chains`` and ``structure`` walk the all-ones family and
  take the exponent t, meaning the power set at index 2**t - 1.  So
  ``chains --k 8 --n 1`` describes the base set itself and
  ``structure --k 8 --n 2`` the 48-element power at index 3.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from .chains import (
    census,
    census_components,
    chain_as_dict,
    chains_to_text,
    decompose,
    verify_transfer,
)
from .core import DEFAULT_ELEMENT_CAP, check_sequence_cap, power_card_sequence, sym_power
from .errors import CoverageError, DomainError, SizeLimitError, SymnablaError
from .oeis import catalogued_id, crosscheck, fetch_bfile, parse_bfile
from .recurrence import (
    METHODS,
    matrix_term_range,
    reduce_term,
    reduce_term_range,
    resolve_method,
    sparse_terms,
    term,
    term_range,
)


def _print_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_record(fmt: str, record: dict, plain, csv_keys=(), index=None) -> None:
    """Print one result: json prints the record, csv the values of
    csv_keys under that header, bfile the line "index plain" and plain
    the plain object.  Only the branch taken turns a value into text."""
    if fmt == "json":
        print(json.dumps(record))
    elif fmt == "csv":
        _print_csv(list(csv_keys), [[record[key] for key in csv_keys]])
    elif fmt == "bfile":
        print(index, plain)
    else:
        print(plain)


_CHUNK = 1 << 16  # rows per piece of vectorised output
_TEXT_SLICE = 1 << 20  # characters per write of a long text

# A uint64 x has 1 + searchsorted(_TENS, x, "right") digits.  x must be
# uint64 too: against int64 input, searchsorted compares in float64.
_TENS = 10 ** np.arange(1, 20, dtype=np.uint64)
# Byte i of a '<u8' word is its i-th character, on any host.  _KEEP[z]
# has the bytes z..7 set: it keeps a word of 8 digits past z leading zeros.
_KEEP = np.array([sum(1 << 8 * i for i in range(z, 8)) for z in range(9)], dtype="<u8")
_ASCII_ZEROS = np.uint64(0x3030303030303030)


@functools.cache
def _keep_rows(limbs: int) -> np.ndarray:
    """Row d - 1: the keep words of a d-digit value, right-aligned in
    limbs words of 8 digits."""
    zeros = 8 * limbs - np.arange(1, 21)
    return _KEEP[np.clip(zeros[:, None] - 8 * np.arange(limbs), 0, 8)]


def _lane_split(y: np.ndarray, q: np.ndarray, divisor: int, lane: int) -> np.ndarray:
    """Split each lane of y into two lanes of half its width: q = y //
    divisor (lanewise) in the low half, y - divisor * q in the high one,
    so the leading digits come first in memory.  q + ((y - divisor q)
    << lane) is y << lane plus q times 1 - (divisor << lane) mod 2**64."""
    y <<= np.uint64(lane)
    q *= np.uint64((1 - (divisor << lane)) % 2**64)
    y += q
    return y


def _digit_words(x: np.ndarray, limbs: int) -> tuple[np.ndarray, np.ndarray]:
    """The decimal digits of an array x of integers in [0, 2**64),
    right-aligned in a (rows, limbs) matrix of '<u8' words of 8 ASCII
    digits, most significant first, and the matching keep words: every
    byte but the leading zeros, and the last digit always, so 0 prints
    as 0.

    Each base-10**8 limb becomes one word by SWAR: it is split 4|4
    digits into 32-bit lanes, then 2|2 into 16-bit lanes with
    (y * 10486) >> 20 for y // 100 (exact below 43699), then 1|1 into
    bytes with (y * 103) >> 10 for y // 10 (exact below 179)."""
    u = x.astype(np.uint64)
    keep = _keep_rows(limbs).take(np.searchsorted(_TENS, u, side="right"), axis=0)
    y = np.empty((limbs, len(x)), dtype=np.uint64)  # one contiguous row per limb
    for j in range(limbs - 1):
        scale = np.uint64(10 ** (8 * (limbs - 1 - j)))
        y[j] = u // scale
        u -= y[j] * scale
    y[-1] = u
    y = _lane_split(y, y // np.uint64(10**4), 10**4, 32)
    q = (y * np.uint64(10486) >> np.uint64(20)) & np.uint64(0x0000007F0000007F)
    y = _lane_split(y, q, 100, 16)
    q = (y * np.uint64(103) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    y = _lane_split(y, q, 10, 8)
    y |= _ASCII_ZEROS
    return y.T, keep


def _word(text: bytes) -> int:
    """The '<u8' word whose first bytes are text and the rest zero."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _write_int64(values: np.ndarray, end: str, index_sep: str = "", join: bool = False) -> None:
    """Write each value of an array of integers in [0, 2**64) in decimal
    and then end, preceded by its index and index_sep when index_sep is
    given.  With join, end only separates values.  Each chunk of rows is
    laid out as one (rows, words) matrix of '<u8' words: up to three
    words of 8 digits per number (``_digit_words``) and one word per
    separator.
    A flat boolean index of its bytes by the keep words compacts it, so
    no str is made per value."""
    for lo in range(0, len(values), _CHUNK):
        chunk = values[lo : lo + _CHUNK]
        fields = [chunk, end]
        if index_sep:
            fields[:0] = [np.arange(lo, lo + len(chunk)), index_sep]
        words = [1 if isinstance(f, str) else -(-len(str(int(f.max()))) // 8) for f in fields]
        text = np.empty((len(chunk), sum(words)), dtype="<u8")
        keep = np.empty(text.shape, dtype="<u8")
        at = 0
        for field, width in zip(fields, words):
            columns = slice(at, at + width)
            if isinstance(field, str):
                text[:, columns] = _word(field.encode("ascii"))
                keep[:, columns] = _word(b"\1" * len(field))
            else:
                text[:, columns], keep[:, columns] = _digit_words(field, width)
            at += width
        out = text.view(np.uint8).reshape(-1)[keep.view(bool).reshape(-1)].tobytes()
        if join and lo + _CHUNK >= len(values):
            out = out[: -len(end)]
        sys.stdout.write(out.decode("ascii"))


def _write_list(values: list, end: str, index_sep: str = "", join: bool = False) -> None:
    """``_write_int64`` for a list, whose values may be big ints.  Each
    chunk of rows is joined on its own, so only one chunk of str objects
    is alive at a time; without indices, json's C encoder joins it, as
    it writes an int exactly as str does."""
    row = f"{{}}{index_sep}{{}}".format
    for lo in range(0, len(values), _CHUNK):
        chunk = values[lo : lo + _CHUNK]
        if index_sep:
            sys.stdout.write(end.join(map(row, range(lo, lo + len(chunk)), chunk)))
        else:
            sys.stdout.write(json.dumps(chunk, separators=(end, ":"))[1:-1])
        if not (join and lo + _CHUNK >= len(values)):
            sys.stdout.write(end)


def _print_values(values, fmt: str, index: str, json_fields: dict) -> None:
    """Print a sequence indexed from 0, in the formats seq and sparse
    share.  A uint64 array (a sweep's output) goes through
    ``_write_int64``; a list or an object array, whose values may be big
    ints, through ``_write_list``, with the same bytes."""
    if isinstance(values, np.ndarray) and values.dtype == object:
        values = values.tolist()
    write = _write_int64 if isinstance(values, np.ndarray) else _write_list
    if fmt == "plain":
        write(values, " ", join=True)
        sys.stdout.write("\n")
    elif fmt == "csv":
        sys.stdout.write(f"{index},value\n")
        write(values, "\n", index_sep=",")
    elif fmt == "json":
        head = json.dumps({**json_fields, "values": []})
        sys.stdout.write(head[:-2])
        write(values, ", ", join=True)
        sys.stdout.write(head[-2:] + "\n")
    else:  # bfile
        write(values, "\n", index_sep=" ")


def _check_size(name: str, value: int) -> None:
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")


def _seq_values(k: int, limit: int, method: str, max_elements: int) -> list[int] | np.ndarray:
    _check_size("limit", limit)
    if limit + 1 > max_elements:
        raise SizeLimitError(
            f"seq would hold {limit + 1} terms, over the cap {max_elements}"
        )
    engine = resolve_method(k, method)
    if engine == "brute":
        if k <= 8:  # refuse a term over the cap before building any set
            check_sequence_cap(k, term_range(k, limit, max_elements=max_elements), max_elements)
        return power_card_sequence(k, limit, max_elements=max_elements)
    if method == "auto":
        return term_range(k, limit, max_elements=max_elements)
    if engine == "reduce":
        return reduce_term_range(limit, max_elements=max_elements)
    if engine == "matrix":
        return matrix_term_range(limit, k, max_elements=max_elements)
    return [term(k, n, engine) for n in range(limit + 1)]  # the fast engine is per index


def _sparse_values(k: int, count: int) -> list[int]:
    """The first count terms of the all-ones family, refused before
    they are computed when their decimal digits could pass
    DEFAULT_ELEMENT_CAP.

    The bound needs no term.  By the square-class split,
    a(2m + 1) = sum over the square-free c of |H^m * Q_c| <= k * a(m),
    since the classes Q_c hold k elements in all; so term t, a(2**t - 1),
    is at most k**t and has at most floor(t * log10(k)) + 1 digits.
    Every term has a digit, so a count past the cap is refused before
    the bound is taken in floating point.
    """
    _check_size("count", count)
    if count == 0:
        return []
    terms = sparse_terms(k)
    values = [next(terms)]  # raises for a k outside 1..8
    cap = DEFAULT_ELEMENT_CAP
    digits = count
    if count <= cap:
        digits += math.ceil(math.log10(k) * (count * (count - 1) // 2))
    if digits > cap:
        raise SizeLimitError(
            f"the first {count} sparse terms may hold up to {digits} digits, "
            f"over the cap {cap}"
        )
    values += islice(terms, count - 1)
    return values


def cmd_term(args) -> int:
    value = term(args.k, args.n, args.method, max_elements=args.max_elements)
    record = {"k": args.k, "n": args.n, "method": args.method, "value": value}
    _print_record(args.format, record, value, ("k", "n", "value"), args.n)
    return 0


def cmd_seq(args) -> int:
    values = _seq_values(args.k, args.limit, args.method, args.max_elements)
    _print_values(values, args.format, "n", {"k": args.k, "method": args.method})
    return 0


def cmd_sparse(args) -> int:
    values = _sparse_values(args.k, args.count)
    _print_values(values, args.format, "t", {"k": args.k})
    return 0


def _power_at_exponent(k: int, t: int, max_elements: int):
    if t < 0:
        raise DomainError(f"exponent must be >= 0, got {t}")
    census_components(k)  # chain analysis covers k = 4..8 only
    # sym_power passes through the powers at 2**s - 1 for every s < t,
    # which hold sparse_term(k, s) elements.  Checking those sizes first
    # refuses a t past the cap before 2**t - 1 is even formed.
    for s, size in enumerate(sparse_terms(k)):
        if s == t:
            return sym_power(k, (1 << t) - 1, max_elements=max_elements)
        if size > max_elements:
            raise SizeLimitError(
                f"the power at index 2**{t} - 1 would hold more than the cap of {max_elements} elements"
            )


def cmd_chains(args) -> int:
    chains = decompose(_power_at_exponent(args.k, args.n, args.max_elements))
    if args.format == "plain":
        print(chains_to_text(chains))
    elif args.format == "csv":
        _print_csv(
            ["kind", "base", "length"],
            [[c.kind, str(c.base_value), c.length] for c in chains],
        )
    else:  # json
        print(json.dumps([chain_as_dict(c) for c in chains]))
    return 0


def cmd_structure(args) -> int:
    sv = census(_power_at_exponent(args.k, args.n, args.max_elements))
    record = {"k": args.k, "t": args.n, **dataclasses.asdict(sv)}
    _print_record(args.format, record, sv, census_components(args.k))
    return 0


def cmd_verify(args) -> int:
    report = verify_transfer(args.k, args.max_n, max_elements=args.max_elements)
    record = {
        "k": report.k,
        "max_n": report.n_max,
        "ok": report.ok,
        "vectors": [list(v.vector()) for v in report.vectors],
        "failures": [f.message() for f in report.failures],
    }
    _print_record(args.format, record, report.summary())
    return 0 if report.ok else 4


def cmd_reduce(args) -> int:
    if args.trace:
        value, trace = reduce_term(
            args.n, trace=True, optional_rules=args.optional_rules
        )
    else:
        value = reduce_term(args.n, optional_rules=args.optional_rules)
        trace = None
    if args.format == "plain":
        if trace is not None:
            print(trace.to_text())
        print(f"value {value}")
    else:  # json
        text = json.dumps({"n": args.n, "value": value, "optional_rules": args.optional_rules})
        if trace is None:
            print(text)
            return 0
        # The trace is the last key, written by its own encoder, and in
        # slices, so that stdout never encodes a second copy of it at once.
        trace_text = trace.to_json()
        sys.stdout.write(f'{text[:-1]}, "trace": ')
        for lo in range(0, len(trace_text), _TEXT_SLICE):
            sys.stdout.write(trace_text[lo : lo + _TEXT_SLICE])
        print("}")
    return 0


def cmd_oeis(args) -> int:
    sequence_id = catalogued_id(args.k)  # before any file or network access
    if args.bfile is not None:
        try:
            data = Path(args.bfile).read_bytes()
        except OSError as exc:
            raise DomainError(f"cannot read b-file {args.bfile}: {exc}") from exc
        bfile = parse_bfile(data)
    else:
        bfile = fetch_bfile(sequence_id, allow_network=True, cache_dir=args.cache_dir)
    limit = args.limit
    if limit is None:
        limit = bfile.contiguous_limit_from(0)
        if limit is None:
            raise CoverageError("b-file has no entry for index 0")
    report = crosscheck(args.k, bfile, limit)
    record = {
        "k": report.k,
        "sequence_id": report.sequence_id or sequence_id,
        "limit": report.limit,
        "ok": report.ok,
        "mismatch": report.mismatch,
    }
    _print_record(args.format, record, report.summary())
    return 0 if report.ok else 4


def _add_format(parser, choices=("plain", "csv", "json", "bfile")) -> None:
    parser.add_argument(
        "--format", choices=list(choices), default="plain", help="output format"
    )


def _add_cap(parser) -> None:
    parser.add_argument(
        "--max-elements",
        type=int,
        default=DEFAULT_ELEMENT_CAP,
        dest="max_elements",
        help="abort beyond this many set elements, or seq terms (exit 3)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symnabla",
        description=(
            "Cardinalities and chain structure of symmetric powers of {1..k} "
            "under the symmetric-difference product."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("term", help="one sequence term")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="dense index n")
    p.add_argument("--method", choices=METHODS, default="auto")
    _add_format(p)
    _add_cap(p)

    p = sub.add_parser("seq", help="terms 0..limit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, required=True, help="last dense index, inclusive")
    p.add_argument("--method", choices=METHODS, default="auto")
    _add_format(p)
    _add_cap(p)

    p = sub.add_parser(
        "sparse", help="terms of the all-ones family (indices 2**t - 1)"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True, help="number of terms, from t=0")
    _add_format(p)

    p = sub.add_parser(
        "chains",
        help="chain decomposition of the power at index 2**t - 1 "
        "(--n is the exponent t, not the dense index)",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True, metavar="T", help="exponent t")
    _add_format(p, ("plain", "csv", "json"))
    _add_cap(p)

    p = sub.add_parser(
        "structure",
        help="structural vector of the power at index 2**t - 1 "
        "(--n is the exponent t, not the dense index)",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True, metavar="T", help="exponent t")
    _add_format(p, ("plain", "csv", "json"))
    _add_cap(p)

    p = sub.add_parser(
        "verify", help="replay the transfer step against the brute oracle"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    _add_format(p, ("plain", "json"))
    _add_cap(p)

    p = sub.add_parser("reduce", help="k=8 term by rewriting, optionally traced")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trace", action="store_true", help="print the derivation")
    p.add_argument(
        "--optional-rules",
        action="store_true",
        help="enable the shortcut rewrites (values never change, but a JSON trace can "
        "pass the node cap and exit 3 where the core rules' trace prints)",
    )
    _add_format(p, ("plain", "json"))

    p = sub.add_parser("oeis", help="cross-check terms against an OEIS b-file")
    p.add_argument("--k", type=int, required=True, help="1..4")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--bfile", help="path to a local b-file")
    src.add_argument(
        "--fetch",
        action="store_true",
        help="fetch from oeis.org (cached under $SYMNABLA_CACHE)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        help="last index to compare (default: the b-file's contiguous coverage)",
    )
    p.add_argument("--cache-dir", default=None)
    _add_format(p, ("plain", "json"))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on the first call and kept for the
    process; parsing leaves it unchanged.  METHODS and the
    DEFAULT_ELEMENT_CAP default are bound into it then, but main looks
    up each command's cmd_* function by name, so a wrapped one (as a
    tracer installs) still runs."""
    return build_parser()


def main(argv=None) -> int:
    # Exact values of any size must print in every format, so the
    # int-to-str digit limit (Python 3.11+) is lifted for the call.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        status = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader stopped early, as `| head` does.  Later writes,
        # including the flush at interpreter exit, go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (SizeLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except SymnablaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
