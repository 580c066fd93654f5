"""Small shared helpers: seeded sub-streams, atomic file writes, CSV and JSON encoding."""

import csv
import io
import json
import math
import os
import tempfile
import zlib

import numpy as np


def substream(seed, *names):
    """Return a Generator derived from ``seed`` and a tuple of stream names.

    Distinct name tuples give statistically independent streams, so adding a
    new consumer of randomness does not perturb existing ones.
    """
    key = tuple(zlib.crc32(n.encode("utf-8")) for n in names)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` via a temp file + rename in the same directory."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


FLOAT_FMT = "%.17g"  # round-trip exact for IEEE doubles


def read_csv(path, error):
    """``(header, lines, columns)`` of the CSV file at ``path``.

    ``lines`` holds the file line that ends each data row, and ``columns[k]``
    every data row's ``k``-th cell, as read.  Blank lines (whitespace and
    commas only) are skipped.  Every row is split and its field count checked before
    this returns, so an empty file, or a row whose field count differs from
    the header's, raises ``error`` naming ``path`` and the line before a
    caller sees any cell.  A UTF-8 byte-order mark, as spreadsheet exports
    write, is dropped.  The file is read and closed before this returns.
    """
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(io.StringIO(f.read(), newline=""))
    header = next(reader, None)
    if header is None:
        raise error(f"{path}: empty file")
    n = len(header)
    # the cells go into one flat list and each row's list is dropped: the
    # garbage collector rescans every live list, so keeping 160000 rows' lists
    # made a 400x400 network load in ~1.3 s, against ~0.55 s this way
    lines, cells = [], []
    for row in reader:
        if not "".join(row).strip():
            continue
        if len(row) != n:
            raise error(f"{path}:{reader.line_num}: expected {n} fields, got {len(row)}")
        lines.append(reader.line_num)
        cells += row
    return header, lines, [cells[k::n] for k in range(n)]


def parse_float(text, what, error, path, line):
    """``float(text)``, or ``error`` naming ``path:line`` if it is malformed or not finite."""
    try:
        v = float(text)
    except ValueError:
        raise error(f"{path}:{line}: malformed {what} {text!r}") from None
    if not math.isfinite(v):
        raise error(f"{path}:{line}: non-finite {what}")
    return v


def _floats(cells, positive=False):
    """``cells`` as a float array, or None if one is malformed, not finite or,
    with ``positive``, not above 0."""
    try:
        a = np.array(list(map(float, cells)))
    except ValueError:
        return None
    if not np.all(np.isfinite(a)) or (positive and not np.all(a > 0)):
        return None
    return a


def csv_text(path, header, rows):
    """``header`` and ``rows`` as CSV text, for the file at ``path``.

    Lines end in a line feed.  A field is quoted, as in RFC 4180, only when it
    holds a comma, a double quote or a line feed, so plain fields are written
    as they are.  The writer does not quote a carriage return, which
    :func:`read_csv` would take for a line end, so a field holding one raises
    ``ValueError`` naming ``path`` and the field.
    """
    rows = list(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if "\r" in text:
        field = next(f for row in [header, *rows] for f in row if "\r" in str(f))
        raise ValueError(f"{path}: field {field!r} holds a carriage return")
    return text


def write_csv(path, header, rows):
    """Write :func:`csv_text` to ``path`` atomically; if it raises, nothing is written."""
    write_text_atomic(path, csv_text(path, header, rows))


def _jsonable(obj):
    """``json.dumps``' hook for what it cannot encode: a numpy array or scalar as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(obj, path=None):
    """Canonical JSON text (sorted keys, repr-exact floats); optionally write it."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n"
    if path is not None:
        write_text_atomic(path, text)
    return text
