"""Small shared helpers: seeded sub-streams, atomic file writes, CSV and JSON
encoding, and a map over one forked child."""

import csv
import io
import json
import math
import os
import pickle
import signal
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
    this returns, so an empty file, bytes that are not UTF-8, a field over
    :func:`csv.field_size_limit`, or a row whose field count differs from
    the header's, raises ``error`` naming ``path`` and the line before a
    caller sees any cell.  A UTF-8 byte-order mark, as spreadsheet exports
    write, is dropped.  The file is read and closed before this returns.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line holding the bad byte, counted as the reader below counts
        before = io.StringIO(data[: exc.start].decode("utf-8") + "x", newline="")
        raise error(f"{path}:{len(before.readlines())}: not UTF-8 text "
                    f"({exc.reason})") from None
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file")
        n = len(header)
        # the cells go into one flat list and each row's list is dropped: the
        # garbage collector rescans every live list, so keeping 160000 rows'
        # lists made a 400x400 network load in ~1.3 s, against ~0.55 s this way
        lines, cells = [], []
        for row in reader:
            if not "".join(row).strip():
                continue
            if len(row) != n:
                raise error(f"{path}:{reader.line_num}: expected {n} fields, got {len(row)}")
            lines.append(reader.line_num)
            cells += row
    except csv.Error as exc:  # a field over the size limit
        raise error(f"{path}:{reader.line_num}: {exc}") from None
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


def _workers():
    """The CPUs this process may run on, if it can fork and runs one thread,
    else 1; :func:`map_units` forks only at 2 or more.

    A process that runs threads (unpinned BLAS starts its own) is never
    forked: the child would get only the forking thread, and any lock another
    thread held stays held in it.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        with open("/proc/self/status", "rb") as f:
            one_thread = b"\nThreads:\t1\n" in f.read()
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if one_thread else 1


def map_units(fn, items):
    """``[fn(item) for item in items]``, in item order, over at most two processes.

    When :func:`_workers` is 2 or more and there are two items or more, item
    0 runs in this process and items 1 onwards, in order, in one forked
    child, which pickles its results back over a pipe and always ends in
    ``os._exit``.  ``fn`` and the items reach the child by the fork, so only
    results and exceptions are pickled, and a float comes back with its
    bytes.  Otherwise this is the plain loop.  One child is enough for a
    caller whose item 0 is its longest: more would add only fork round trips
    and contention between the CPUs.

    As the loop would, this raises the exception of the first failing item
    in item order, with its type and message (the child's without its
    traceback).  A child that ends without sending its results raises
    ``RuntimeError`` naming its exit status.  The child is reaped before
    this returns or raises; if it is still running then, it is killed first.
    """
    items = list(items)
    if len(items) < 2 or _workers() < 2:
        return [fn(item) for item in items]
    pid, pipe = _fork(fn, items[1:])
    try:
        with pipe:
            first = fn(items[0])
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        pid = None
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"worker process exited with status "
                           f"{os.waitstatus_to_exitcode(status)} without a result")
    rest, exc = pickle.loads(data)
    if exc is not None:
        raise exc
    return [first, *rest]


def _fork(fn, items):
    """Fork a child that runs ``fn`` over ``items`` (see :func:`_serve`);
    return its pid and the read end of its pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        _serve(fn, items, w)  # never returns
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _serve(fn, items, fd):
    """A forked child's whole life: run ``fn`` over ``items`` in order until
    one raises, write the pickled ``(results, exception or None)`` to ``fd``,
    and ``os._exit``, so that nothing of the parent's (buffers, ``atexit``
    handlers, a test runner) runs twice."""
    status = 1
    try:
        done = []
        try:
            for item in items:
                done.append(fn(item))
        except Exception as exc:
            _send(fd, (done, exc))
            raise
        _send(fd, (done, None))
        status = 0
    finally:
        os._exit(status)


def _send(fd, payload):
    # pickled whole before the first write, so that a payload that cannot be
    # pickled sends nothing and the parent reports the exit status
    data = pickle.dumps(payload)
    with os.fdopen(fd, "wb") as pipe:
        pipe.write(data)
