"""Small shared helpers: seeded sub-streams, SciPy's compiled routines, atomic
file writes, CSV and JSON encoding, and a map over one forked child."""

import csv
import importlib.machinery
import importlib.util
import io
import json
import math
import os
import pickle
import signal
import sys
import tempfile
import zlib

import numpy as np
import scipy


def substream(seed, *names):
    """Return a Generator derived from ``seed`` and a tuple of stream names.

    Distinct name tuples give statistically independent streams, so adding a
    new consumer of randomness does not perturb existing ones.
    """
    key = tuple(zlib.crc32(n.encode("utf-8")) for n in names)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def scipy_extension(name):
    """The compiled module ``scipy.<name>`` (e.g. ``"optimize._lbfgsb"``,
    ``"linalg._flapack"``), without importing its package.

    :mod:`scipy.optimize` imports linprog, HiGHS, :mod:`scipy.fft`,
    :mod:`scipy.special` and :mod:`scipy.spatial`; it and :mod:`scipy.linalg`
    both import SciPy's array-API layer, which pulls in :mod:`numpy.testing`
    and :mod:`unittest`.  netlsm calls only the C routines of ``_lbfgsb``,
    ``_zeros`` and LAPACK's ``_flapack``, so it loads those alone.  The
    module already in :data:`sys.modules` under that name is returned as it
    is.  Otherwise the extension file is loaded from its package's directory
    under SciPy's and registered under that name, so a later import of the
    package shares this one instance.
    """
    fullname = f"scipy.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        finder = importlib.machinery.FileFinder(
            os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[:-1]),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(fullname)
        if spec is None:
            raise ImportError(f"no compiled module {fullname} in SciPy {scipy.__version__}",
                              name=fullname)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[fullname] = module
    return module


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
    every data row's ``k``-th cell, each name and cell stripped as
    ``str.strip`` strips.  Blank lines (whitespace and commas only) are
    skipped.  Every row is split and its field count checked before
    this returns, so an empty file, bytes that are not UTF-8, a field over
    :func:`csv.field_size_limit`, or a row whose field count differs from
    the header's, raises ``error`` naming ``path`` and the line before a
    caller sees any cell.  A UTF-8 byte-order mark, as spreadsheet exports
    write, is dropped.  The file is read and closed before this returns.

    A file that :func:`_split_unquoted` can take, as every file netlsm
    writes is unless a label needs quotes, is split in whole-file passes;
    any other goes through the ``csv`` reader row by row
    (:func:`_csv_rows`), the one path that parses quotes and names a faulty
    line.  Both give the same result, or raise the same error.
    """
    data, text = _decoded(path, error)
    table = _split_unquoted(data, text)
    return _csv_rows(path, text, error) if table is None else table


def _decoded(path, error):
    """The bytes of the file at ``path`` and their UTF-8 text, each without a
    leading byte-order mark, or ``error`` naming the line of a byte that is
    not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line holding the bad byte, counted as the csv reader counts
        before = io.StringIO(data[: exc.start].decode("utf-8") + "x", newline="")
        raise error(f"{path}:{len(before.readlines())}: not UTF-8 text "
                    f"({exc.reason})") from None
    if text.startswith("\ufeff"):
        return memoryview(data)[3:], text[1:]
    return data, text


def _csv_rows(path, text, error):
    """:func:`read_csv` of ``text``, the file at ``path``, through the
    ``csv`` reader, one row at a time; the cells are stripped once all are
    collected."""
    reader = csv.reader(io.StringIO(text, newline=""))
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
    # stripped per column, not per row as read: on a quoted 400x400 edges file
    # (2 vCPU) the strips cost ~15 ms this way, ~50 ms per row
    return (list(map(str.strip, header)), lines,
            [list(map(str.strip, cells[k::n])) for k in range(n)])


def _split_unquoted(data, text):
    """:func:`read_csv` of ``text``, whose UTF-8 bytes are ``data``, split
    in whole-file passes; None unless every row is plain.

    Plain means: no double quote, carriage return or NUL, a non-empty
    header line, no blank data row, every data row with the header's field
    count and no field over :func:`csv.field_size_limit` bytes.  The ``csv``
    reader would then split each line at its commas and nothing else, and
    data row ``r`` (from 1) would end on line ``r + 1``.  In UTF-8 the
    bytes of a comma and a line feed encode nothing else, so their
    positions in ``data`` bound the rows and fields; the cells are cut from
    ``text`` by one ``str.split``, and stripped only if a byte could be
    whitespace, which none could in a file netlsm writes from plain labels.
    """
    if not text or '"' in text or "\r" in text or "\0" in text:
        return None
    b = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(b == 10)  # each row's line feed, or the end of the text
    # every character str.strip strips is non-ASCII or a byte below 33
    padded = not text.isascii() or np.count_nonzero(b < 33) > ends.size
    if b[-1] != 10:
        ends = np.append(ends, b.size)
    if ends[0] == 0:
        return None  # an empty header line, which csv reads as no fields
    commas = np.flatnonzero(b == 44)
    rows = ends.size  # the header included
    n = int(np.searchsorted(commas, ends[0])) + 1
    if commas.size != rows * (n - 1):
        return None
    # row r's fields lie between its start - 1, its n - 1 commas (if the
    # count is right, the r-th run of n - 1) and its end; a run that
    # strays out of its row makes a width negative
    bounds = np.column_stack((np.concatenate(([-1], ends[:-1])), commas.reshape(rows, n - 1),
                              ends))
    widths = np.diff(bounds) - 1
    if widths.min() < 0 or widths.max() > csv.field_size_limit():
        return None
    cells = text.removesuffix("\n").replace("\n", ",").split(",")  # header, then data
    # a blank data row is one whose stripped cells are all empty; with
    # nothing to strip, one of exactly n - 1 commas
    if padded:
        cells = list(map(str.strip, cells))
        blank = not all(map(any, zip(*[iter(cells[n:])] * n)))  # the rows, n cells each
    else:
        blank = (np.diff(ends) == n).any()
    if blank:
        return None
    return cells[:n], list(range(2, rows + 1)), [cells[n + k::n] for k in range(n)]


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
    """``cells``, stripped by :func:`read_csv`, as a float array, or None if
    one is malformed, not finite or, with ``positive``, not above 0."""
    try:
        a = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None
    if not np.all(np.isfinite(a)) or (positive and not np.all(a > 0)):
        return None
    return a


def csv_text(path, header, rows, labels):
    """``header`` and ``rows``, whose label fields are ``labels``, as CSV
    text for the file at ``path``.

    Lines end in a line feed.  A field is quoted, as in RFC 4180, only when it
    holds a comma, a double quote or a line feed, so plain fields are written
    as they are.  A field that would read back changed raises ``ValueError``
    naming ``path`` and the field: a label with surrounding whitespace, which
    :func:`read_csv` strips (the other fields are numbers), or a field
    holding a carriage return, which the writer does not quote and
    :func:`read_csv` would take for a line end, or a NUL, which Python 3.10's
    ``csv`` reader refuses.
    """
    for label in labels:
        if label != label.strip():
            raise ValueError(f"{path}: label {label!r} has surrounding whitespace")
    rows = list(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    for char, name in (("\r", "a carriage return"), ("\0", "a NUL")):
        if char in text:
            field = next(f for row in [header, *rows] for f in row if char in str(f))
            raise ValueError(f"{path}: field {field!r} holds {name}")
    return text


def write_csv(path, header, rows, labels):
    """Write :func:`csv_text` to ``path`` atomically; if it raises, nothing is written."""
    write_text_atomic(path, csv_text(path, header, rows, labels))


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
