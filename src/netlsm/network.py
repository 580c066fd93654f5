"""Data model and CSV serialization for indirectly-observed bipartite networks.

A compatibility network is a signed, weighted, bipartite graph whose node and
edge weights are statistical estimates carrying per-observation standard
errors.  Unobserved donor/recipient pairs are tracked with an explicit mask
rather than sentinel values, because zero is a meaningful weight.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from ._util import FLOAT_FMT, _floats, csv_text, parse_float, read_csv, write_text_atomic

__all__ = [
    "CompatibilityNetwork",
    "NetworkFormatError",
    "load_network",
    "save_network",
]

# the files of a network directory, in load_network's argument order
_FILES = ("edges.csv", "donor_nodes.csv", "recipient_nodes.csv")


class NetworkFormatError(ValueError):
    """Malformed or inconsistent network file content, with row context."""


def _as_1d(x, n, what):
    a = np.asarray(x, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {a.shape}")
    return a


@dataclass(frozen=True)
class CompatibilityNetwork:
    """Bipartite signed weighted network with per-observation standard errors.

    Donor-side node weights/errors have length ``n_d``, recipient-side length
    ``n_r``; edge arrays are ``n_d x n_r``.  ``edge_mask`` is True where the
    pair was observed; edge weight/stderr values at masked-out positions are
    ignored everywhere downstream.
    """

    donor_labels: tuple
    recipient_labels: tuple
    donor_weight: np.ndarray
    donor_se: np.ndarray
    recipient_weight: np.ndarray
    recipient_se: np.ndarray
    edge_weight: np.ndarray
    edge_se: np.ndarray
    edge_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        dl = tuple(str(x) for x in self.donor_labels)
        rl = tuple(str(x) for x in self.recipient_labels)
        n_d, n_r = len(dl), len(rl)
        if n_d < 1 or n_r < 1:
            raise ValueError("need at least one donor and one recipient node")
        if len(set(dl)) != n_d or len(set(rl)) != n_r:
            raise ValueError("node labels must be unique within each side")
        dw = _as_1d(self.donor_weight, n_d, "donor_weight")
        ds = _as_1d(self.donor_se, n_d, "donor_se")
        rw = _as_1d(self.recipient_weight, n_r, "recipient_weight")
        rs = _as_1d(self.recipient_se, n_r, "recipient_se")
        ew = np.asarray(self.edge_weight, dtype=float)
        es = np.asarray(self.edge_se, dtype=float)
        if ew.shape != (n_d, n_r) or es.shape != (n_d, n_r):
            raise ValueError(f"edge arrays must have shape ({n_d}, {n_r})")
        mask = self.edge_mask
        mask = np.ones((n_d, n_r), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if mask.shape != (n_d, n_r):
            raise ValueError(f"edge_mask must have shape ({n_d}, {n_r})")
        if not mask.any():
            raise ValueError("edge_mask must have at least one observed pair")
        for v, s, what in ((dw, ds, "donor"), (rw, rs, "recipient")):
            if not np.all(np.isfinite(v)) or not np.all(np.isfinite(s)):
                raise ValueError(f"{what} node weights/stderrs must be finite")
            if not np.all(s > 0):
                raise ValueError(f"{what} node stderrs must be strictly positive")
        if not np.all(np.isfinite(ew[mask])) or not np.all(np.isfinite(es[mask])):
            raise ValueError("edge weights/stderrs must be finite at observed pairs")
        if not np.all(es[mask] > 0):
            raise ValueError("edge stderrs must be strictly positive at observed pairs")
        for name, val in (
            ("donor_labels", dl), ("recipient_labels", rl),
            ("donor_weight", dw), ("donor_se", ds),
            ("recipient_weight", rw), ("recipient_se", rs),
            ("edge_weight", ew), ("edge_se", es), ("edge_mask", mask),
        ):
            object.__setattr__(self, name, val)
        for a in (dw, ds, rw, rs, ew, es, mask):
            a.setflags(write=False)

    @property
    def n_d(self):
        return len(self.donor_labels)

    @property
    def n_r(self):
        return len(self.recipient_labels)


def _read_columns(path, expected_header, what):
    """``(lines, columns)`` of :func:`read_csv`, the cells stripped.  The
    header must be ``expected_header``; a file without data rows raises,
    naming ``what`` rows.
    """
    header, lines, columns = read_csv(path, NetworkFormatError)
    if header != expected_header:
        raise NetworkFormatError(
            f"{path}: expected header {','.join(expected_header)}, got {','.join(header)}"
        )
    if not lines:
        raise NetworkFormatError(f"{path}: no {what} rows")
    return lines, columns


def _indices(index, cells):
    """Each of ``cells`` as its value in ``index``, an int array, or None if
    one is not a key."""
    try:
        return np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))
    except KeyError:
        return None


# The row walks below raise the first fault in file order, each row's checks
# in the order of the messages; the loaders call them only once a column-wise
# check has failed.


def _check_numbers(path, line, w, s, name):
    if parse_float(s, "stderr", NetworkFormatError, path, line) <= 0:
        raise NetworkFormatError(f"{path}:{line}: non-positive stderr for {name}")
    parse_float(w, "weight", NetworkFormatError, path, line)


def _raise_first_node_fault(path, lines, labels, w, s):
    seen = set()
    for line, label, wc, sc in zip(lines, labels, w, s):
        if label in seen:
            raise NetworkFormatError(f"{path}:{line}: duplicate node {label!r}")
        seen.add(label)
        _check_numbers(path, line, wc, sc, f"node {label!r}")


def _raise_first_edge_fault(path, lines, don, rec, w, s, d_index, r_index):
    seen = set()
    for line, a, b, wc, sc in zip(lines, don, rec, w, s):
        if a not in d_index:
            raise NetworkFormatError(f"{path}:{line}: unknown donor node {a!r}")
        if b not in r_index:
            raise NetworkFormatError(f"{path}:{line}: unknown recipient node {b!r}")
        if (a, b) in seen:
            raise NetworkFormatError(f"{path}:{line}: duplicate pair ({a}, {b})")
        seen.add((a, b))
        _check_numbers(path, line, wc, sc, f"pair ({a}, {b})")


def _load_nodes(path):
    lines, (labels, w, s) = _read_columns(path, ["node", "weight", "stderr"], "node")
    weights, ses = _floats(w), _floats(s, positive=True)
    if weights is None or ses is None or len(set(labels)) < len(labels):
        _raise_first_node_fault(path, lines, labels, w, s)
    return labels, weights, ses


def load_network(edges_path, donor_nodes_path, recipient_nodes_path):
    """Load a network from its three CSV files.

    Pairs absent from the edges file get ``edge_mask`` False.  Raises
    :class:`NetworkFormatError` with file/row context on malformed rows,
    duplicate pairs, non-positive standard errors, or unknown node labels.
    Each column is parsed and checked at once; only when a check fails are
    the rows walked, to name the first faulty one.
    """
    dl, dw, ds = _load_nodes(donor_nodes_path)
    rl, rw, rs = _load_nodes(recipient_nodes_path)
    d_index = {lab: i for i, lab in enumerate(dl)}
    r_index = {lab: j for j, lab in enumerate(rl)}
    n_d, n_r = len(dl), len(rl)
    lines, (don, rec, w, s) = _read_columns(
        edges_path, ["donor", "recipient", "weight", "stderr"], "edge"
    )
    i, j = _indices(d_index, don), _indices(r_index, rec)
    mask = np.zeros((n_d, n_r), dtype=bool)
    if i is not None and j is not None:
        mask[i, j] = True
    weights, ses = _floats(w), _floats(s, positive=True)
    if weights is None or ses is None or np.count_nonzero(mask) < len(lines):
        _raise_first_edge_fault(edges_path, lines, don, rec, w, s, d_index, r_index)
    ew = np.zeros((n_d, n_r))
    es = np.ones((n_d, n_r))
    ew[i, j] = weights
    es[i, j] = ses
    return CompatibilityNetwork(dl, rl, dw, ds, rw, rs, ew, es, mask)


def save_network(net, dir_path):
    """Write edges.csv, donor_nodes.csv, recipient_nodes.csv under ``dir_path``.

    Weights are printed with 17 significant digits, so a load/save round trip
    is bit-exact.  The directory is created with the first file, if absent.
    All three files are built before any is written, so a label
    :func:`csv_text` rejects leaves ``dir_path`` as it was.  Returns the
    three file names, in that order.
    """
    edges, donors, recipients = (os.path.join(dir_path, f) for f in _FILES)
    texts = {}
    for path, labels, w, s in (
        (donors, net.donor_labels, net.donor_weight, net.donor_se),
        (recipients, net.recipient_labels, net.recipient_weight, net.recipient_se),
    ):
        rows = [(lab, FLOAT_FMT % wv, FLOAT_FMT % sv)
                for lab, wv, sv in zip(labels, w.tolist(), s.tolist())]
        texts[path] = csv_text(path, ["node", "weight", "stderr"], rows, labels)
    i, j = np.nonzero(net.edge_mask)  # row-major: donor by donor, recipients in order
    rows = [
        (net.donor_labels[a], net.recipient_labels[b], FLOAT_FMT % wv, FLOAT_FMT % sv)
        for a, b, wv, sv in zip(i.tolist(), j.tolist(), net.edge_weight[i, j].tolist(),
                                net.edge_se[i, j].tolist())
    ]
    # the edge labels are the node files' labels, checked there
    texts[edges] = csv_text(edges, ["donor", "recipient", "weight", "stderr"], rows, ())
    for path, text in texts.items():
        write_text_atomic(path, text)
    return list(_FILES)


def load_network_dir(dir_path):
    """Load a network from a directory written by :func:`save_network`."""
    return load_network(*(os.path.join(dir_path, f) for f in _FILES))
