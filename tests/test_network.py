import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netlsm import CompatibilityNetwork, NetworkFormatError, load_network, save_network
from netlsm.network import load_network_dir

from helpers import LABELS, random_network, networks_equal


# whitespace that str.strip strips, to put around a label
PADDING = st.text(st.sampled_from(" \t\x1c\u00a0\u2028"), max_size=2)


def write(path, text):
    path.write_text(text, encoding="utf-8")


def node_csv(rows):
    return "node,weight,stderr\n" + "".join(f"{r}\n" for r in rows)


def edge_csv(rows):
    return "donor,recipient,weight,stderr\n" + "".join(f"{r}\n" for r in rows)


class TestLoad:
    def test_single_edge(self, tmp_path):
        write(tmp_path / "e.csv", edge_csv(["A1,a1,0.25,0.10"]))
        write(tmp_path / "d.csv", node_csv(["A1,0.5,0.2"]))
        write(tmp_path / "r.csv", node_csv(["a1,-0.5,0.2"]))
        net = load_network(tmp_path / "e.csv", tmp_path / "d.csv", tmp_path / "r.csv")
        assert net.n_d == 1 and net.n_r == 1
        assert net.edge_weight[0, 0] == 0.25
        assert net.edge_se[0, 0] == 0.10
        assert net.edge_mask[0, 0]

    def test_omitted_pair_masked(self, tmp_path):
        write(tmp_path / "e.csv", edge_csv(["A1,a1,0.25,0.10"]))
        write(tmp_path / "d.csv", node_csv(["A1,0.5,0.2"]))
        write(tmp_path / "r.csv", node_csv(["a1,-0.5,0.2", "a2,0.1,0.3"]))
        net = load_network(tmp_path / "e.csv", tmp_path / "d.csv", tmp_path / "r.csv")
        assert net.edge_mask[0, 0] and not net.edge_mask[0, 1]

    def test_zero_stderr_rejected_with_row(self, tmp_path):
        write(tmp_path / "e.csv", edge_csv(["A1,a1,0.25,0.10", "A1,a2,0.1,0.0"]))
        write(tmp_path / "d.csv", node_csv(["A1,0.5,0.2"]))
        write(tmp_path / "r.csv", node_csv(["a1,-0.5,0.2", "a2,0.1,0.3"]))
        with pytest.raises(NetworkFormatError, match=r":3: non-positive stderr"):
            load_network(tmp_path / "e.csv", tmp_path / "d.csv", tmp_path / "r.csv")

    def test_malformed_weight(self, tmp_path):
        write(tmp_path / "e.csv", edge_csv(["A1,a1,zzz,0.10"]))
        write(tmp_path / "d.csv", node_csv(["A1,0.5,0.2"]))
        write(tmp_path / "r.csv", node_csv(["a1,-0.5,0.2"]))
        with pytest.raises(NetworkFormatError, match=r":2: malformed weight"):
            load_network(tmp_path / "e.csv", tmp_path / "d.csv", tmp_path / "r.csv")

    def test_duplicate_pair(self, tmp_path):
        write(tmp_path / "e.csv", edge_csv(["A1,a1,0.25,0.10", "A1,a1,0.3,0.10"]))
        write(tmp_path / "d.csv", node_csv(["A1,0.5,0.2"]))
        write(tmp_path / "r.csv", node_csv(["a1,-0.5,0.2"]))
        with pytest.raises(NetworkFormatError, match="duplicate pair"):
            load_network(tmp_path / "e.csv", tmp_path / "d.csv", tmp_path / "r.csv")

    def test_unknown_label(self, tmp_path):
        write(tmp_path / "e.csv", edge_csv(["B9,a1,0.25,0.10"]))
        write(tmp_path / "d.csv", node_csv(["A1,0.5,0.2"]))
        write(tmp_path / "r.csv", node_csv(["a1,-0.5,0.2"]))
        with pytest.raises(NetworkFormatError, match="unknown donor node"):
            load_network(tmp_path / "e.csv", tmp_path / "d.csv", tmp_path / "r.csv")

    def test_bad_header(self, tmp_path):
        write(tmp_path / "e.csv", "a,b\n")
        write(tmp_path / "d.csv", node_csv(["A1,0.5,0.2"]))
        write(tmp_path / "r.csv", node_csv(["a1,-0.5,0.2"]))
        with pytest.raises(NetworkFormatError, match="expected header"):
            load_network(tmp_path / "e.csv", tmp_path / "d.csv", tmp_path / "r.csv")


GOOD = "A1,a1,0.25,0.10"
DONORS = ("A1,0.5,0.2", "A2,0.1,0.3")
RECIPIENTS = ("a1,-0.5,0.2", "a2,0.1,0.3")


def net_paths(d):
    return {"e": d / "e.csv", "d": d / "d.csv", "r": d / "r.csv"}


def load_rows(d, edges, donors=DONORS, recipients=RECIPIENTS):
    """Write the three files of these rows under directory ``d`` and load them."""
    d.mkdir(exist_ok=True)
    paths = net_paths(d)
    write(paths["e"], edge_csv(edges))
    write(paths["d"], node_csv(donors))
    write(paths["r"], node_csv(recipients))
    return load_network(paths["e"], paths["d"], paths["r"])


def load_error(d, edges=(GOOD,), **rows):
    """The message the loader raises on these rows, and the paths ``{e}``, ``{d}``, ``{r}``."""
    with pytest.raises(NetworkFormatError) as exc:
        load_rows(d, edges, **rows)
    return str(exc.value), {k: str(v) for k, v in net_paths(d).items()}


# (edge rows, message); line 2 is the first data row
EDGE_FAULTS = {
    "unknown-donor": ([GOOD, "B9,a2,0.1,0.1"], "{e}:3: unknown donor node 'B9'"),
    "unknown-recipient": ([GOOD, "A1,b9,0.1,0.1"], "{e}:3: unknown recipient node 'b9'"),
    "duplicate-pair": ([GOOD, "A2,a1,0.1,0.1", "A1,a1,0.3,0.10"], "{e}:4: duplicate pair (A1, a1)"),
    "malformed-stderr": ([GOOD, "A1,a2,0.1,abc"], "{e}:3: malformed stderr 'abc'"),
    "empty-stderr": ([GOOD, "A1,a2,0.1, "], "{e}:3: malformed stderr ''"),
    "nan-stderr": ([GOOD, "A1,a2,0.1,nan"], "{e}:3: non-finite stderr"),
    "inf-stderr": ([GOOD, "A1,a2,0.1,inf"], "{e}:3: non-finite stderr"),
    "zero-stderr": ([GOOD, "A1,a2,0.1,0.0"], "{e}:3: non-positive stderr for pair (A1, a2)"),
    "negative-stderr": ([GOOD, "A1,a2,0.1,-0.5"], "{e}:3: non-positive stderr for pair (A1, a2)"),
    "malformed-weight": ([GOOD, "A1,a2,zzz,0.1"], "{e}:3: malformed weight 'zzz'"),
    "nan-weight": ([GOOD, "A1,a2,NaN,0.1"], "{e}:3: non-finite weight"),
    "inf-weight": ([GOOD, "A1,a2,-inf,0.1"], "{e}:3: non-finite weight"),
    # cells are named stripped
    "padded-unknown-donor": ([GOOD, " B9\t,a2,0.1,0.1"], "{e}:3: unknown donor node 'B9'"),
    "padded-malformed-weight": ([GOOD, " A1 , a2 , zzz ,0.1"], "{e}:3: malformed weight 'zzz'"),
}

# (donor node rows, message)
NODE_FAULTS = {
    "duplicate-node": (["A1,0.5,0.2", "A2,0.1,0.3", "A1,0.1,0.3"], "{d}:4: duplicate node 'A1'"),
    "malformed-stderr": (["A1,0.5,0.2", "A2,0.1,x"], "{d}:3: malformed stderr 'x'"),
    "nonfinite-stderr": (["A1,0.5,0.2", "A2,0.1,inf"], "{d}:3: non-finite stderr"),
    "zero-stderr": (["A1,0.5,0.2", "A2,0.1,0"], "{d}:3: non-positive stderr for node 'A2'"),
    "negative-stderr": (["A1,0.5,0.2", "A2,0.1,-1e-9"], "{d}:3: non-positive stderr for node 'A2'"),
    "malformed-weight": (["A1,0.5,0.2", "A2,1.2.3,0.3"], "{d}:3: malformed weight '1.2.3'"),
    "nonfinite-weight": (["A1,0.5,0.2", "A2,nan,0.3"], "{d}:3: non-finite weight"),
}


class TestLoadErrors:
    """The loader's exact messages, and which fault it names when there are several."""

    @pytest.mark.parametrize("edges, message", EDGE_FAULTS.values(), ids=EDGE_FAULTS)
    def test_edge_fault(self, tmp_path, edges, message):
        got, paths = load_error(tmp_path, edges=edges)
        assert got == message.format(**paths)

    @pytest.mark.parametrize("donors, message", NODE_FAULTS.values(), ids=NODE_FAULTS)
    def test_node_fault(self, tmp_path, donors, message):
        got, paths = load_error(tmp_path, donors=donors)
        assert got == message.format(**paths)

    def test_recipient_node_fault(self, tmp_path):
        got, paths = load_error(tmp_path, recipients=["a1,-0.5,0.2", "a2,0.1,0"])
        assert got == "{r}:3: non-positive stderr for node 'a2'".format(**paths)

    @pytest.mark.parametrize("side, rows, message", [
        ("edges", [GOOD, "A1,a2,0.25"], "{e}:3: expected 4 fields, got 3"),
        ("edges", [GOOD, "A1,a2,0.25,0.1,7"], "{e}:3: expected 4 fields, got 5"),
        ("donors", ["A1,0.5,0.2", "A2,0.1"], "{d}:3: expected 3 fields, got 2"),
        ("recipients", ["a1,-0.5,0.2,1"], "{r}:2: expected 3 fields, got 4"),
        ("edges", [], "{e}: no edge rows"),
        ("donors", [], "{d}: no node rows"),
        ("recipients", [], "{r}: no node rows"),
    ], ids=["edge-short", "edge-long", "node-short", "node-long", "edges-header-only",
            "donors-header-only", "recipients-header-only"])
    def test_file_fault(self, tmp_path, side, rows, message):
        got, paths = load_error(tmp_path, **{side: rows})
        assert got == message.format(**paths)

    def test_empty_file(self, tmp_path):
        paths = net_paths(tmp_path)
        write(paths["e"], "")
        write(paths["d"], node_csv(DONORS))
        write(paths["r"], node_csv(RECIPIENTS))
        with pytest.raises(NetworkFormatError) as exc:
            load_network(paths["e"], paths["d"], paths["r"])
        assert str(exc.value) == f"{paths['e']}: empty file"

    def test_blank_rows_are_skipped_and_counted(self, tmp_path):
        # blank lines and rows of only commas and whitespace are skipped, and
        # line numbers still count them
        edges = [GOOD, "", ",,,", " , ,\t, ", "A2,a2,-1.5,0.2"]
        net = load_rows(tmp_path / "blank", edges, donors=["A1,0.5,0.2", "", "A2,0.1,0.3"])
        plain = load_rows(tmp_path / "plain", [GOOD, "A2,a2,-1.5,0.2"])
        assert networks_equal(net, plain)
        assert net.edge_mask.tolist() == [[True, False], [False, True]]
        got, paths = load_error(tmp_path, edges=edges + ["", "A1,a9,0.1,0.1"])
        assert got == "{e}:8: unknown recipient node 'a9'".format(**paths)

    @pytest.mark.parametrize("edges, message", [
        ([GOOD, "A1,a2,0.1,0", "B9,a2,0.1,0.1"], "{e}:3: non-positive stderr for pair (A1, a2)"),
        ([GOOD, "A2,a1,zzz,0.1", "A1,a1,0.1,0.1"], "{e}:3: malformed weight 'zzz'"),
        ([GOOD, "A2,a1,0.1,0.1", "A2,a1,0.1,0.1", "A1,b9,0.1,0.1"],
         "{e}:4: duplicate pair (A2, a1)"),
    ], ids=["stderr-before-unknown", "weight-before-duplicate", "duplicate-before-unknown"])
    def test_the_earlier_of_two_faulty_rows_is_named(self, tmp_path, edges, message):
        got, paths = load_error(tmp_path, edges=edges)
        assert got == message.format(**paths)

    @pytest.mark.parametrize("side, rows, message", [
        ("edges", [GOOD, "B9,b9,zzz,0"], "{e}:3: unknown donor node 'B9'"),
        ("edges", [GOOD, "A1,b9,zzz,0"], "{e}:3: unknown recipient node 'b9'"),
        ("edges", [GOOD, "A1,a1,zzz,0"], "{e}:3: duplicate pair (A1, a1)"),
        ("edges", [GOOD, "A1,a2,zzz,0"], "{e}:3: non-positive stderr for pair (A1, a2)"),
        ("edges", [GOOD, "A1,a2,zzz,abc"], "{e}:3: malformed stderr 'abc'"),
        ("edges", [GOOD, "A1,a2,inf,nan"], "{e}:3: non-finite stderr"),
        ("donors", ["A1,0.5,0.2", "A1,zzz,0"], "{d}:3: duplicate node 'A1'"),
        ("donors", ["A1,0.5,0.2", "A2,zzz,0"], "{d}:3: non-positive stderr for node 'A2'"),
        ("donors", ["A1,0.5,0.2", "A2,zzz,x"], "{d}:3: malformed stderr 'x'"),
    ], ids=["donor-first", "recipient-next", "duplicate-next", "stderr-before-weight",
            "malformed-stderr-first", "nonfinite-stderr-first", "node-duplicate-first",
            "node-stderr-before-weight", "node-malformed-stderr-first"])
    def test_one_row_with_two_faults_names_the_first_check(self, tmp_path, side, rows, message):
        got, paths = load_error(tmp_path, **{side: rows})
        assert got == message.format(**paths)

    def test_files_are_checked_donors_recipients_edges(self, tmp_path):
        bad_d, bad_r = ["A1,0.5,0"], ["a1,-0.5,0"]
        got, paths = load_error(tmp_path, edges=["B9,a1,0.1,0.1"], donors=bad_d,
                                recipients=bad_r)
        assert got == "{d}:2: non-positive stderr for node 'A1'".format(**paths)
        got, paths = load_error(tmp_path, edges=["B9,a1,0.1,0.1"], donors=["A1,0.5,0.2"],
                                recipients=bad_r)
        assert got == "{r}:2: non-positive stderr for node 'a1'".format(**paths)

    def test_a_field_count_fault_is_found_before_any_value_fault(self, tmp_path):
        # each file's rows are split into fields before any cell is read
        got, paths = load_error(tmp_path, edges=[GOOD, "A1,a2,zzz,0.1", "A2,a1,0.5"])
        assert got == "{e}:4: expected 4 fields, got 3".format(**paths)


class TestRoundTrip:
    def test_random_3x4(self, tmp_path):
        net = random_network(np.random.default_rng(1), 3, 4)
        save_network(net, tmp_path / "net")
        assert networks_equal(net, load_network_dir(tmp_path / "net"))

    def test_half_masked(self, tmp_path):
        net = random_network(np.random.default_rng(2), 5, 6, mask_frac=0.5)
        save_network(net, tmp_path / "net")
        back = load_network_dir(tmp_path / "net")
        assert np.array_equal(net.edge_mask, back.edge_mask)
        assert networks_equal(net, back)

    def test_padded_cells_read_as_the_plain_files(self, tmp_path, monkeypatch):
        # every cell padded, with characters float() leaves (U+001C) and ones
        # it strips; the files hold no quote, so they are split without csv
        net = random_network(np.random.default_rng(4), 5, 6, mask_frac=0.3)
        save_network(net, tmp_path / "net")
        for name in ("edges.csv", "donor_nodes.csv", "recipient_nodes.csv"):
            path = tmp_path / "net" / name
            lines = path.read_text(encoding="utf-8").splitlines()
            write(path, "".join(",".join(f"\x1c {c}\t" for c in line.split(",")) + "\n"
                                for line in lines))

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(csv, "reader", no_reader)
        assert networks_equal(net, load_network_dir(tmp_path / "net"))

    def test_creates_directory(self, tmp_path):
        net = random_network(np.random.default_rng(3), 2, 2)
        target = tmp_path / "a" / "b"
        save_network(net, target)
        assert (target / "edges.csv").exists()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 60), st.integers(1, 60),
           st.floats(0.0, 0.9))
    def test_round_trip_property(self, tmp_path_factory, seed, n_d, n_r, mask_frac):
        net = random_network(np.random.default_rng(seed), n_d, n_r, mask_frac=mask_frac)
        d = tmp_path_factory.mktemp("rt")
        save_network(net, d)
        assert networks_equal(net, load_network_dir(d))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.lists(LABELS, min_size=1, max_size=4, unique=True),
           st.lists(LABELS, min_size=1, max_size=4, unique=True))
    def test_quoted_labels_round_trip(self, tmp_path_factory, seed, donors, recipients):
        net = random_network(np.random.default_rng(seed), len(donors), len(recipients))
        net = dataclasses.replace(net, donor_labels=donors, recipient_labels=recipients)
        d = tmp_path_factory.mktemp("rt")
        save_network(net, d)
        assert networks_equal(net, load_network_dir(d))


    @pytest.mark.parametrize("fname", ["edges.csv", "donor_nodes.csv", "recipient_nodes.csv"])
    def test_a_byte_order_mark_is_dropped(self, tmp_path, fname):
        # spreadsheet exports start a UTF-8 file with U+FEFF; the header still matches
        net = random_network(np.random.default_rng(5), 3, 4, mask_frac=0.3)
        save_network(net, tmp_path)
        path = tmp_path / fname
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert networks_equal(net, load_network_dir(tmp_path))

    @pytest.mark.parametrize("side, fname", [("donor_labels", "donor_nodes.csv"),
                                             ("recipient_labels", "recipient_nodes.csv")])
    @pytest.mark.parametrize("label", ["a\rb", "a\r\nb", "a,\rb", " a", "a\t", "\u00a0a",
                                       "a\x00b"])
    def test_carriage_return_label_is_rejected(self, tmp_path, label, side, fname):
        # read back, an unquoted carriage return would end the row,
        # surrounding whitespace would be stripped, and Python 3.10's csv
        # refuses a NUL, so the writer refuses each, naming the file and the
        # field, and writes no file
        net = random_network(np.random.default_rng(4), 2, 2)
        net = dataclasses.replace(net, **{side: ("n0", label)})
        with pytest.raises(ValueError) as exc:
            save_network(net, tmp_path)
        assert fname in str(exc.value) and repr(label) in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(PADDING, LABELS, PADDING).map("".join))
    def test_a_label_round_trips_or_is_refused(self, tmp_path_factory, label):
        net = random_network(np.random.default_rng(6), 1, 2)
        net = dataclasses.replace(net, donor_labels=(label,))
        d = tmp_path_factory.mktemp("rt")
        try:
            save_network(net, d)
        except ValueError as exc:
            assert label != label.strip() and repr(label) in str(exc)
            assert list(d.iterdir()) == []
        else:
            assert label == label.strip()
            assert networks_equal(net, load_network_dir(d))


class TestValidation:
    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            CompatibilityNetwork(("a", "a"), ("b",), [0, 0], [1, 1], [0], [1],
                                 [[0], [0]], [[1], [1]], None)

    def test_nonpositive_node_se(self):
        with pytest.raises(ValueError, match="strictly positive"):
            CompatibilityNetwork(("a",), ("b",), [0], [0.0], [0], [1], [[0]], [[1]], None)

    def test_nonfinite_observed_edge(self):
        with pytest.raises(ValueError, match="finite"):
            CompatibilityNetwork(("a",), ("b",), [0], [1], [0], [1],
                                 [[np.inf]], [[1]], None)

    def test_masked_entries_unvalidated(self):
        # non-finite values at masked-out positions are fine
        net = CompatibilityNetwork(("a",), ("b", "c"), [0], [1], [0, 0], [1, 1],
                                   [[0.5, np.nan]], [[1.0, -3.0]],
                                   [[True, False]])
        assert net.edge_mask[0, 0] and not net.edge_mask[0, 1]

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError, match="at least one observed"):
            CompatibilityNetwork(("a",), ("b",), [0], [1], [0], [1],
                                 [[0.0]], [[1.0]], [[False]])

    def test_arrays_read_only(self):
        net = random_network(np.random.default_rng(0), 2, 3)
        with pytest.raises(ValueError):
            net.edge_weight[0, 0] = 9.0
