import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netlsm import CompatibilityNetwork, NetworkFormatError, load_network, save_network
from netlsm.network import load_network_dir

from helpers import LABELS, random_network, networks_equal


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


    @pytest.mark.parametrize("side, fname", [("donor_labels", "donor_nodes.csv"),
                                             ("recipient_labels", "recipient_nodes.csv")])
    @pytest.mark.parametrize("label", ["a\rb", "a\r\nb", "a,\rb"])
    def test_carriage_return_label_is_rejected(self, tmp_path, label, side, fname):
        # read back, an unquoted carriage return would end the row, so the
        # writer refuses it, naming the file and the field, and writes no file
        net = random_network(np.random.default_rng(4), 2, 2)
        net = dataclasses.replace(net, **{side: ("n0", label)})
        with pytest.raises(ValueError) as exc:
            save_network(net, tmp_path)
        assert fname in str(exc.value) and repr(label) in str(exc.value)
        assert list(tmp_path.iterdir()) == []


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
