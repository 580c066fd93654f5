"""Shared builders for the test suite."""

import numpy as np
from hypothesis import strategies as st

from netlsm import CompatibilityNetwork, LsmParams
from netlsm._util import substream

# Node and type labels: commas, double quotes and line feeds, which a CSV file
# must quote, mixed with any other text.  read_csv strips every cell, so the
# writer refuses a label with surrounding whitespace (see _util.csv_text), and
# none is drawn.  Also left out are "\r", which the writer refuses too, and
# NUL, which Python 3.10's csv reader rejects.
LABELS = st.text(
    st.sampled_from(',"\n') | st.characters(exclude_categories=("Cs",),
                                             exclude_characters="\r\x00"),
    min_size=1, max_size=6,
).filter(lambda s: s == s.strip())


def random_network(rng, n_d, n_r, mask_frac=0.0, se_lo=0.2, se_hi=1.0):
    """Random valid network; mask_frac of edges unobserved (at least one kept)."""
    mask = rng.random((n_d, n_r)) >= mask_frac
    if not mask.any():
        mask[0, 0] = True
    return CompatibilityNetwork(
        donor_labels=tuple(f"d{i}" for i in range(n_d)),
        recipient_labels=tuple(f"r{j}" for j in range(n_r)),
        donor_weight=rng.normal(size=n_d),
        donor_se=rng.uniform(se_lo, se_hi, n_d),
        recipient_weight=rng.normal(size=n_r),
        recipient_se=rng.uniform(se_lo, se_hi, n_r),
        edge_weight=rng.normal(size=(n_d, n_r)),
        edge_se=rng.uniform(se_lo, se_hi, (n_d, n_r)),
        edge_mask=mask,
    )


def random_params(rng, n_d, n_r, dim, scale=0.7):
    return LsmParams(
        z_d=scale * rng.standard_normal((n_d, dim)),
        z_r=scale * rng.standard_normal((n_r, dim)),
        alpha=float(rng.normal()),
        beta=float(np.exp(0.5 * rng.normal())),
        delta=scale * rng.standard_normal(n_d),
        gamma=scale * rng.standard_normal(n_r),
    )


def noiseless_network(params, se=1e-3, convention="pair_term_only"):
    """Network whose observations equal the model means exactly."""
    d2 = ((params.z_d[:, None, :] - params.z_r[None, :, :]) ** 2).sum(axis=-1)
    eta = params.alpha - params.beta * d2
    w = eta
    if convention == "full_compatibility":
        w = eta + params.delta[:, None] + params.gamma[None, :]
    n_d, n_r = params.delta.size, params.gamma.size
    return CompatibilityNetwork(
        donor_labels=tuple(f"d{i}" for i in range(n_d)),
        recipient_labels=tuple(f"r{j}" for j in range(n_r)),
        donor_weight=params.delta.copy(),
        donor_se=np.full(n_d, se),
        recipient_weight=params.gamma.copy(),
        recipient_se=np.full(n_r, se),
        edge_weight=w,
        edge_se=np.full((n_d, n_r), se),
        edge_mask=np.ones((n_d, n_r), dtype=bool),
    )


def networks_equal(a, b):
    return (
        a.donor_labels == b.donor_labels
        and a.recipient_labels == b.recipient_labels
        and np.array_equal(a.donor_weight, b.donor_weight)
        and np.array_equal(a.donor_se, b.donor_se)
        and np.array_equal(a.recipient_weight, b.recipient_weight)
        and np.array_equal(a.recipient_se, b.recipient_se)
        and np.array_equal(a.edge_mask, b.edge_mask)
        and np.array_equal(a.edge_weight[a.edge_mask], b.edge_weight[b.edge_mask])
        and np.array_equal(a.edge_se[a.edge_mask], b.edge_se[b.edge_mask])
    )
