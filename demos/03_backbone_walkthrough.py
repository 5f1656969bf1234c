#!/usr/bin/env python3
"""The prediction backbone, one stage at a time.

A yield prediction for (county, year) is assembled from four pieces:
a daily GRU encoder, attention pooling over days, a yearly embedding
that fuses the pooled state with the label and a learned year vector,
and cross-year attention over the county's recent history. All four run
in one batched engine over stacked [B,T,d] sequences. This script walks
a single county through the engine's stages with freshly initialized
parameters, checking the structural invariants as it goes, and ends
with `lyra_predict`, which makes the same computation in one call from
a `Windows` batch.  A window is rows of the panel's one feature block:
the target season's row plus the context rows (picked by
`lookback_windows`) with their labels, which `window_table` turns into
the engine's inputs.
"""
import numpy as np

from ratar.backbone import (GruParams, LyraDims, LyraParams, bind_params, embed_batch,
                            gru_encode, lookback_windows, lyra_forward, lyra_predict,
                            model_labels, window_table)
from ratar.data import Dataset, NormStats, split_by_test_year

rng = np.random.default_rng(7)

T, d = 30, 6
dims = LyraDims(d=d, H=8, Z=5, E=3, attn_hidden=4, mlp_hidden=0)
p = LyraParams.init(dims, w=3, year_min=2000, year_max=2005, seed=1)

# One county: three history years with labels, and the target year 2003.
# The panel's feature block holds its seasons in (county, year) order, so
# rows 0..2 of xs are the history and row 3 the target.  The target year
# has no label yet: the global model's prediction stands in for it.
# `model_labels` gives one prediction per block row (NaN off the split's
# rows), so the target's label is read by its row.
years = [2000, 2001, 2002, 2003]
xs = rng.standard_normal((4, T, d))
history_labels = [float(rng.normal()) for _ in range(3)]
panel = Dataset([("c01", y) for y in years], xs, history_labels + [None])
train, test = split_by_test_year(panel, 2003)  # row subsets of one block
gp = GruParams.init(d=d, H=8, readout_hidden=0, seed=2)
label_table = model_labels(gp, test)
target_label = label_table[test.row("c01", 2003)]
labels = np.array(history_labels + [target_label])

# ---------------------------------------------------------------------------
# 1. Daily encoder: [B,T,d] drivers become sample-major [B*T x H] states.

states = gru_encode(bind_params(None, p.store), xs)
print(f"drivers {xs.shape} -> hidden states {states.shape}")
assert states.shape == (4 * T, dims.H)

# ---------------------------------------------------------------------------
# 2. Attention pooling and 3. yearly embeddings.  Each embedding row is a
# (sequence row, label, year row) triple: pooled state + label value +
# learned year vector.  The label is whatever supervision the year has; at
# test time the target year substitutes the global model's prediction.

triples = (np.arange(4), labels, np.array([p.year_row(y) for y in years]))
z, pooled, weights = embed_batch(None, p, xs, triples)
print(f"pooling weights: {weights.shape}, row sums {np.round(weights.data.sum(axis=1), 12)}")
assert np.allclose(weights.data.sum(axis=1), 1.0, atol=1e-9)
assert np.all(weights.data >= 0)
print(f"pooled states {pooled.shape} -> yearly embeddings z {z.shape}")

# ---------------------------------------------------------------------------
# 4. Cross-year attention: the target year queries its look-back window,
# and the head maps the combined embedding to a normalized scalar.  The
# engine's samples are index arrays into the triple table: the target's
# triple, the history's triples, and the history's length.

sample = (np.array([3]), np.array([[0, 1, 2]]), np.array([3]))
preds, betas = lyra_forward(None, p, xs, triples, sample)
beta = betas[0]
print(f"beta over {len(beta)} history years: {np.round(beta, 3)}, sum {beta.sum():.12f}")
assert abs(beta.sum() - 1.0) < 1e-9
print(f"head value {preds.data[0]:+.4f} (normalized units)")

# ---------------------------------------------------------------------------
# 5. The residual form of the combination: with a single history entry,
# beta is 1 and the head sees z_target + z_history.  The head here is a
# single linear map (mlp_hidden=0), so that is checkable by hand.

one, betas1 = lyra_forward(None, p, xs, triples,
                           (np.array([3]), np.array([[0]]), np.array([1])))
print(f"single-entry beta: {betas1[0]} (softmax over one score is always 1)")
z_tilde = z.data[3] + z.data[0]
by_hand = z_tilde @ p.store.value("head.out.W") + p.store.value("head.out.b")
assert np.allclose(one.data[0], by_hand[0], atol=1e-12)
print("head(z_target + z_history) verified")

# ---------------------------------------------------------------------------
# 6. lyra_predict does steps 1-4 for a batch of windows in one call and
# maps the results back to physical units.  A `Windows` batch holds each
# target's block row, the label fed to the target's own embedding (read
# by row from the `model_labels` table), and the context rows with their
# labels, every window's context in one array cut by `offsets`;
# `lookback_windows` slices that context from the county's run of
# training rows (its last w seasons), and window_table gathers the
# window's rows from the block into the same xs, triples and sample as
# above.

stats = NormStats(feature_mean=np.zeros(d), feature_std=np.ones(d),
                  label_mean=10.0, label_std=2.0)
windows = lookback_windows(train, [test.row("c01", 2003)], label_table, p.w)
print(f"look-back window of row {windows.targets[0]} (c01 2003): "
      f"rows {windows.context.tolist()}, offsets {windows.offsets.tolist()}, "
      f"years {train.row_years[windows.context].tolist()}")
xs_w, triples_w, samples_w = window_table(p, train, windows)
assert np.array_equal(xs_w, xs)
assert all(np.array_equal(a, b) for a, b in zip(samples_w, sample))
assert all(np.array_equal(a, b) for a, b in zip(triples_w, triples))
(out,) = lyra_predict(p, stats, train, windows)
print(f"lyra_predict: {out.prediction:.4f} (physical units), "
      f"history years {out.history_years}")
assert np.allclose(out.beta, beta, atol=1e-12)
assert np.isclose(out.prediction, stats.denormalize_label(preds.data[0]), atol=1e-9)
print("lyra_predict matches the staged engine call")
