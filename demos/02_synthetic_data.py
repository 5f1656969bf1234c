#!/usr/bin/env python3
"""A tour of the synthetic county-year yield panel.

The generator builds a panel of counties observed over several years.
Each county-year carries a daily weather sequence, a yield label, and
a truth table for everything the models are *not* told: hidden cluster
membership, soil quality, the slowly drifting technology trend, and
year shocks. This script generates a small panel and pokes at the
structure that the retrieval and refinement stages later exploit.
"""
import numpy as np

from ratar.data import SyntheticConfig, generate_synthetic, split_by_test_year

cfg = SyntheticConfig(
    n_counties=24,
    n_years=8,
    T=30,
    d=6,
    n_hidden_clusters=3,
    year_bias_slope=0.25,
    year_shock_std=0.1,
    obs_noise_std=0.1,
    seed=42,
)
ds, truth = generate_synthetic(cfg)

print(f"panel: {cfg.n_counties} counties x {cfg.n_years} years, "
      f"T={cfg.T} days, d={cfg.d} weather channels")
print(f"records: {len(ds)}")

# Labels are read in bulk, in row order, through the audited `labels()`.
labels = ds.labels()
county, year = ds.key(0)
print(f"\nfirst record: county={county} year={year} "
      f"features {ds.features[0].shape} yield {labels[0]:.3f}")

# ---------------------------------------------------------------------------
# Hidden structure: clusters share a yield response function.

cluster_of = {county: truth.rows[(county, ds.years[0])].cluster
              for county in ds.counties}
clusters = {}
for county, cl in cluster_of.items():
    clusters.setdefault(cl, []).append(county)
for cl in sorted(clusters):
    print(f"cluster {cl}: {len(clusters[cl])} counties")

# Counties in the same cluster respond to weather the same way, so their
# *residuals* (yield minus what a pooled model explains) co-move. Check
# the raw version of that claim: correlate de-meaned yields across years.
years = ds.years
by_county = {}
for (county, year), y in zip(ds.keys(), labels.tolist()):
    by_county.setdefault(county, {})[year] = y
mat = np.array([[by_county[c][y] for y in years] for c in sorted(by_county)])
mat = mat - mat.mean(axis=1, keepdims=True)
mat = mat - mat.mean(axis=0, keepdims=True)

same, diff = [], []
counties = sorted(by_county)
for i in range(len(counties)):
    for j in range(i + 1, len(counties)):
        a, b = mat[i], mat[j]
        c = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))
        if cluster_of[counties[i]] == cluster_of[counties[j]]:
            same.append(c)
        else:
            diff.append(c)
print(f"\nmean residual correlation, same cluster: {np.mean(same):+.3f}")
print(f"mean residual correlation, diff cluster: {np.mean(diff):+.3f}")

# ---------------------------------------------------------------------------
# The technology trend: noiseless yields drift upward over years.

trend = [np.mean([truth.rows[(c, y)].noiseless_yield for c in counties])
         for y in years]
print("\nmean noiseless yield by year:")
for y, t in zip(years, trend):
    print(f"  {y}: {t:7.3f}")

# ---------------------------------------------------------------------------
# Splitting holds out the final year.  Its records keep their labels, but
# a run reads them only when it evaluates, under the label audit.

train, test = split_by_test_year(ds, test_year=years[-1])
print(f"\ntrain records: {len(train)} (years {years[0]}..{years[-2]})")
print(f"test records:  {len(test)} (year {years[-1]})")
assert years[-1] not in train.years
