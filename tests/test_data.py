"""Data layer tests: CSV ingestion, normalization, splits, synthetic oracle."""

import csv
import gc
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import dataset_of, get
from ratar import data
from ratar.data import CountyYearRecord, Dataset, IngestionError
from ratar.numcore import ContractError, NumericError


def label(ds, county, year):
    """One season's label, read through `Dataset.labels`."""
    return ds.labels([ds.row(county, year)]).item()


def write_csv(path, text):
    path.write_text(text.strip() + "\n")
    return str(path)


FIXTURE_CSV = """
county,year,day,f1,f2,yield
c1,2000,1,0.1,1.0,5.0
c1,2000,2,0.2,1.1,5.0
c1,2000,3,0.3,1.2,5.0
c1,2000,4,0.4,1.3,5.0
c1,2001,1,0.5,1.0,6.0
c1,2001,2,0.6,1.1,6.0
c1,2001,3,0.7,1.2,6.0
c1,2001,4,0.8,1.3,6.0
c1,2002,1,0.9,1.0,7.0
c1,2002,2,1.0,1.1,7.0
c1,2002,3,1.1,1.2,7.0
c1,2002,4,1.2,1.3,7.0
c2,2000,1,2.1,0.0,4.0
c2,2000,2,2.2,0.1,4.0
c2,2000,3,2.3,0.2,4.0
c2,2000,4,2.4,0.3,4.0
c2,2001,1,2.5,0.0,4.5
c2,2001,2,2.6,0.1,4.5
c2,2001,3,2.7,0.2,4.5
c2,2001,4,2.8,0.3,4.5
c2,2002,1,2.9,0.0,
c2,2002,2,3.0,0.1,
c2,2002,3,3.1,0.2,
c2,2002,4,3.2,0.3,
"""


class TestLoadDataset:
    def test_fixture_loads(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        assert len(ds) == 6
        assert ds.years == [2000, 2001, 2002]
        assert ds.counties == ["c1", "c2"]
        assert ds.T == 4 and ds.d == 2
        np.testing.assert_allclose(ds.features[ds.row("c1", 2001), :, 0], [0.5, 0.6, 0.7, 0.8])
        assert label(ds, "c1", 2001) == 6.0

    def test_missing_label_allowed(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        assert not get(ds, "c2", 2002).has_label and np.isnan(label(ds, "c2", 2002))

    def test_label_on_first_day_only(self, tmp_path):
        text = FIXTURE_CSV.replace("c1,2000,2,0.2,1.1,5.0", "c1,2000,2,0.2,1.1,")
        text = text.replace("c1,2000,3,0.3,1.2,5.0", "c1,2000,3,0.3,1.2,")
        text = text.replace("c1,2000,4,0.4,1.3,5.0", "c1,2000,4,0.4,1.3,")
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", text))
        assert label(ds, "c1", 2000) == 5.0

    def test_conflicting_labels_rejected(self, tmp_path):
        text = FIXTURE_CSV.replace("c1,2000,2,0.2,1.1,5.0", "c1,2000,2,0.2,1.1,9.0")
        with pytest.raises(data.IngestionError):
            data.load_dataset(write_csv(tmp_path / "d.csv", text))

    def test_wrong_feature_count_names_row(self, tmp_path):
        text = FIXTURE_CSV.replace("c1,2001,2,0.6,1.1,6.0", "c1,2001,2,0.6,1.1,0.9,6.0")
        with pytest.raises(data.IngestionError, match="row 7"):
            data.load_dataset(write_csv(tmp_path / "d.csv", text))

    def test_duplicate_county_year_rejected(self, tmp_path):
        text = FIXTURE_CSV + "c1,2001,1,9.0,9.0,6.0\n"
        with pytest.raises(data.IngestionError, match="duplicate"):
            data.load_dataset(write_csv(tmp_path / "dup.csv", text))

    def test_inconsistent_day_count_rejected(self, tmp_path):
        text = FIXTURE_CSV.replace("c2,2001,4,2.8,0.3,4.5\n", "")
        with pytest.raises(data.IngestionError):
            data.load_dataset(write_csv(tmp_path / "d.csv", text))

    def test_non_numeric_feature_names_row(self, tmp_path):
        text = FIXTURE_CSV.replace("c2,2000,3,2.3,0.2,4.0", "c2,2000,3,oops,0.2,4.0")
        with pytest.raises(data.IngestionError, match="row 16"):
            data.load_dataset(write_csv(tmp_path / "d.csv", text))

    def test_negative_label_rejected(self, tmp_path):
        text = FIXTURE_CSV.replace("c2,2000,1,2.1,0.0,4.0", "c2,2000,1,2.1,0.0,-4.0")
        text = text.replace("c2,2000,2,2.2,0.1,4.0", "c2,2000,2,2.2,0.1,-4.0")
        text = text.replace("c2,2000,3,2.3,0.2,4.0", "c2,2000,3,2.3,0.2,-4.0")
        text = text.replace("c2,2000,4,2.4,0.3,4.0", "c2,2000,4,2.4,0.3,-4.0")
        with pytest.raises(data.IngestionError):
            data.load_dataset(write_csv(tmp_path / "d.csv", text))

    def test_trailing_extra_day_dropped_for_year_length(self, tmp_path):
        # a 366th day is tolerated when T is year-length: it is dropped
        rows = ["county,year,day,f1,yield"]
        for day in range(1, 367):
            rows.append(f"a,2000,{day},{day * 0.01},3.0")
        for day in range(1, 366):
            rows.append(f"a,2001,{day},{day * 0.02},4.0")
        ds = data.load_dataset(write_csv(tmp_path / "leap.csv", "\n".join(rows)))
        assert ds.T == 365
        assert get(ds, "a", 2000).features.shape == (365, 1)


class TestZscore:
    def test_fit_apply_centers(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2002)
        stats = data.zscore_fit(train)
        normed = data.zscore_apply(train, stats)
        stacked = np.concatenate([r.features for r in normed.records])
        np.testing.assert_allclose(np.abs(stacked.mean(axis=0)), 0.0, atol=1e-10)
        np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-10)

    def test_labels_normalized(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2002)
        stats = data.zscore_fit(train)
        normed = data.zscore_apply(train, stats)
        labels = normed.labels()
        np.testing.assert_allclose(labels.mean(), 0.0, atol=1e-12)

    def test_labels_normalized_on_read(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2002)
        stats = data.zscore_fit(train)
        normed = data.zscore_apply(train, stats)
        assert normed._labels is ds._labels  # one label array: no copy holds a label
        assert label(normed, "c1", 2000) == (5.0 - stats.label_mean) / stats.label_std
        assert label(train, "c1", 2000) == 5.0
        np.testing.assert_array_equal(
            normed.labels(), (train.labels() - stats.label_mean) / stats.label_std)

    def test_constant_column_clamped(self):
        recs = [
            data.CountyYearRecord("a", 2000, np.column_stack([np.ones(3), np.arange(3.0)]), 1.0),
            data.CountyYearRecord("a", 2001, np.column_stack([np.ones(3), np.arange(3.0) + 1]), 2.0),
        ]
        ds = dataset_of(recs)
        stats = data.zscore_fit(ds)
        assert 0 in stats.clamped_features
        assert stats.feature_std[0] == 1.0
        normed = data.zscore_apply(ds, stats)
        np.testing.assert_allclose(get(normed, "a", 2000).features[:, 0], 0.0)

    def test_invertibility(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2002)
        stats = data.zscore_fit(train)
        normed = data.zscore_apply(train, stats)
        for rec, y in zip(train.records, train.labels()):
            back = get(normed, rec.county, rec.year)
            np.testing.assert_allclose(
                back.features * stats.feature_std + stats.feature_mean, rec.features,
                atol=1e-10,
            )
            np.testing.assert_allclose(
                label(normed, rec.county, rec.year) * stats.label_std + stats.label_mean, y,
                atol=1e-10,
            )

    def test_stats_exclude_test_rows(self, tmp_path):
        # recomputing with the test rows included must move the stats
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2001)
        with_test = data.zscore_fit(ds)  # includes later years
        train_only = data.zscore_fit(train)
        assert not np.allclose(with_test.feature_mean, train_only.feature_mean)

    def test_empty_fit_rejected(self):
        with pytest.raises(ContractError):
            data.zscore_fit(data.Dataset([], np.empty((0, 3, 2)), []))


class TestSplit:
    def test_prior_years_protocol(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, test = data.split_by_test_year(ds, 2002)
        assert sorted({r.year for r in train.records}) == [2000, 2001]
        assert {r.year for r in test.records} == {2002}
        assert len(train) + len(test) == len(ds)

    def test_k_counts_training_years(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2002)
        assert len(train.years) == 2

    def test_earliest_year_rejected(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        with pytest.raises(ContractError):
            data.split_by_test_year(ds, 2000)

    def test_absent_year_rejected(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        with pytest.raises(ContractError):
            data.split_by_test_year(ds, 1999)

    def test_unlabeled_training_record_rejected(self, tmp_path):
        # c2 has no 2002 label; using 2002 as training data must fail loudly
        text = FIXTURE_CSV + "\n".join(
            f"c1,2003,{day},0.0,0.0,8.0" for day in range(1, 5)
        ) + "\n" + "\n".join(f"c2,2003,{day},0.0,0.0,8.0" for day in range(1, 5))
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", text))
        with pytest.raises(data.IngestionError, match="c2"):
            data.split_by_test_year(ds, 2003)


class TestDatasetIndexes:
    """A county's run of rows and the (county, year) -> row index against their
    scan definitions."""

    def gappy(self):
        # 4 counties x 2000..2005, given in shuffled order, with some
        # (county, year) records missing and one county without 2000
        rng = np.random.default_rng(0)
        keys = [(f"c{i}", year) for i in range(4) for year in range(2000, 2006)
                if (i + year) % 3 != 0 and (i, year) != (2, 2000)]
        recs = [data.CountyYearRecord(county, year, rng.standard_normal((3, 2)), 1.0)
                for county, year in keys]
        order = rng.permutation(len(recs))
        return dataset_of([recs[i] for i in order]), set(keys)

    def test_county_years_matches_scan(self):
        ds, keys = self.gappy()
        for county in ds.counties + ["absent"]:
            want = [y for y in ds.years if (county, y) in keys]
            assert ds.row_years[ds.county_rows(county)].tolist() == want

    def test_row_index_matches_scan(self):
        ds, keys = self.gappy()
        assert ds.keys() == sorted(keys) == [(r.county, r.year) for r in ds.records]
        for key in keys:
            row = ds.row(*key)
            rec = ds.records[row]  # the panel's rows are 0..n-1
            assert ds.key(row) == key == (rec.county, rec.year)
            np.testing.assert_array_equal(ds.features[row], rec.features)
        for county in ds.counties + ["absent"]:
            want = [ds.row(c, y) for c, y in sorted(keys) if c == county]
            assert ds.county_rows(county).tolist() == want
        with pytest.raises(ContractError, match="c2,2000"):
            ds.row("c2", 2000)

    def test_lookups_return_new_lists(self):
        ds, _ = self.gappy()
        ds.keys().clear()
        assert ds.keys()

    @staticmethod
    def scan(ds):
        """(row index, runs, counties, years) built row by row, as every
        Dataset built them before views derived them with array ops."""
        row = {ds.key(r): r for r in ds.rows.tolist()}
        runs = {}
        for i, (county, _) in enumerate(row):
            runs[county] = (runs.get(county, (i,))[0], i + 1)
        years = sorted({year for _, year in row})
        return row, [(county, *run) for county, run in runs.items()], list(runs), years

    def test_views_match_the_row_scan(self):
        ds, keys = self.gappy()
        train, test = data.split_by_test_year(ds, 2004)
        normed = data.zscore_apply(ds, data.zscore_fit(train))
        for view in (ds, train, test, normed, *data.split_by_test_year(normed, 2004)):
            row, runs, counties, years = self.scan(view)
            assert view.row_years is ds.row_years
            assert (view.runs(), view.counties, view.years, view.keys()) == \
                (runs, counties, years, list(row))
            for key in sorted(keys):
                if key in row:
                    assert view.row(*key) == row[key]
                else:
                    message = re.escape(f"no record for ({key[0]},{key[1]})")
                    with pytest.raises(ContractError, match=message):
                        view.row(*key)
        assert test.years == [2004] and len(test.counties) < len(train.counties)


class TestDatasetConstructor:
    """The in-memory constructor: one block, keys put in order, inputs checked."""

    def test_rows_put_in_key_order(self):
        feats = np.arange(12.0).reshape(3, 2, 2)
        ds = Dataset([("b", 2000), ("a", 2001), ("a", 2000)], feats, [1.0, None, 3.0],
                     {"a": ["b"], "b": ["a"]})
        assert ds.keys() == [("a", 2000), ("a", 2001), ("b", 2000)]
        np.testing.assert_array_equal(ds.features, feats[[2, 1, 0]])
        assert [r._yield_label for r in ds.records] == [3.0, None, 1.0]
        assert ds.neighbors == {"a": ["b"], "b": ["a"]} and (ds.T, ds.d) == (2, 2)

    def test_block_in_key_order_is_not_copied(self):
        feats = np.zeros((2, 3, 1))
        assert Dataset([("a", 2000), ("a", 2001)], feats, [1.0, 2.0]).features is feats

    @pytest.mark.parametrize("labels, feature, error, match", [
        ([1.0, float("nan")], 0.0, NumericError, "non-finite values in \\(a,2001\\)"),
        ([1.0, float("inf")], 0.0, NumericError, "non-finite values in \\(a,2001\\)"),
        ([1.0, None], float("-inf"), NumericError, "non-finite values in \\(a,2001\\)"),
        ([1.0], 0.0, IngestionError, "1 labels"),
    ])
    def test_bad_input_rejected(self, labels, feature, error, match):
        feats = np.zeros((2, 3, 1))
        feats[1, 2, 0] = feature
        with pytest.raises(error, match=match):
            Dataset([("a", 2000), ("a", 2001)], feats, labels)

    def test_duplicate_and_shape_rejected(self):
        with pytest.raises(IngestionError, match="duplicate record for \\('a', 2000\\)"):
            Dataset([("a", 2000), ("a", 2000)], np.zeros((2, 3, 1)), [1.0, 2.0])
        with pytest.raises(IngestionError, match="block"):
            Dataset([("a", 2000), ("a", 2001)], np.zeros((2, 3)), [1.0, 2.0])


class TestSyntheticGenerator:
    CFG = data.SyntheticConfig(
        n_counties=12,
        n_years=6,
        T=20,
        d=8,
        n_hidden_clusters=4,
        year_bias_slope=0.3,
        year_shock_std=0.1,
        obs_noise_std=0.05,
        seed=11,
    )

    def test_determinism_bitwise(self):
        ds1, truth1 = data.generate_synthetic(self.CFG)
        ds2, truth2 = data.generate_synthetic(self.CFG)
        for r1, r2 in zip(ds1.records, ds2.records):
            assert np.array_equal(r1.features, r2.features)
        assert ds1.labels().tobytes() == ds2.labels().tobytes()
        for key in truth1.rows:
            assert truth1.rows[key].noiseless_yield == truth2.rows[key].noiseless_yield

    def test_shapes_and_coverage(self):
        ds, truth = data.generate_synthetic(self.CFG)
        assert len(ds) == 12 * 6
        assert ds.T == 20 and ds.d == 8
        assert len(truth.rows) == len(ds)
        labels = ds.labels()
        assert ds.labeled.all() and (labels >= 0.0).all()
        assert list(ds.neighbors) == ds.counties

    @staticmethod
    def fitted_year_trend(slope, seed=5):
        cfg = data.SyntheticConfig(
            n_counties=40, n_years=10, T=16, d=8, n_hidden_clusters=4,
            year_bias_slope=slope, year_shock_std=0.0, obs_noise_std=0.0, seed=seed,
        )
        _, truth = data.generate_synthetic(cfg)
        by_year = {}
        for (_county, year), row in truth.rows.items():
            by_year.setdefault(year, []).append(row.noiseless_yield)
        years = np.array(sorted(by_year))
        means = np.array([np.mean(by_year[y]) for y in years])
        # independent OLS slope via normal equations
        x = years - years.mean()
        return float((x @ (means - means.mean())) / (x @ x))

    def test_year_trend_tracks_slope_knob(self):
        # flat config: fitted trend is weather wiggle only; sloped config
        # recovers the configured drift
        assert abs(self.fitted_year_trend(0.0)) < 0.25
        recovered = self.fitted_year_trend(0.3)
        assert 0.15 < recovered < 0.45

    def test_noiseless_identity_oracle(self):
        """Recompute every noiseless yield from truth components and features."""
        ds, truth = data.generate_synthetic(self.CFG)
        years = ds.years
        for rec in ds.records:
            row = truth.rows[(rec.county, rec.year)]
            agg = rec.features.mean(axis=0)
            u = (agg - truth.feature_centers) / truth.response_scale
            response = truth.cluster_weights[row.cluster] @ (
                np.tanh(u) * truth.response_scale
            )
            expected = (
                row.soil * (truth.base_yield + response)
                + self.CFG.year_bias_slope * (rec.year - years[0])
                + row.shock
            )
            np.testing.assert_allclose(row.noiseless_yield, expected, atol=1e-9)

    def test_same_cluster_same_inputs_same_yield(self):
        """The response depends only on (cluster, soil, aggregated drivers)."""
        ds, truth = data.generate_synthetic(self.CFG)
        rec = ds.records[0]
        row = truth.rows[(rec.county, rec.year)]
        twin = data.CountyYearRecord("twin", rec.year, rec.features.copy(), None)
        twin_yield = data.synthetic_noiseless_yield(
            truth, twin.features, row.cluster, row.soil, rec.year, row.shock
        )
        np.testing.assert_allclose(twin_yield, row.noiseless_yield, atol=1e-12)

    def test_observed_equals_noiseless_when_quiet(self):
        cfg = data.SyntheticConfig(
            n_counties=6, n_years=4, T=10, d=8, n_hidden_clusters=2,
            year_bias_slope=0.2, year_shock_std=0.0, obs_noise_std=0.0, seed=3,
        )
        ds, truth = data.generate_synthetic(cfg)
        for key, y in zip(ds.keys(), ds.labels()):
            np.testing.assert_allclose(y, truth.rows[key].noiseless_yield)

    def test_cluster_balance_and_geography_independence(self):
        cfg = data.SyntheticConfig(
            n_counties=64, n_years=3, T=8, d=8, n_hidden_clusters=4,
            year_bias_slope=0.0, year_shock_std=0.0, obs_noise_std=0.0, seed=9,
        )
        ds, truth = data.generate_synthetic(cfg)
        clusters = {}
        for (county, _y), row in truth.rows.items():
            clusters[county] = row.cluster
        counts = np.bincount(list(clusters.values()), minlength=4)
        assert counts.min() >= 12  # near-balanced assignment
        # neighbors should match the query's cluster at roughly chance rate
        same = total = 0
        for county in ds.counties:
            for nb in ds.neighbors[county]:
                same += clusters[nb] == clusters[county]
                total += 1
        rate = same / total
        assert 0.05 < rate < 0.55  # chance is 0.25; far from purity 1.0

    def test_adjacency_is_symmetric(self):
        ds, _ = data.generate_synthetic(self.CFG)
        neigh = {county: set(nbs) for county, nbs in ds.neighbors.items()}
        for county, nbs in neigh.items():
            for nb in nbs:
                assert county in neigh[nb]

    def test_d_smaller_than_clusters_rejected(self):
        cfg = data.SyntheticConfig(
            n_counties=4, n_years=3, T=8, d=2, n_hidden_clusters=4,
            year_bias_slope=0.0, year_shock_std=0.0, obs_noise_std=0.0, seed=0,
        )
        with pytest.raises(ContractError):
            data.generate_synthetic(cfg)


class TestCsvRoundtrip:
    def test_dataset_roundtrip_exact(self, tmp_path):
        ds, truth = data.generate_synthetic(TestSyntheticGenerator.CFG)
        path = tmp_path / "synth.csv"
        data.save_dataset_csv(ds, str(path))
        back = data.load_dataset(str(path))
        assert len(back) == len(ds)
        for rec in ds.records:
            other = get(back, rec.county, rec.year)
            assert np.array_equal(other.features, rec.features)
        assert back.keys() == ds.keys()
        assert back.labels().tobytes() == ds.labels().tobytes()

    def test_truth_sidecar_format(self, tmp_path):
        ds, truth = data.generate_synthetic(TestSyntheticGenerator.CFG)
        path = tmp_path / "synth.truth.csv"
        data.save_truth_csv(truth, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "county,year,noiseless_yield,cluster,soil,shock"
        assert len(lines) == len(ds) + 1

    def test_adjacency_roundtrip(self, tmp_path):
        ds, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        path = tmp_path / "synth.adj.csv"
        data.save_adjacency_csv(ds, str(path))
        adj = data.load_adjacency(str(path))
        county = ds.counties[0]
        assert sorted(adj[county]) == sorted(ds.neighbors[county])

    def test_write_is_deterministic(self, tmp_path):
        ds, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data.save_dataset_csv(ds, str(p1))
        data.save_dataset_csv(ds, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestBlockWriter:
    """`save_dataset_csv` writes the bytes of the per-record writer."""

    @staticmethod
    def same_bytes(ds, tmp_path):
        got, want = tmp_path / "block.csv", tmp_path / "records.csv"
        data.save_dataset_csv(ds, str(got))
        oracles.save_dataset_csv(ds, str(want))
        assert got.read_bytes() == want.read_bytes()
        return got

    def test_raw_panel(self, tmp_path):
        ds, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        self.same_bytes(ds, tmp_path)

    def test_split_views(self, tmp_path):
        ds, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        for view in data.split_by_test_year(ds, ds.years[3]):
            self.same_bytes(view, tmp_path)

    def test_normalized_views(self, tmp_path):
        ds, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        train, _ = data.split_by_test_year(ds, ds.years[-1])
        norm = data.zscore_apply(ds, data.zscore_fit(train))
        self.same_bytes(norm, tmp_path)
        self.same_bytes(data.split_by_test_year(norm, ds.years[-1])[1], tmp_path)

    def test_unlabeled_seasons(self, tmp_path):
        rng = np.random.default_rng(2)
        keys = [(c, y) for c in ("a", "b") for y in (2000, 2001, 2002)]
        ds = Dataset(keys, rng.standard_normal((6, 3, 2)) * 1e5,
                     [1.5, None, -0.0, None, None, 1e-300])
        path = self.same_bytes(ds, tmp_path)
        assert data.load_dataset(str(path)).labeled.tolist() == ds.labeled.tolist()

    def test_county_names_that_need_quoting(self, tmp_path):
        names = ['a,b', 'say "hi"', "two\nlines", " padded ", "é"]
        ds = Dataset([(c, 2000) for c in names], np.arange(30.0).reshape(5, 3, 2),
                     [1.0, 2.0, None, 4.0, 5.0])
        path = self.same_bytes(ds, tmp_path)
        assert data.load_dataset(str(path)).keys() == ds.keys()


class TestLabelAudit:
    """`Dataset.labels_before`: a run's panel holds no label from its test
    year on, so no read of it can return one."""

    @staticmethod
    def panel():
        return Dataset([("a", 2019), ("a", 2020), ("b", 2020)], np.arange(12.0).reshape(3, 2, 2),
                       [1.0, 2.0, None])

    def test_new_panels_guard_nothing(self, tmp_path):
        """A new panel keeps every label it was given."""
        ds = self.panel()
        data.save_dataset_csv(ds, str(tmp_path / "d.csv"))
        synthetic, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        for panel in (ds, data.load_dataset(str(tmp_path / "d.csv"))):
            assert panel.labeled.tolist() == [True, True, False]
        assert synthetic.labeled.all()

    def test_guarded_shares_the_block_and_leaves_the_caller(self):
        ds = self.panel()
        view = ds.labels_before(2020)
        assert view.features is ds.features and view._labels is not ds._labels
        assert view.keys() == ds.keys() and view is not ds
        assert np.array_equal(view.labels(), [1.0, np.nan, np.nan], equal_nan=True)
        assert view.labeled.tolist() == [True, False, False]
        assert np.array_equal(ds.labels(), [1.0, 2.0, np.nan], equal_nan=True)

    def test_no_cached_records_come_along(self):
        ds = self.panel()
        assert [r.has_label for r in ds.records] == [True, True, False]  # cached on ds
        view = ds.labels_before(2020)
        assert [r.has_label for r in view.records] == [True, False, False]
        assert [r.has_label for r in ds.records] == [True, True, False]

    def test_views_carry_the_stripping(self):
        ds = Dataset([("a", 2019), ("a", 2020)], np.zeros((2, 2, 1)), [1.0, 2.0])
        stripped = ds.labels_before(2020)
        train, test = data.split_by_test_year(stripped, 2020)
        normalized = data.zscore_apply(stripped, data.zscore_fit(train))
        for view in (train, test, normalized, *data.split_by_test_year(normalized, 2020)):
            assert view._labels is stripped._labels
            assert np.isnan(view.labels(test.rows)).all()
        assert train.labels().tolist() == [1.0]
        assert ds.labels(test.rows).tolist() == [2.0]

    @pytest.mark.parametrize("cut", [2006, 2003, 2001, 1990, 2050],
                             ids=[f"guarded{i}" for i in range(5)])
    def test_bulk_reads_match_the_isin_form(self, cut):
        """A bulk read of `labels_before(cut)` is NaN exactly where
        `np.isin` selects the panel's years from `cut` on."""
        rng = np.random.default_rng(7)
        keys = [(f"c{i:02d}", int(year)) for i, year in enumerate(rng.integers(2000, 2006, 40))]
        ds = Dataset(keys, np.zeros((40, 2, 1)), rng.uniform(1.0, 2.0, 40).tolist())
        years = ds.row_years[ds.rows]
        want = np.isin(years, [year for year in ds.years if year >= cut])
        got = np.isnan(ds.labels_before(cut).labels())
        assert got.tolist() == want.tolist()
        assert got.any() == (cut < 2006) and got.all() == (cut <= min(ds.years))


# ---------------------------------------------------------------------------
# ingestion oracle: the row-by-row loader that the chunked one replaced


def _parse_float(text, row_no, what):
    try:
        return float(text)
    except ValueError:
        raise IngestionError(f"row {row_no}: non-numeric {what} {text!r}") from None


def reference_load_dataset(path: str) -> Dataset:
    """Read the `county,year,day,f1..fd,yield` CSV into a Dataset.

    The yield value may repeat on every day-row of its county-year or appear
    on day 1 only.  A 366th day is dropped when the year length is 365.
    Errors carry 1-based row numbers (header is row 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file") from None
        if len(header) < 5 or header[:3] != ["county", "year", "day"] or header[-1] != "yield":
            raise IngestionError(f"bad header {header!r}")
        d = len(header) - 4

        groups: dict[tuple, dict] = {}
        order: list[tuple] = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 4:
                raise IngestionError(f"row {row_no}: expected {d + 4} fields, got {len(row)}")
            county = row[0]
            try:
                year = int(row[1])
                day = int(row[2])
            except ValueError:
                raise IngestionError(f"row {row_no}: non-integer year/day") from None
            feats = [_parse_float(v, row_no, "feature") for v in row[3:-1]]
            label_text = row[-1].strip()
            key = (county, year)
            if key not in groups:
                groups[key] = {"days": {}, "labels": [], "first_row": row_no}
                order.append(key)
            g = groups[key]
            if day in g["days"]:
                raise IngestionError(f"row {row_no}: duplicate day {day} for {key}")
            g["days"][day] = feats
            if label_text:
                g["labels"].append((row_no, _parse_float(label_text, row_no, "yield")))

    if not order:
        raise IngestionError("no data rows")

    keys, labels, block = [], [], None
    expected_T = None
    for key in order:
        county, year = key
        g = groups[key]
        days = g["days"]
        n_days = len(days)
        if sorted(days) != list(range(1, n_days + 1)):
            raise IngestionError(f"({county},{year}): days are not contiguous from 1")
        if n_days == 366 and (expected_T in (None, 365)):
            del days[366]  # trailing leap-year day
            n_days = 365
        if expected_T is None:
            expected_T = n_days
        elif n_days != expected_T:
            raise IngestionError(
                f"({county},{year}): {n_days} days, expected {expected_T}"
            )
        features = np.array([days[t] for t in range(1, expected_T + 1)])
        label_values = {v for _rn, v in g["labels"]}
        if len(label_values) > 1:
            raise IngestionError(f"({county},{year}): conflicting yield values {sorted(label_values)}")
        label = g["labels"][0][1] if g["labels"] else None
        if label is not None and label < 0:
            raise IngestionError(f"({county},{year}): negative yield {label}")
        if block is None:
            block = np.empty((len(order),) + features.shape)
        block[len(keys)] = features
        keys.append(key)
        labels.append(label)
    return Dataset(keys, block, labels)


def record_bits(ds):
    """Every record's key, feature shape and bits, and label bits."""
    return [
        (rec.county, rec.year, rec.features.dtype.str, rec.features.shape,
         [v.hex() for v in rec.features.ravel().tolist()],
         rec._yield_label.hex() if rec.has_label else None)
        for rec in ds.records
    ]


def outcome(loader, path):
    """The records' bits, or the type and message of the error raised."""
    try:
        return record_bits(loader(path))
    except Exception as exc:  # the comparison is of whatever is raised
        return type(exc), str(exc)


# strings `float` reads that a stricter parser would reject or round
# differently: underscores, padding, a sign, non-ASCII digits, subnormals
ODD_FLOATS = ("1_000.5", " 2.5 ", "+3", "١٢.5", "4.9e-324", "-0.0", "1E3", "5.")


def panel_rows(n_counties, years, T, d, seed=0, leap=(), labels="every", names=None):
    """Data rows of a generated panel, as lists of strings, in file order.

    `leap` years get 366 days; `labels` is "every" (repeated on each day
    row), "first" (day 1 only), "none", or "mixed" (a mix of those, with
    -0.0 and padded values).
    """
    rng = np.random.default_rng(seed)
    names = names or [f"c{i:03d}" for i in range(n_counties)]
    rows = []
    for g, (county, year) in enumerate((c, y) for c in names for y in years):
        mode = labels if labels != "mixed" else ("every", "first", "none", "negzero", "pad")[g % 5]
        value = repr(float(rng.uniform(0.0, 20.0)))
        for day in range(1, (366 if year in leap else T) + 1):
            feats = [repr(float(v)) for v in rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)]
            if rng.random() < 0.02:
                feats[rng.integers(d)] = ODD_FLOATS[rng.integers(len(ODD_FLOATS))]
            label = {"every": value, "first": value if day == 1 else "", "none": "",
                     "negzero": "-0.0" if day == 1 else "0.0", "pad": f"  {value} "}[mode]
            year_text = str(year) if rng.random() < 0.9 else f" 0{year}"
            rows.append([county, year_text, str(day)] + feats + [label])
    return rows


def write_rows(path, rows, blank_every=0):
    """Write a panel CSV (d from the first row); `blank_every` puts a blank
    line after every n-th row."""
    d = len(rows[0]) - 4
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["county", "year", "day"] + [f"f{j + 1}" for j in range(d)] + ["yield"])
        for i, row in enumerate(rows, start=1):
            writer.writerow(row)
            if blank_every and i % blank_every == 0:
                fh.write("\n")
    return str(path)


CHUNK = data._CHUNK_ROWS


class TestIngestionOracle:
    """The chunked loader against the row-by-row reference, bit for bit."""

    PANELS = {
        "tiny": dict(n_counties=1, years=[2000], T=1, d=1),
        "tiny_three_years": dict(n_counties=2, years=[2000, 2001, 2002], T=1, d=1),
        "leap_first": dict(n_counties=2, years=[2000, 2001], T=365, d=1, leap={2000}),
        "leap_later": dict(n_counties=2, years=[2000, 2001, 2002], T=365, d=2, leap={2001}),
        "first_day_labels": dict(n_counties=3, years=[2000, 2001], T=5, d=3, labels="first"),
        "no_labels": dict(n_counties=3, years=[2000, 2001], T=5, d=3, labels="none"),
        "mixed_labels": dict(n_counties=7, years=[2000, 2001, 2002], T=6, d=4, labels="mixed"),
        "quoted_names": dict(n_counties=3, years=[1999, 2000], T=4, d=2,
                             names=['Adams, IL', 'Lee "East", IA', 'Polk,\nTX']),
        "several_chunks": dict(n_counties=40, years=[2000, 2001, 2002], T=20, d=3,
                               labels="mixed"),
    }

    @pytest.mark.parametrize("name", sorted(PANELS))
    @pytest.mark.parametrize("layout", ["ordered", "blank_lines", "shuffled"])
    def test_records_bit_equal(self, tmp_path, name, layout):
        spec = self.PANELS[name]
        rows = panel_rows(**spec)
        if layout == "shuffled":
            rows = [rows[i] for i in np.random.default_rng(1).permutation(len(rows))]
        path = write_rows(tmp_path / "p.csv", rows,
                          blank_every=7 if layout == "blank_lines" else 0)
        want = outcome(reference_load_dataset, path)
        assert not isinstance(want, tuple), want
        assert outcome(data.load_dataset, path) == want

    def test_several_chunks_is_several_chunks(self):
        assert len(panel_rows(**self.PANELS["several_chunks"])) > 2 * CHUNK

    @staticmethod
    def workload_panels(monkeypatch):
        from test_perfbench_names import load_workloads

        workloads = load_workloads(monkeypatch)
        return {name: workloads.get(name).panel(1) for name in workloads.WORKLOADS}

    def test_benchmark_panels_bit_equal(self, tmp_path, monkeypatch):
        for name, ds in self.workload_panels(monkeypatch).items():
            path = str(tmp_path / f"{name}.csv")
            data.save_dataset_csv(ds, path)
            want = record_bits(reference_load_dataset(path))
            assert record_bits(data.load_dataset(path)) == want, name


def base_rows(n=3 * CHUNK // 20):
    """A valid panel of n county-years x T=20 days, d=2: three chunks."""
    return panel_rows(n_counties=n // 2, years=[2000, 2001], T=20, d=2, seed=3)


def edited(rows, *edits):
    """Copy of `rows` with (data row index, field index, text) edits; a
    field index of None replaces the whole row with `text`."""
    rows = [list(r) for r in rows]
    for i, j, text in edits:
        if j is None:
            rows[i] = list(text)
        else:
            rows[i][j] = text
    return rows


def _malformed():
    rows = base_rows()
    n = len(rows)
    leap = panel_rows(1, [2000, 2001], 365, 1, leap={2000})
    late = 2 * CHUNK + 37  # a data row in the third chunk
    dup_late = list(rows[5])  # (c000, 2000) day 6 again, in the third chunk
    cases = {
        "wrong_field_count": edited(rows, (late, None, rows[late] + ["9"])),
        "short_row": edited(rows, (9, None, rows[9][:3])),
        "bad_year": edited(rows, (late, 1, "20x0")),
        "bad_day": edited(rows, (CHUNK + 3, 2, "1.0")),
        "bad_feature": edited(rows, (late, 4, "oops")),
        "empty_feature": edited(rows, (17, 3, "")),
        "bad_yield": edited(rows, (late, -1, "n/a")),
        "duplicate_in_chunk": edited(rows, (7, 2, "3")),
        "duplicate_across_chunks": rows + [dup_late],
        "day_zero_twice": edited(rows, (0, 2, "0"), (1, 2, "0")),
        "not_contiguous": edited(rows, (45, 2, "25")),
        "missing_last_day": rows[:19] + rows[20:],
        "extra_day_later": rows[:60] + [rows[59][:2] + ["21"] + rows[59][3:]] + rows[60:],
        "conflicting_yield": edited(rows, (CHUNK + 11, -1, "1.5")),
        "conflicting_later_yield": edited(rows, (n - 1, -1, "1.5")),
        "negative_yield": [r[:-1] + ["-" + r[-1]] if r[0] == "c001" else r for r in rows],
        "huge_day": edited(rows, (30, 2, "9" * 30)),
        "huge_day_twice": edited(rows, (30, 2, "9" * 30), (CHUNK + 30, None,
                                                            rows[30][:2] + ["9" * 30] + rows[30][3:])),
        "huge_negative_day_twice": edited(rows, (30, 2, "-" + "9" * 19), (31, 2, "-" + "9" * 19)),
        "first_year_367_days": leap[:366] + [leap[0][:2] + ["367"] + leap[0][3:]] + leap[366:],
        "leap_year_when_T_is_4": panel_rows(2, [2000, 2001], 4, 1, leap={2001}),
        # two faults of different kinds: the earlier row is named
        "duplicate_then_bad_feature": edited(rows, (40, 2, "2"), (late, 4, "oops")),
        "bad_feature_then_duplicate": edited(rows, (40, 4, "oops"), (late, 2, "2")),
        "duplicate_then_bad_yield_same_chunk": edited(rows, (CHUNK + 5, 2, "1"), (CHUNK + 9, -1, "x")),
        "bad_yield_then_duplicate_same_chunk": edited(rows, (CHUNK + 5, -1, "x"), (CHUNK + 9, 2, "1")),
        "duplicate_row_with_bad_yield": edited(rows, (late, None, rows[3][:-1] + ["x"])),
        "duplicate_row_with_bad_feature": edited(rows, (late, None, rows[3][:3] + ["x", "1"] + rows[3][-1:])),
        "bad_year_then_wrong_count_same_row": edited(rows, (late, None, ["c000", "y", "1"])),
        "negative_first_group_and_late_row_fault": edited(
            [r[:-1] + ["-" + r[-1]] if r[0] == "c000" else r for r in rows], (n - 1, 3, "z")),
        "not_contiguous_before_conflict": edited(rows, (CHUNK + 11, -1, "1.5"), (45, 2, "25")),
        "conflict_before_not_contiguous": edited(rows, (11, -1, "1.5"), (CHUNK + 45, 2, "25")),
    }
    return cases


MALFORMED = _malformed()


class TestIngestionErrors:
    """Malformed files raise the reference's exception type and message."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_same_error(self, tmp_path, name):
        path = write_rows(tmp_path / "bad.csv", MALFORMED[name],
                          blank_every=11 if "chunk" in name else 0)
        want = outcome(reference_load_dataset, path)
        assert isinstance(want, tuple), f"{name} is not malformed"
        assert outcome(data.load_dataset, path) == want

    @pytest.mark.parametrize("text", [
        "",
        "county,year,day,f1,yield\n",
        "county,year,day,f1,yield\n\n\n",
        "county,year,f1,yield\nc,2000,1,1.0\n",
        "county,year,day,f1,yield\nc,2000,1,1.0,2.0\n\nc,2000,1,1.0,2.0\n",
        "county,year,day,f1,yield\nc,2000,1,1.0,2.0\nc,2000,2,\"1.0\n",
    ])
    def test_same_error_small_files(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        want = outcome(reference_load_dataset, str(path))
        assert outcome(data.load_dataset, str(path)) == want

    @pytest.mark.parametrize("fault_row", [5, CHUNK + 5])
    def test_reader_error_after_duplicate(self, tmp_path, fault_row):
        # the csv reader stops on an over-long field; a duplicate day
        # before it is still named first, and without one the reader's
        # own error comes through
        rows = base_rows()
        for dup in (True, False):
            bad = edited(rows, (fault_row, 3, "1" * (csv.field_size_limit() + 1)))
            if dup:
                bad = edited(bad, (fault_row - 2, 2, "1"))
            path = write_rows(tmp_path / "bad.csv", bad)
            want = outcome(reference_load_dataset, path)
            assert want[0] is (data.IngestionError if dup else csv.Error)
            assert outcome(data.load_dataset, path) == want

    @pytest.mark.parametrize("dup", [True, False])
    def test_undecodable_bytes(self, tmp_path, dup):
        path = tmp_path / "bad.csv"
        write_rows(path, edited(base_rows(), (CHUNK + 1, 2, "1")) if dup else base_rows())
        raw = bytearray(path.read_bytes())
        raw[len(raw) * 3 // 4] = 0xFF
        path.write_bytes(bytes(raw))
        want = outcome(reference_load_dataset, str(path))
        assert want[0] is (data.IngestionError if dup else UnicodeDecodeError)
        assert outcome(data.load_dataset, str(path)) == want


class TestNonFiniteValues:
    """A non-finite feature or yield is a row fault naming its row and record."""

    @pytest.mark.parametrize("old, new, message", [
        ("c1,2000,3,0.3,1.2,5.0", "c1,2000,3,nan,1.2,5.0",
         "row 4: non-finite feature 'nan' in (c1,2000)"),
        ("c2,2001,2,2.6,0.1,4.5", "c2,2001,2,2.6,1e400,4.5",
         "row 19: non-finite feature '1e400' in (c2,2001)"),
        ("c1,2002,4,1.2,1.3,7.0", "c1,2002,4,-inf,1.3,7.0",
         "row 13: non-finite feature '-inf' in (c1,2002)"),
        ("c1,2001,1,0.5,1.0,6.0", "c1,2001,1,0.5,1.0,inf",
         "row 6: non-finite yield 'inf' in (c1,2001)"),
    ])
    def test_row_named(self, tmp_path, old, new, message):
        path = write_csv(tmp_path / "d.csv", FIXTURE_CSV.replace(old, new))
        with pytest.raises(NumericError) as info:
            data.load_dataset(path)
        assert str(info.value) == message

    def test_nan_yield_on_day_one_only(self, tmp_path):
        text = "county,year,day,f1,yield\na,2000,1,0.5,nan\na,2000,2,0.5,\n"
        with pytest.raises(NumericError) as info:
            data.load_dataset(write_csv(tmp_path / "d.csv", text))
        assert str(info.value) == "row 2: non-finite yield 'nan' in (a,2000)"

    def test_nan_yield_on_every_day(self, tmp_path):
        text = "county,year,day,f1,yield\na,2000,1,0.5,nan\na,2000,2,0.5,nan\n"
        with pytest.raises(NumericError) as info:
            data.load_dataset(write_csv(tmp_path / "d.csv", text))
        assert str(info.value) == "row 2: non-finite yield 'nan' in (a,2000)"

    def test_first_of_two_row_faults(self, tmp_path):
        # a non-finite value and a duplicate day: whichever row comes first
        rows = base_rows()
        late = 2 * CHUNK + 37
        cases = [
            (edited(rows, (40, 3, "nan"), (late, 2, "2")), NumericError,
             "row 42: non-finite feature 'nan' in (c001,2000)"),
            (edited(rows, (40, 2, "2"), (late, -1, "inf")), IngestionError,
             "row 43: duplicate day 2 for ('c001', 2000)"),
            (edited(rows, (late, None, rows[3][:-1] + ["nan"])), IngestionError,
             f"row {late + 2}: duplicate day 4 for ('c000', 2000)"),
            (edited(rows, (late, None, rows[3][:3] + ["nan", "1"] + rows[3][-1:])), NumericError,
             f"row {late + 2}: non-finite feature 'nan' in (c000,{int(rows[3][1])})"),
            (edited(rows, (late, 3, "oops"), (late, 4, "nan")), IngestionError,
             f"row {late + 2}: non-numeric feature 'oops'"),
            (edited(rows, (late, 3, "nan"), (late, 4, "oops")), IngestionError,
             f"row {late + 2}: non-numeric feature 'oops'"),
        ]
        for bad, kind, message in cases:
            with pytest.raises(kind) as info:
                data.load_dataset(write_rows(tmp_path / "bad.csv", bad))
            assert str(info.value) == message


def traced_peak(loader, path):
    """Peak bytes tracemalloc sees while `loader` reads `path`."""
    gc.collect()
    tracemalloc.start()
    try:
        loader(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [
    dict(n_counties=200, T=4, d=8),  # wide and short
    dict(n_counties=8, T=40, d=12),  # narrow and long
])
def test_load_peak_memory_within_reference(tmp_path, shape):
    cfg = data.SyntheticConfig(n_years=12, n_hidden_clusters=4, year_bias_slope=0.6,
                               year_shock_std=0.1, obs_noise_std=0.1, seed=1, **shape)
    path = str(tmp_path / "panel.csv")
    data.save_dataset_csv(data.generate_synthetic(cfg)[0], path)
    data.load_dataset(path)  # first-call allocations (imports, caches) are not the loader's
    reference = traced_peak(reference_load_dataset, path)
    assert traced_peak(data.load_dataset, path) <= reference


def reference_zscore_apply(ds, stats):
    """The per-record loop the one-op normalization replaced."""
    out = []
    for rec in ds.records:
        feats = (rec.features - stats.feature_mean) / stats.feature_std
        label = None
        if rec.has_label:
            label = (rec._yield_label - stats.label_mean) / stats.label_std
        out.append(CountyYearRecord(rec.county, rec.year, feats, label))
    return dataset_of(out)


class TestZscoreApplyBits:
    @pytest.mark.parametrize("split", [True, False])
    def test_bit_equal_to_per_record_loop(self, split):
        """On the training split (True) or the whole panel (False)."""
        ds, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        train, _ = data.split_by_test_year(ds, max(ds.years))
        stats = data.zscore_fit(train)
        source = train if split else ds
        got = data.zscore_apply(source, stats)
        assert record_bits(got) == record_bits(reference_zscore_apply(source, stats))
        assert got.neighbors == source.neighbors
        np.testing.assert_array_equal(got.rows, source.rows)  # row numbering kept

    def test_records_view_one_block(self):
        ds, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        got = data.zscore_apply(ds, data.zscore_fit(ds))
        block = got.records[0].features.base
        assert block is not None and all(r.features.base is block for r in got.records)

    def test_empty_dataset(self):
        ds, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        empty = data.Dataset([], np.empty((0, ds.T, ds.d)), [])
        assert len(data.zscore_apply(empty, data.zscore_fit(ds))) == 0
