"""Data layer tests: CSV ingestion, normalization, splits, synthetic oracle."""

import numpy as np
import pytest

from ratar import data
from ratar.numcore import ContractError


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
        rec = ds.get("c1", 2001)
        np.testing.assert_allclose(rec.features[:, 0], [0.5, 0.6, 0.7, 0.8])
        assert rec.yield_label == 6.0

    def test_missing_label_allowed(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        assert not ds.get("c2", 2002).has_label

    def test_label_on_first_day_only(self, tmp_path):
        text = FIXTURE_CSV.replace("c1,2000,2,0.2,1.1,5.0", "c1,2000,2,0.2,1.1,")
        text = text.replace("c1,2000,3,0.3,1.2,5.0", "c1,2000,3,0.3,1.2,")
        text = text.replace("c1,2000,4,0.4,1.3,5.0", "c1,2000,4,0.4,1.3,")
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", text))
        assert ds.get("c1", 2000).yield_label == 5.0

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
        assert ds.get("a", 2000).features.shape == (365, 1)


class TestZscore:
    def test_fit_apply_centers(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2002)
        stats = data.zscore_fit(train)
        normed = data.zscore_apply(train, stats)
        stacked = np.concatenate([r.features for r in normed])
        np.testing.assert_allclose(np.abs(stacked.mean(axis=0)), 0.0, atol=1e-10)
        np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-10)

    def test_labels_normalized(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2002)
        stats = data.zscore_fit(train)
        normed = data.zscore_apply(train, stats)
        labels = np.array([r.yield_label for r in normed])
        np.testing.assert_allclose(labels.mean(), 0.0, atol=1e-12)

    def test_apply_without_labels_keeps_raw(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2002)
        stats = data.zscore_fit(train)
        kept = data.zscore_apply(train, stats, labels=False)
        assert kept.get("c1", 2000).yield_label == 5.0

    def test_constant_column_clamped(self):
        recs = [
            data.CountyYearRecord("a", 2000, np.column_stack([np.ones(3), np.arange(3.0)]), 1.0),
            data.CountyYearRecord("a", 2001, np.column_stack([np.ones(3), np.arange(3.0) + 1]), 2.0),
        ]
        ds = data.Dataset(recs)
        stats = data.zscore_fit(ds)
        assert 0 in stats.clamped_features
        assert stats.feature_std[0] == 1.0
        normed = data.zscore_apply(ds, stats)
        np.testing.assert_allclose(normed.get("a", 2000).features[:, 0], 0.0)

    def test_invertibility(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, _ = data.split_by_test_year(ds, 2002)
        stats = data.zscore_fit(train)
        normed = data.zscore_apply(train, stats)
        for rec in train:
            back = normed.get(rec.county, rec.year)
            np.testing.assert_allclose(
                back.features * stats.feature_std + stats.feature_mean, rec.features,
                atol=1e-10,
            )
            np.testing.assert_allclose(
                back.yield_label * stats.label_std + stats.label_mean, rec.yield_label,
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
            data.zscore_fit(data.Dataset([]))


class TestSplit:
    def test_prior_years_protocol(self, tmp_path):
        ds = data.load_dataset(write_csv(tmp_path / "d.csv", FIXTURE_CSV))
        train, test = data.split_by_test_year(ds, 2002)
        assert sorted({r.year for r in train}) == [2000, 2001]
        assert {r.year for r in test} == {2002}
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
    """county_years and records_of_year against their scan definitions."""

    def gappy(self):
        # 4 counties x 2000..2005, given in shuffled order, with some
        # (county, year) records missing and one county without 2000
        rng = np.random.default_rng(0)
        keys = [(f"c{i}", year) for i in range(4) for year in range(2000, 2006)
                if (i + year) % 3 != 0 and (i, year) != (2, 2000)]
        recs = [data.CountyYearRecord(county, year, rng.standard_normal((3, 2)), 1.0)
                for county, year in keys]
        order = rng.permutation(len(recs))
        return data.Dataset([recs[i] for i in order]), set(keys)

    def test_county_years_matches_scan(self):
        ds, keys = self.gappy()
        for county in ds.counties + ["absent"]:
            want = [y for y in ds.years if (county, y) in keys]
            assert ds.county_years(county) == want

    def test_records_of_year_matches_scan(self):
        ds, _ = self.gappy()
        for year in ds.years + [1999]:
            want = [r for r in ds.records if r.year == year]
            got = ds.records_of_year(year)
            assert [(r.county, r.year) for r in got] == [(r.county, r.year) for r in want]
            assert all(a is b for a, b in zip(got, want))

    def test_lookups_return_new_lists(self):
        ds, _ = self.gappy()
        ds.county_years("c0").clear()
        ds.records_of_year(2001).clear()
        assert ds.county_years("c0") and ds.records_of_year(2001)


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
        for r1, r2 in zip(ds1, ds2):
            assert np.array_equal(r1.features, r2.features)
            assert r1.yield_label == r2.yield_label
        for key in truth1.rows:
            assert truth1.rows[key].noiseless_yield == truth2.rows[key].noiseless_yield

    def test_shapes_and_coverage(self):
        ds, truth = data.generate_synthetic(self.CFG)
        assert len(ds) == 12 * 6
        assert ds.T == 20 and ds.d == 8
        assert len(truth.rows) == len(ds)
        for rec in ds:
            assert rec.yield_label is not None and rec.yield_label >= 0.0
            assert rec.neighbors is not None

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
        for rec in ds:
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
        for rec in ds:
            np.testing.assert_allclose(
                rec.yield_label, truth.rows[(rec.county, rec.year)].noiseless_yield
            )

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
        for rec in ds.records_of_year(ds.years[0]):
            for nb in rec.neighbors:
                same += clusters[nb] == clusters[rec.county]
                total += 1
        rate = same / total
        assert 0.05 < rate < 0.55  # chance is 0.25; far from purity 1.0

    def test_adjacency_is_symmetric(self):
        ds, _ = data.generate_synthetic(self.CFG)
        neigh = {rec.county: set(rec.neighbors) for rec in ds.records_of_year(ds.years[0])}
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
        for rec in ds:
            other = back.get(rec.county, rec.year)
            assert np.array_equal(other.features, rec.features)
            assert other.yield_label == rec.yield_label

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
        rec = ds.records_of_year(ds.years[0])[0]
        assert sorted(adj[rec.county]) == sorted(rec.neighbors)

    def test_write_is_deterministic(self, tmp_path):
        ds, _ = data.generate_synthetic(TestSyntheticGenerator.CFG)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data.save_dataset_csv(ds, str(p1))
        data.save_dataset_csv(ds, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestLabelAudit:
    def setup_method(self):
        data.label_audit.reset()

    def test_guarded_read_recorded(self):
        rec = data.CountyYearRecord("a", 2020, np.zeros((2, 1)), 3.0)
        with data.label_audit.guard(2020):
            _ = rec.yield_label
        assert data.label_audit.violation_count() == 1

    def test_unguarded_year_not_recorded(self):
        rec = data.CountyYearRecord("a", 2019, np.zeros((2, 1)), 3.0)
        with data.label_audit.guard(2020):
            _ = rec.yield_label
        assert data.label_audit.violation_count() == 0

    def test_allow_scope_suppresses(self):
        rec = data.CountyYearRecord("a", 2020, np.zeros((2, 1)), 3.0)
        with data.label_audit.guard(2020):
            with data.label_audit.allow():
                _ = rec.yield_label
        assert data.label_audit.violation_count() == 0

    def test_has_label_is_not_a_read(self):
        rec = data.CountyYearRecord("a", 2020, np.zeros((2, 1)), 3.0)
        with data.label_audit.guard(2020):
            _ = rec.has_label
        assert data.label_audit.violation_count() == 0

    def test_guard_exits_cleanly(self):
        rec = data.CountyYearRecord("a", 2020, np.zeros((2, 1)), 3.0)
        with data.label_audit.guard(2020):
            pass
        _ = rec.yield_label
        assert data.label_audit.violation_count() == 0
