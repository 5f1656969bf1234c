"""Retrieval tests: residual vectors, centered cosine, threshold
retrieval, and the neighboring/embedding baselines."""

import numpy as np
import pytest

from ratar import retrieval as rt
from ratar.backbone import GruParams, global_forward, model_labels
from ratar.data import (
    CountyYearRecord,
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    split_by_test_year,
    zscore_fit,
    zscore_apply,
)
from ratar.numcore import ContractError, Tensor


def vec(county, years, values):
    return rt.ResidualVector(county=county, years=list(years), r=np.asarray(values, float))


def toy_dataset(counties, years, T=3, d=2, seed=0):
    rng = np.random.default_rng(seed)
    recs = []
    for c in counties:
        for y in years:
            recs.append(CountyYearRecord(c, y, rng.standard_normal((T, d)), float(rng.uniform(1, 9))))
    return Dataset(records=recs)


class TestComputeResiduals:
    def setup_method(self):
        cfg = SyntheticConfig(n_counties=6, n_years=5, T=6, d=4, n_hidden_clusters=2,
                              year_bias_slope=0.0, year_shock_std=0.2, obs_noise_std=0.1,
                              seed=3)
        self.ds, _ = generate_synthetic(cfg)
        self.params = GruParams.init(d=4, H=5, readout_hidden=0, seed=0)

    def test_matches_per_record_definition(self):
        res = rt.compute_residuals(self.ds, model_labels(self.params, self.ds.records))
        for rv in res.values():
            assert len(rv.years) == 5
        for rec in self.ds.records:
            rv = res[rec.county]
            k = rv.years.index(rec.year)
            pred = global_forward(None, self.params, rec.features[None]).data[0]
            np.testing.assert_allclose(rv.r[k], rec.yield_label - pred, atol=1e-10)

    def test_constant_offset_algebra(self):
        # r + f(x) must reproduce y exactly, so shifting labels by c shifts r by c
        preds = model_labels(self.params, self.ds.records)
        res = rt.compute_residuals(self.ds, preds)
        shifted = Dataset(records=[r.with_changes(yield_label=r.yield_label + 2.5)
                                   for r in self.ds.records])
        res2 = rt.compute_residuals(shifted, preds)
        for c in res:
            np.testing.assert_allclose(res2[c].r - res[c].r, 2.5, atol=1e-9)

    def test_normalized_dataset_physical_units(self):
        stats = zscore_fit(self.ds)
        norm = zscore_apply(self.ds, stats)
        res_norm = rt.compute_residuals(norm, model_labels(self.params, norm.records),
                                        stats=stats)
        for rec in self.ds.records:
            rv = res_norm[rec.county]
            k = rv.years.index(rec.year)
            norm_rec = [r for r in norm.records if r.county == rec.county and r.year == rec.year][0]
            pred_norm = global_forward(None, self.params, norm_rec.features[None]).data[0]
            pred_phys = stats.denormalize_label(pred_norm)
            np.testing.assert_allclose(rv.r[k], rec.yield_label - pred_phys, atol=1e-9)

    def test_unlabeled_county_excluded_with_warning(self):
        recs = [r for r in self.ds.records]
        lone = [CountyYearRecord("zz", y, np.zeros((6, 4)), None) for y in range(2000, 2005)]
        ds = Dataset(records=recs + lone)
        with pytest.warns(UserWarning, match="zz"):
            res = rt.compute_residuals(ds, model_labels(self.params, ds.records))
        assert "zz" not in res

    def test_same_cluster_pairs_more_similar(self):
        cfg = SyntheticConfig(n_counties=24, n_years=8, T=8, d=6, n_hidden_clusters=3,
                              year_bias_slope=0.0, year_shock_std=0.3, obs_noise_std=0.05,
                              seed=11)
        ds, truth = generate_synthetic(cfg)
        params = GruParams.init(d=6, H=6, readout_hidden=0, seed=1)
        res = rt.compute_residuals(ds, model_labels(params, ds.records))
        cluster = {c: truth.rows[(c, ds.years[0])].cluster for c in ds.counties}
        within, across = [], []
        counties = sorted(res)
        for i, a in enumerate(counties):
            for b in counties[i + 1:]:
                sim = rt.centered_cosine(res[a], res[b])
                (within if cluster[a] == cluster[b] else across).append(sim)
        assert np.mean(within) > np.mean(across)


class TestCenteredCosine:
    def test_self_similarity(self):
        a = vec("a", range(2000, 2005), [1.0, 2.0, 0.5, 3.0, -1.0])
        np.testing.assert_allclose(rt.centered_cosine(a, a), 1.0, atol=1e-12)

    def test_antipodal(self):
        a = vec("a", range(2000, 2003), [1.0, 2.0, 3.0])
        b = vec("b", range(2000, 2003), [3.0, 2.0, 1.0])
        np.testing.assert_allclose(rt.centered_cosine(a, b), -1.0, atol=1e-12)

    def test_hand_case_scaled(self):
        a = vec("a", range(2000, 2003), [1.0, 2.0, 3.0])
        b = vec("b", range(2000, 2003), [2.0, 4.0, 6.0])
        np.testing.assert_allclose(rt.centered_cosine(a, b), 1.0, atol=1e-12)

    def test_centering_invariance(self):
        rng = np.random.default_rng(0)
        a = vec("a", range(2000, 2008), rng.standard_normal(8))
        b = vec("b", range(2000, 2008), rng.standard_normal(8))
        base = rt.centered_cosine(a, b)
        shifted = vec("a", range(2000, 2008), a.r + 17.3)
        np.testing.assert_allclose(rt.centered_cosine(shifted, b), base, atol=1e-12)

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = vec("a", range(2000, 2006), rng.standard_normal(6))
            b = vec("b", range(2000, 2006), rng.standard_normal(6))
            s1, s2 = rt.centered_cosine(a, b), rt.centered_cosine(b, a)
            assert s1 == s2
            assert abs(s1) <= 1.0 + 1e-12

    def test_alignment_on_common_years(self):
        a = vec("a", [2000, 2001, 2002, 2003, 2004], [5.0, 1.0, 2.0, 3.0, 9.0])
        b = vec("b", [2002, 2003, 2004, 2005], [2.0, 4.0, 6.0, -3.0])
        # common years 2002..2004 carry [2,3,9] vs [2,4,6]
        ac = np.array([2.0, 3.0, 9.0]) - np.mean([2.0, 3.0, 9.0])
        bc = np.array([2.0, 4.0, 6.0]) - 4.0
        want = float(ac @ bc / (np.linalg.norm(ac) * np.linalg.norm(bc)))
        np.testing.assert_allclose(rt.centered_cosine(a, b), want, atol=1e-12)

    def test_too_few_common_years(self):
        a = vec("a", [2000, 2001], [1.0, 2.0])
        b = vec("b", [2001, 2002], [1.0, 2.0])
        with pytest.raises(ContractError):
            rt.centered_cosine(a, b)

    def test_zero_norm_gives_zero(self):
        a = vec("a", range(2000, 2004), [2.0, 2.0, 2.0, 2.0])
        b = vec("b", range(2000, 2004), [1.0, 2.0, 3.0, 4.0])
        assert rt.centered_cosine(a, b) == 0.0


class TestPairwiseCosine:
    def test_matches_per_pair(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((12, 7))
        sims = rt.pairwise_cosine(M)
        years = list(range(2000, 2007))
        for i in range(12):
            for j in range(12):
                a, b = vec(str(i), years, M[i]), vec(str(j), years, M[j])
                np.testing.assert_allclose(sims[i, j], rt.centered_cosine(a, b), atol=1e-12)

    def test_constant_row_zeroed(self):
        M = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        sims = rt.pairwise_cosine(M)
        assert sims[0, 1] == 0.0 and sims[1, 0] == 0.0


class TestRetrieve:
    def setup_method(self):
        years = list(range(2000, 2010))
        p = np.array([1.0, -1.0, 2.0, 0.5, -2.0, 1.5, 0.0, -0.5, 2.5, -1.5])
        self.residuals = {
            "qq": vec("qq", years, p),
            "hi": vec("hi", years, 2.0 * p + 1.0),          # similarity exactly 1
            "mid": vec("mid", years, p + 0.4 * np.sin(np.arange(10))),
            "anti": vec("anti", years, -p),                  # similarity -1
            "flat": vec("flat", years, np.zeros(10)),        # degenerate
        }
        self.train = toy_dataset(["qq", "hi", "mid", "anti", "flat"], years)

    def test_matched_and_ordering(self):
        out = rt.retrieve("qq", self.residuals, self.train, threshold=0.9)
        names = [c for c, _ in out.matched]
        assert names[0] == "hi"
        assert "anti" not in names and "qq" not in names and "flat" not in names
        sims = [s for _, s in out.matched]
        assert sims == sorted(sims, reverse=True)
        assert all(s > 0.9 for s in sims)

    def test_samples_from_last_five_years(self):
        out = rt.retrieve("qq", self.residuals, self.train, threshold=0.9)
        years = {r.year for r in out.samples}
        assert years <= {2005, 2006, 2007, 2008, 2009}
        counties = {r.county for r in out.samples}
        assert counties == {c for c, _ in out.matched}

    def test_vacuous_threshold(self):
        out = rt.retrieve("qq", self.residuals, self.train, threshold=1.0 + 1e-9)
        assert out.matched == [] and out.samples == []

    def test_threshold_monotonicity(self):
        lo = rt.retrieve("qq", self.residuals, self.train, threshold=0.5)
        hi = rt.retrieve("qq", self.residuals, self.train, threshold=0.95)
        lo_set = {c for c, _ in lo.matched}
        hi_set = {c for c, _ in hi.matched}
        assert hi_set <= lo_set

    def test_top_k_cap(self):
        out = rt.retrieve("qq", self.residuals, self.train, threshold=0.5, top_k=1)
        assert len(out.matched) == 1 and out.matched[0][0] == "hi"

    def test_missing_query_rejected(self):
        with pytest.raises(ContractError):
            rt.retrieve("nope", self.residuals, self.train)

    def test_degenerate_query_empty_flagged(self):
        out = rt.retrieve("flat", self.residuals, self.train, threshold=0.0)
        assert out.matched == [] and any("flat" in f for f in out.flags)

    def test_deterministic(self):
        a = rt.retrieve("qq", self.residuals, self.train, threshold=0.5)
        b = rt.retrieve("qq", self.residuals, self.train, threshold=0.5)
        assert a.matched == b.matched
        assert [(r.county, r.year) for r in a.samples] == [(r.county, r.year) for r in b.samples]

    def test_short_overlap_skipped(self):
        residuals = dict(self.residuals)
        residuals["newbie"] = vec("newbie", [2008, 2009], [1.0, 2.0])
        out = rt.retrieve("qq", residuals, self.train, threshold=-2.0)
        assert "newbie" not in {c for c, _ in out.matched}


class TestRetrieveNeighboring:
    def setup_method(self):
        self.train = toy_dataset(["a", "b", "c", "d"], range(2000, 2008))
        self.adj = {"a": ["b", "c"], "b": ["a"], "c": ["a"], "d": []}

    def test_neighbors_matched_with_sentinel(self):
        out = rt.retrieve_neighboring("a", self.adj, self.train)
        assert [c for c, _ in out.matched] == ["b", "c"]
        assert all(s == 1.0 for _, s in out.matched)
        assert {r.year for r in out.samples} <= {2003, 2004, 2005, 2006, 2007}

    def test_isolated_county(self):
        out = rt.retrieve_neighboring("d", self.adj, self.train)
        assert out.matched == [] and out.samples == []

    def test_missing_query_warns_empty(self):
        with pytest.warns(UserWarning, match="zz"):
            out = rt.retrieve_neighboring("zz", self.adj, self.train)
        assert out.matched == [] and any("zz" in f for f in out.flags)

    def test_symmetry_passthrough(self):
        a = rt.retrieve_neighboring("a", self.adj, self.train)
        b = rt.retrieve_neighboring("b", self.adj, self.train)
        assert ("b" in {c for c, _ in a.matched}) == ("a" in {c for c, _ in b.matched})


class TestRetrieveEmbedding:
    def setup_method(self):
        self.train = toy_dataset(["a", "b", "c"], range(2000, 2008))
        self.embeddings = {
            "a": np.array([1.0, 2.0, 3.0, 4.0]),
            "b": np.array([2.0, 4.0, 6.0, 8.0]),   # sim 1 with a after centering
            "c": np.array([4.0, 3.0, 2.0, 1.0]),   # sim -1
        }

    def test_identical_direction_matches(self):
        out = rt.retrieve_embedding("a", self.embeddings, self.train, threshold=0.9)
        assert [c for c, _ in out.matched] == ["b"]
        np.testing.assert_allclose(out.matched[0][1], 1.0, atol=1e-12)

    def test_monotone_threshold(self):
        lo = rt.retrieve_embedding("a", self.embeddings, self.train, threshold=-2.0)
        hi = rt.retrieve_embedding("a", self.embeddings, self.train, threshold=0.9)
        assert {c for c, _ in hi.matched} <= {c for c, _ in lo.matched}

    def test_missing_query_rejected(self):
        with pytest.raises(ContractError):
            rt.retrieve_embedding("zz", self.embeddings, self.train)


class TestCsvExport:
    def test_rows_per_sample(self, tmp_path):
        years = list(range(2000, 2010))
        p = np.arange(10.0)
        residuals = {"q": vec("q", years, p), "m": vec("m", years, p * 3 + 1)}
        train = toy_dataset(["q", "m"], years)
        out = rt.retrieve("q", residuals, train, threshold=0.9)
        path = tmp_path / "retrieval.csv"
        rt.save_retrieval_csv([out], str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "query,matched,similarity,sample_year"
        assert len(lines) == 1 + len(out.samples)
        assert lines[1].startswith("q,m,")
