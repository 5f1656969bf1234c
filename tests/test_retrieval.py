"""Retrieval tests: residual vectors, centered cosine, threshold
retrieval, and the neighboring/embedding baselines."""

import numpy as np
import pytest

import oracles
from oracles import dataset_of
from ratar import retrieval as rt
from ratar.backbone import GruParams, global_forward, model_labels
from ratar.data import (
    CountyYearRecord,
    NormStats,
    SyntheticConfig,
    generate_synthetic,
    split_by_test_year,
    zscore_fit,
    zscore_apply,
)
from ratar.numcore import ContractError, Tensor


def vec(county, years, values):
    return rt.ResidualVector(county=county, years=list(years), r=np.asarray(values, float))


def identity_stats(d):
    """Statistics that leave labels as they are: residuals in the data's units."""
    return NormStats(np.zeros(d), np.ones(d), 0.0, 1.0)


def sample_keys(samples, train):
    """Retrieved samples as (county, year) keys: block rows of train, or records."""
    if isinstance(samples, np.ndarray):
        return [train.key(r) for r in samples.tolist()]
    return [(r.county, r.year) for r in samples]


def toy_dataset(counties, years, T=3, d=2, seed=0):
    rng = np.random.default_rng(seed)
    recs = []
    for c in counties:
        for y in years:
            recs.append(CountyYearRecord(c, y, rng.standard_normal((T, d)), float(rng.uniform(1, 9))))
    return dataset_of(recs)


class TestComputeResiduals:
    def setup_method(self):
        cfg = SyntheticConfig(n_counties=6, n_years=5, T=6, d=4, n_hidden_clusters=2,
                              year_bias_slope=0.0, year_shock_std=0.2, obs_noise_std=0.1,
                              seed=3)
        self.ds, _ = generate_synthetic(cfg)
        self.params = GruParams.init(d=4, H=5, readout_hidden=0, seed=0)

    def test_matches_per_record_definition(self):
        res = rt.compute_residuals(self.ds, model_labels(self.params, self.ds),
                                   identity_stats(4))
        for rv in res.values():
            assert len(rv.years) == 5
        for rec, label in zip(self.ds.records, self.ds.labels()):
            rv = res[rec.county]
            k = rv.years.index(rec.year)
            pred = global_forward(None, self.params, rec.features[None]).data[0]
            np.testing.assert_allclose(rv.r[k], label - pred, atol=1e-10)

    def test_constant_offset_algebra(self):
        # r + f(x) must reproduce y exactly, so shifting labels by c shifts r by c
        preds = model_labels(self.params, self.ds)
        res = rt.compute_residuals(self.ds, preds, identity_stats(4))
        shifted = dataset_of(CountyYearRecord(r.county, r.year, r.features, label + 2.5)
                             for r, label in zip(self.ds.records, self.ds.labels()))
        res2 = rt.compute_residuals(shifted, preds, identity_stats(4))
        for c in res:
            np.testing.assert_allclose(res2[c].r - res[c].r, 2.5, atol=1e-9)

    def test_normalized_dataset_physical_units(self):
        stats = zscore_fit(self.ds)
        norm = zscore_apply(self.ds, stats)
        res_norm = rt.compute_residuals(norm, model_labels(self.params, norm),
                                        stats=stats)
        for rec, label in zip(self.ds.records, self.ds.labels()):
            rv = res_norm[rec.county]
            k = rv.years.index(rec.year)
            norm_rec = [r for r in norm.records if r.county == rec.county and r.year == rec.year][0]
            pred_norm = global_forward(None, self.params, norm_rec.features[None]).data[0]
            pred_phys = stats.denormalize_label(pred_norm)
            np.testing.assert_allclose(rv.r[k], label - pred_phys, atol=1e-9)

    def test_unlabeled_county_rejected(self):
        recs = [r for r in self.ds.records]
        lone = [CountyYearRecord("zz", y, np.zeros((6, 4)), None) for y in range(2000, 2005)]
        ds = dataset_of(recs + lone)
        with pytest.raises(ContractError, match="non-finite residuals for county zz"):
            rt.compute_residuals(ds, model_labels(self.params, ds), identity_stats(4))

    def test_same_cluster_pairs_more_similar(self):
        cfg = SyntheticConfig(n_counties=24, n_years=8, T=8, d=6, n_hidden_clusters=3,
                              year_bias_slope=0.0, year_shock_std=0.3, obs_noise_std=0.05,
                              seed=11)
        ds, truth = generate_synthetic(cfg)
        params = GruParams.init(d=6, H=6, readout_hidden=0, seed=1)
        res = rt.compute_residuals(ds, model_labels(params, ds), identity_stats(6))
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

    @staticmethod
    def aligned(a, b):
        """The general path: each vector's values selected on the common years."""
        common = sorted(set(a.years) & set(b.years))
        va = a.r[[a.years.index(y) for y in common]]
        vb = b.r[[b.years.index(y) for y in common]]
        return rt._centered_cos(va, vb)

    @pytest.mark.parametrize("years", [range(2000, 2012), [2000, 2002, 2003, 2007, 2008],
                                       [2001, 2004]])
    def test_same_years_fast_path_has_general_bits(self, years):
        """Vectors over the same years, complete or gapped, compared whole,
        give the aligned path's bits; so do mixed-year pairs, which align."""
        rng = np.random.default_rng(len(years))
        vectors = [vec(f"c{i}", years, rng.standard_normal(len(years)) * 10 ** i)
                   for i in range(4)]
        vectors.append(vec("z", years, np.full(len(years), 3.0)))  # zero norm
        if len(years) > 3:
            vectors.append(vec("g", list(years)[1:], rng.standard_normal(len(years) - 1)))
        for a in vectors:
            for b in vectors:
                got, want = rt.centered_cosine(a, b), self.aligned(a, b)
                assert float(got).hex() == float(want).hex()

    def test_embedding_panel_fast_path_has_general_bits(self):
        rng = np.random.default_rng(5)
        panel = oracles.embedding_panel({f"c{i}": rng.standard_normal(6) + i for i in range(8)})
        for a in panel.values():
            for b in panel.values():
                assert float(rt.centered_cosine(a, b)).hex() == float(self.aligned(a, b)).hex()


class TestRetrieve:
    def setup_method(self):
        years = list(range(2000, 2010))
        p = np.array([1.0, -1.0, 2.0, 0.5, -2.0, 1.5, 0.0, -0.5, 2.5, -1.5])
        self.vectors = {
            "qq": vec("qq", years, p),
            "hi": vec("hi", years, 2.0 * p + 1.0),          # similarity exactly 1
            "mid": vec("mid", years, p + 0.4 * np.sin(np.arange(10))),
            "anti": vec("anti", years, -p),                  # similarity -1
            "flat": vec("flat", years, np.zeros(10)),        # degenerate
        }
        self.residuals = oracles.residual_panel(self.vectors)
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
        keys = sample_keys(out.samples, self.train)
        assert {year for _, year in keys} == {2005, 2006, 2007, 2008, 2009}
        assert {county for county, _ in keys} == {c for c, _ in out.matched}

    def test_vacuous_threshold(self):
        out = rt.retrieve("qq", self.residuals, self.train, threshold=1.0 + 1e-9)
        assert out.matched == [] and out.samples.size == 0

    def test_threshold_monotonicity(self):
        lo = rt.retrieve("qq", self.residuals, self.train, threshold=0.5)
        hi = rt.retrieve("qq", self.residuals, self.train, threshold=0.95)
        lo_set = {c for c, _ in lo.matched}
        hi_set = {c for c, _ in hi.matched}
        assert hi_set <= lo_set

    def test_top_k_cap(self):
        out = rt.retrieve("qq", self.residuals, self.train, threshold=0.5, top_k=1)
        assert len(out.matched) == 1 and out.matched[0][0] == "hi"

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        # a negative cut used to drop the worst match and a zero one every match
        for panel in (self.residuals,
                      oracles.embedding_panel({c: rv.r for c, rv in self.vectors.items()})):
            with pytest.raises(ContractError, match=rf"top_k must be at least 1, got {top_k}$"):
                rt.retrieve("qq", panel, self.train, threshold=-2.0, top_k=top_k)

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
        assert np.array_equal(a.samples, b.samples)

    def test_short_overlap_skipped(self):
        residuals = dict(self.vectors)
        residuals["newbie"] = vec("newbie", [2008, 2009], [1.0, 2.0])
        out = rt.retrieve("qq", oracles.residual_panel(residuals), self.train, threshold=-2.0)
        assert "newbie" not in {c for c, _ in out.matched}


class TestRetrieveNeighboring:
    def setup_method(self):
        self.train = toy_dataset(["a", "b", "c", "d"], range(2000, 2008))
        self.adj = {"a": ["b", "c"], "b": ["a"], "c": ["a"], "d": []}

    def test_neighbors_matched_with_sentinel(self):
        out = rt.retrieve_neighboring("a", self.adj, self.train)
        assert [c for c, _ in out.matched] == ["b", "c"]
        assert all(s == 1.0 for _, s in out.matched)
        keys = sample_keys(out.samples, self.train)
        assert keys == [(c, y) for c in ("b", "c") for y in range(2003, 2008)]

    def test_each_neighbor_once_and_never_the_query(self):
        """A pair listed twice, or a `c,c` row, must not add seasons."""
        adj = {"a": ["c", "b", "b", "a", "c"]}
        out = rt.retrieve_neighboring("a", adj, self.train)
        assert out.matched == [("b", 1.0), ("c", 1.0)]
        assert sample_keys(out.samples, self.train) == \
            [(c, y) for c in ("b", "c") for y in range(2003, 2008)]

    def test_isolated_county(self):
        out = rt.retrieve_neighboring("d", self.adj, self.train)
        assert out.matched == [] and out.samples.size == 0

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
        self.embeddings = oracles.embedding_panel({
            "a": np.array([1.0, 2.0, 3.0, 4.0]),
            "b": np.array([2.0, 4.0, 6.0, 8.0]),   # sim 1 with a after centering
            "c": np.array([4.0, 3.0, 2.0, 1.0]),   # sim -1
        })

    def test_identical_direction_matches(self):
        out = rt.retrieve("a", self.embeddings, self.train, threshold=0.9)
        assert [c for c, _ in out.matched] == ["b"]
        np.testing.assert_allclose(out.matched[0][1], 1.0, atol=1e-12)

    def test_monotone_threshold(self):
        lo = rt.retrieve("a", self.embeddings, self.train, threshold=-2.0)
        hi = rt.retrieve("a", self.embeddings, self.train, threshold=0.9)
        assert {c for c, _ in hi.matched} <= {c for c, _ in lo.matched}

    def test_missing_query_rejected(self):
        with pytest.raises(ContractError):
            rt.retrieve("zz", self.embeddings, self.train)


class TestCsvExport:
    def test_rows_per_sample(self, tmp_path):
        years = list(range(2000, 2010))
        p = np.arange(10.0)
        residuals = {"q": vec("q", years, p), "m": vec("m", years, p * 3 + 1)}
        train = toy_dataset(["q", "m"], years)
        out = rt.retrieve("q", oracles.residual_panel(residuals), train, threshold=0.9)
        path = tmp_path / "retrieval.csv"
        rt.save_retrieval_csv([out], train, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "query,matched,similarity,sample_year"
        assert len(lines) == 1 + len(out.samples)
        assert lines[1].startswith("q,m,") and lines[1].endswith(",2005")


# ---------------------------------------------------------------------------
# The all-pairs screen against the per-pair loop it replaced


def _oracle_match(result, sims, train, threshold, top_k):
    matched = [(c, s) for c, s in sims if s > threshold]
    matched.sort(key=lambda cs: (-cs[1], cs[0]))
    if top_k is not None:
        matched = matched[:top_k]
    result.matched = matched
    result.samples = oracles.collect_samples(matched, train)
    return result


def oracle_retrieve(query, residuals, train, threshold=0.9, top_k=None):
    """The per-pair loop: one `centered_cosine` call per candidate."""
    if query not in residuals:
        raise ContractError(f"no residual vector for query county {query}")
    rq = residuals[query]
    result = rt.RetrievalResult(query=query)
    if float(np.linalg.norm(rq.r - rq.r.mean())) < rt._ZERO_NORM:
        result.flags.append(f"degenerate_query:{query}")
        return result
    sims = []
    for county in sorted(residuals):
        if county == query:
            continue
        rv = residuals[county]
        common = set(rq.years) & set(rv.years)
        if len(common) < rt._MIN_COMMON_YEARS:
            result.flags.append(f"insufficient_overlap:{county}")
            continue
        if float(np.linalg.norm(rv.r - rv.r.mean())) < rt._ZERO_NORM:
            result.flags.append(f"zero_norm:{county}")
            continue
        sims.append((county, rt.centered_cosine(rq, rv)))
    return _oracle_match(result, sims, train, threshold, top_k)


def oracle_retrieve_embedding(query, embeddings, train, threshold=0.9, top_k=None):
    """The per-pair loop over mean embeddings."""
    if query not in embeddings:
        raise ContractError(f"no embedding for query county {query}")
    zq = np.asarray(embeddings[query], dtype=np.float64)
    result = rt.RetrievalResult(query=query)
    if float(np.linalg.norm(zq - zq.mean())) < rt._ZERO_NORM:
        result.flags.append(f"degenerate_query:{query}")
        return result
    sims = []
    for county in sorted(embeddings):
        if county == query:
            continue
        zc = np.asarray(embeddings[county], dtype=np.float64)
        sim = rt._centered_cos(zq, zc)
        if sim == 0.0 and float(np.linalg.norm(zc - zc.mean())) < rt._ZERO_NORM:
            result.flags.append(f"zero_norm:{county}")
            continue
        sims.append((county, sim))
    return _oracle_match(result, sims, train, threshold, top_k)


def outcome(result, train):
    """A result as exact bits: matched (float hex), sample keys, flags."""
    return ([(c, float(s).hex()) for c, s in result.matched],
            sample_keys(result.samples, train),
            list(result.flags))


def random_rows(seed, width, n=36):
    """County -> value row: clustered, constant, near-constant, offset, duplicated."""
    rng = np.random.default_rng(seed)
    patterns = rng.standard_normal((3, width))
    rows = {}
    for i in range(n):
        rows[f"c{i:03d}"] = patterns[i % 3] + 0.4 * rng.standard_normal(width)
    rows["const0"] = np.full(width, 2.5)
    rows["const1"] = np.zeros(width)
    rows["near0"] = 3.0 + 1e-14 * rng.standard_normal(width)  # below the zero-norm cut
    rows["near1"] = 3.0 + 1e-10 * patterns[0]  # above it, tiny next to its size
    rows["near2"] = -7.0 + 1e-9 * (patterns[1] + 0.1 * rng.standard_normal(width))
    for k in range(3):
        rows[f"big{k}"] = 1e6 + 1e-3 * (patterns[k] + rng.standard_normal(width))
    rows["big3"] = -1e6 + 1e-4 * patterns[0]
    for k in (4, 5):  # 1e13 times their spread: centering rounds visibly
        rows[f"big{k}"] = 1e6 + 1e-7 * (patterns[k - 3] + rng.standard_normal(width))
    for src in ("c000", "c003", "c004", "big0", "near1"):
        rows["d" + src] = rows[src].copy()  # ties, broken by county id
    return rows


def random_residuals(seed, n_years=12):
    rng = np.random.default_rng(seed + 1000)
    years = list(range(2000, 2000 + n_years))
    residuals = {}
    for county, row in random_rows(seed, n_years).items():
        present = rng.random(n_years) > 0.1  # ~10% missing years
        if county.startswith("d"):
            present = np.ones(n_years, dtype=bool)
        keep = [j for j in range(n_years) if present[j]]
        residuals[county] = vec(county, [years[j] for j in keep], row[keep])
    residuals["short0"] = vec("short0", years[-2:], [1.0, -1.0])  # < 3 years
    residuals["short1"] = vec("short1", years[:3], [0.5, 2.0, -1.0])
    residuals["short2"] = vec("short2", [years[0], years[5], years[9]], [1.0, 2.0, 4.0])
    # far from its full-vector mean on the years the partners keep: the
    # common-year centering cancels most of the sum of squares
    late = years[n_years // 2:]
    pattern = random_rows(seed, n_years)["c000"][n_years // 2:]
    residuals["shift0"] = vec("shift0", years, np.concatenate(
        [2e4 + rng.standard_normal(n_years // 2), pattern + rng.standard_normal(len(late))]))
    for k in (1, 2):
        residuals[f"shift{k}"] = vec(f"shift{k}", late,
                                     pattern + rng.standard_normal(len(late)))
    return residuals


def boundary_thresholds(sims):
    """Thresholds exactly at some pairs' similarities and 1 ulp either side."""
    out = []
    for s in sims:
        out += [s, float(np.nextafter(s, -np.inf)), float(np.nextafter(s, np.inf))]
    return out


def assert_same_as_oracle(panel, plain, oracle, retrieve_fn, train, queries):
    """Every query at several thresholds and top_k values.

    Queries on rows the screen cannot resolve ("big", "near", "shift")
    are also cut exactly at, and 1 ulp either side of, every similarity.
    """
    for query in queries:
        # at threshold -2.0 the loop keeps every pair it compared, so each
        # other setting is its match step over the same pairs
        full = oracle(query, plain, train, threshold=-2.0)
        ranked = [s for _c, s in full.matched]
        settings = [(t, k) for t in [-2.0, 0.0, 0.9] + boundary_thresholds(ranked[:3] + ranked[-2:])
                    for k in (None, 1, 2, 3)]
        if query.startswith(("big", "near", "shift")):
            settings += [(t, k) for t in boundary_thresholds(ranked) for k in (None, 1)]
        for threshold, top_k in settings:
            want = rt.RetrievalResult(query=query, flags=list(full.flags))
            if not any(f.startswith("degenerate_query:") for f in full.flags):
                _oracle_match(want, full.matched, train, threshold, top_k)
            got = retrieve_fn(query, panel, train, threshold=threshold, top_k=top_k)
            assert outcome(got, train) == outcome(want, train), (query, threshold, top_k)


class TestScreenEquivalence:
    """Matches, samples and flags are bit-identical to the per-pair loop."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_residual_mode(self, seed):
        residuals = random_residuals(seed)
        train = toy_dataset(sorted(residuals), range(2000, 2012))
        panel = oracles.residual_panel(residuals)
        assert_same_as_oracle(panel, residuals, oracle_retrieve, rt.retrieve, train,
                              sorted(residuals))

    def test_cancellation_pairs_are_exact(self):
        # offset rows carry 1e6 next to 1e-3 of signal: the screen cannot
        # resolve them, so their values must come from the scalar formula
        residuals = random_residuals(3)
        panel = oracles.residual_panel(residuals)
        sim, _overlap = panel.tables()
        big = [panel.index[c] for c in ("big0", "big1", "big4", "dbig0", "near1")]
        assert np.all(np.isnan(sim[np.ix_(big, big)]))
        shifted = panel.index["shift0"], panel.index["shift1"]
        assert np.isnan(sim[shifted]) and np.isnan(sim[shifted[::-1]])
        assert np.isfinite(sim[panel.index["shift1"], panel.index["shift2"]])

    def test_top_k_cut_inside_a_tie(self):
        residuals = random_residuals(4)
        train = toy_dataset(sorted(residuals), range(2000, 2012))
        # c000 and dc000 hold the same row, so c003's similarity to them ties
        want = oracle_retrieve("c003", residuals, train, threshold=-2.0)
        sims = dict(want.matched)
        assert "c000" in sims and sims["c000"] == sims["dc000"]
        rank = [c for c, _s in want.matched].index("c000")
        got = rt.retrieve("c003", oracles.residual_panel(residuals), train, threshold=-2.0,
                          top_k=rank + 1)
        assert [c for c, _s in got.matched][-1] == "c000"
        assert outcome(got, train) == outcome(oracle_retrieve("c003", residuals, train,
                                                              threshold=-2.0, top_k=rank + 1),
                                              train)

    @pytest.mark.parametrize("width", [1, 2, 5, 8])
    def test_embedding_mode(self, width):
        embeddings = random_rows(width, width)
        train = toy_dataset(sorted(embeddings), range(2000, 2008))
        panel = oracles.embedding_panel(embeddings)
        queries = sorted(embeddings)[::3] + ["big0", "near1", "const0", "dc000"]
        assert_same_as_oracle(panel, embeddings, oracle_retrieve_embedding,
                              rt.retrieve, train, queries)
        for query in ("c001", "const1"):
            want = oracle_retrieve_embedding(query, embeddings, train, threshold=0.2, top_k=2)
            got = rt.retrieve(query, oracles.embedding_panel(embeddings), train, threshold=0.2,
                              top_k=2)
            assert outcome(got, train) == outcome(want, train)


class TestPerSettingScreen:
    """Each setting's screen, built for every query at once, holds the rows
    that each query screened on its own, and retrieval keeps its bits."""

    @staticmethod
    def settings(panel, query):
        """Thresholds at, and within the screen margin of, the query's
        similarities, and top_k values cutting inside its ranks."""
        row = panel.tables()[0][panel.index[query]]
        finite = np.sort(row[np.isfinite(row)])[::-1]
        picks = finite[[0, 1, 2, len(finite) // 2, -1]] if len(finite) > 2 else finite
        thresholds = [-2.0, 0.0, 0.5]
        for value in picks.tolist():
            thresholds += [value, value - 4e-10, value + 4e-10, value - 2e-9]
        return [(t, k) for t in thresholds for k in (None, 1, 2, 3, 7)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_residual_rows_match_per_query_screens(self, seed):
        residuals = random_residuals(seed)
        train = toy_dataset(sorted(residuals), range(2000, 2012))
        panel = oracles.residual_panel(residuals)
        sim = panel.tables()[0]
        assert np.isnan(sim).any(), "untrusted pairs are screened"
        flagged_seen = 0
        for query in sorted(residuals):
            q = panel.index[query]
            for i, (threshold, top_k) in enumerate(self.settings(panel, query)):
                flagged, keep = panel.screen(threshold, top_k)
                flags, want_keep = oracles.query_screen(panel, query, threshold, top_k)
                assert np.array_equal(keep[q], want_keep), (query, threshold, top_k)
                if not panel.zero_norm[q]:
                    assert [c for f in flags for c in [f.split(":", 1)[1]]] == \
                        [panel.counties[j] for j in np.flatnonzero(flagged[q])]
                    flagged_seen += len(flags)
                if i % 6:
                    continue  # same rows, same code after them: spot-check the results
                got = rt.retrieve(query, panel, train, threshold=threshold, top_k=top_k)
                want = oracles.query_retrieve(query, residuals, train, threshold, top_k)
                assert outcome(got, train) == outcome(want, train), (query, threshold, top_k)
        assert flagged_seen > 0

    def test_ties_at_the_top_k_cut(self):
        """Screened values tied at, and within the margin of, the top_k-th best."""
        panel = oracles.residual_panel(random_residuals(4))
        sim, overlap = panel.tables()
        sim, ties = sim.copy(), {}
        for query in ("c003", "c010", "big1"):
            q = panel.index[query]
            _, live = oracles.query_screen(panel, query, -2.0, None)
            ranked = [j for j in np.argsort(-np.nan_to_num(sim[q], nan=-9.0)) if live[j]]
            tie = ties[query] = float(sim[q, ranked[2]])
            sim[q, ranked[1:5]] = tie  # four ranks tied
            sim[q, ranked[5]] = tie - 5e-10  # within the margin of the tie
            sim[q, ranked[6]] = tie - 2e-9  # outside it
            sim[q, ranked[7]] = np.nan  # untrusted
        panel._tables = (sim, overlap)
        for query in ("c003", "c010", "big1"):
            q = panel.index[query]
            for threshold in (-2.0, ties[query], ties[query] - 5e-10, 0.5):
                for top_k in (1, 2, 3, 4, 5, 6, 7, None):
                    _, keep = panel.screen(threshold, top_k)
                    want = oracles.query_screen(panel, query, threshold, top_k)[1]
                    assert np.array_equal(keep[q], want), (query, threshold, top_k)

    @pytest.mark.parametrize("width", [5])
    def test_embedding_rows_match_per_query_screens(self, width):
        embeddings = random_rows(width, width)
        train = toy_dataset(sorted(embeddings), range(2000, 2008))
        panel = oracles.embedding_panel(embeddings)
        for query in sorted(embeddings):
            for threshold, top_k in self.settings(panel, query)[::6]:
                got = rt.retrieve(query, panel, train, threshold=threshold, top_k=top_k)
                want = oracles.query_retrieve(query, panel, train, threshold, top_k)
                assert outcome(got, train) == outcome(want, train), (query, threshold, top_k)

    def test_built_once_per_setting(self, monkeypatch):
        residuals = random_residuals(5)
        train = toy_dataset(sorted(residuals), range(2000, 2012))
        panel = oracles.residual_panel(residuals)
        builds = []
        original = rt.ResidualPanel._build_screen

        def counting(self, threshold, top_k):
            builds.append((threshold, top_k))
            return original(self, threshold, top_k)

        monkeypatch.setattr(rt.ResidualPanel, "_build_screen", counting)
        for setting in [(0.5, 1), (0.5, None), (0.5, 1), (0.2, 1)]:
            for query in sorted(residuals):
                rt.retrieve(query, panel, train, *setting)
        assert builds == [(0.5, 1), (0.5, None), (0.2, 1)]


class TestScreenCost:
    def test_table_built_once_and_few_scalar_calls(self, monkeypatch):
        rng = np.random.default_rng(7)
        years = list(range(2000, 2012))
        patterns = rng.standard_normal((4, len(years)))
        residuals = {f"c{i:03d}": vec(f"c{i:03d}", years,
                                      patterns[i % 4] + 0.5 * rng.standard_normal(len(years)))
                     for i in range(200)}
        train = toy_dataset(sorted(residuals), years, T=1, d=1)
        cosine_calls, builds = [], []
        original_cosine, original_build = rt.centered_cosine, rt.ResidualPanel._build_tables

        def counting_cosine(a, b):
            cosine_calls.append((a.county, b.county))
            return original_cosine(a, b)

        def counting_build(self):
            builds.append(len(self))
            return original_build(self)

        monkeypatch.setattr(rt, "centered_cosine", counting_cosine)
        monkeypatch.setattr(rt.ResidualPanel, "_build_tables", counting_build)
        panel = oracles.residual_panel(residuals)
        matched = 0
        for query in sorted(residuals):
            matched += len(rt.retrieve(query, panel, train, threshold=0.5, top_k=1).matched)
        assert builds == [200]
        assert matched > 100
        assert len(cosine_calls) <= 2 * 200


class TestFlagsCsv:
    def test_one_row_per_flag(self, tmp_path):
        years = list(range(2000, 2010))
        p = np.arange(10.0) % 4
        residuals = {"q": vec("q", years, p), "flat": vec("flat", years, np.ones(10)),
                     "new": vec("new", years[-2:], [1.0, 2.0]), "m": vec("m", years, p + 1)}
        train = toy_dataset(sorted(residuals), years)
        panel = oracles.residual_panel(residuals)
        results = [rt.retrieve(c, panel, train, threshold=0.5) for c in ("q", "flat")]
        path = tmp_path / "flags.csv"
        rt.save_flags_csv(results, str(path))
        assert path.read_text().splitlines() == [
            "query,flag,county",
            "q,zero_norm,flat",
            "q,insufficient_overlap,new",
            "flat,degenerate_query,flat",
        ]
