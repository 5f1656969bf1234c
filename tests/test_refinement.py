"""Refinement tests: per-year ridge maps, bias matrices, linear
extrapolation against an independent normal-equations oracle, and label
refinement determinism."""

import numpy as np
import pytest

from ratar import refinement as rf
from ratar.data import CountyYearRecord
from ratar.numcore import ContractError


def ols_oracle(xs, ys, target):
    """Normal-equations line fit, written independently of the library."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xbar, ybar = xs.mean(), ys.mean()
    denom = ((xs - xbar) ** 2).sum()
    slope = ((xs - xbar) * (ys - ybar)).sum() / denom
    return ybar + slope * (target - xbar)


class TestYearRegressor:
    def test_exact_linear_fit(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((30, 4))
        w = np.array([1.0, -2.0, 0.5, 3.0])
        y = Z @ w + 7.0
        g = rf.fit_year_regressor(2005, Z, y, *rf.embedding_moments(Z), lam=1e-8)
        np.testing.assert_allclose(g.predict(Z), y, atol=1e-6)

    def test_constant_labels_intercept_only(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((12, 3))
        y = np.full(12, 4.2)
        g = rf.fit_year_regressor(2005, Z, y, *rf.embedding_moments(Z))
        np.testing.assert_allclose(g.predict(rng.standard_normal((5, 3))), 4.2, atol=1e-9)

    def test_in_year_mean_bias_is_zero(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((25, 6))
        y = rng.standard_normal(25) * 3.0 + 10.0
        g = rf.fit_year_regressor(2001, Z, y, *rf.embedding_moments(Z))
        residuals = y - g.predict(Z)
        np.testing.assert_allclose(residuals.mean(), 0.0, atol=1e-10)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ContractError):
            rf.fit_year_regressor(2001, np.zeros((1, 3)), np.zeros(1),
                                  np.zeros(3), np.ones(3))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        a = rf.fit_year_regressor(2000, Z, y, *rf.embedding_moments(Z))
        b = rf.fit_year_regressor(2000, Z, y, *rf.embedding_moments(Z))
        assert np.array_equal(a.coef, b.coef) and a.intercept == b.intercept


def toy_regressors(years, coef, intercepts):
    out = {}
    for i, s in enumerate(years):
        out[s] = rf.YearRegressor(
            year=s,
            coef=np.asarray(coef, dtype=float),
            intercept=float(intercepts[i]),
            z_mean=np.zeros(len(coef)),
            z_scale=np.ones(len(coef)),
        )
    return out


class TestBiasMatrix:
    def test_perfect_regressors_zero_matrix(self):
        years = [2000, 2001, 2002]
        w = np.array([2.0, -1.0])
        embeddings = {y: np.array([0.1 * y % 3.0, 0.5]) for y in years}
        labels = {y: float(embeddings[y] @ w) for y in years}
        regs = toy_regressors(years, w, [0.0, 0.0, 0.0])
        bm = rf.build_bias_matrix("c0", regs, embeddings, labels)
        assert bm.valid.all()
        np.testing.assert_allclose(bm.B, 0.0, atol=1e-12)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(5)
        years = [2000, 2001, 2002, 2003]
        embeddings = {y: rng.standard_normal(3) for y in years}
        labels = {y: float(rng.standard_normal()) for y in years}
        regs = {}
        for s in years:
            Z = rng.standard_normal((8, 3))
            yv = rng.standard_normal(8)
            regs[s] = rf.fit_year_regressor(s, Z, yv, *rf.embedding_moments(Z))
        bm = rf.build_bias_matrix("c0", regs, embeddings, labels)
        for si, s in enumerate(years):
            for ki, k in enumerate(years):
                lhs = bm.B[si, ki] + float(regs[s].predict(embeddings[k][None, :])[0])
                np.testing.assert_allclose(lhs, labels[k], atol=1e-10)

    def test_label_shift_moves_column(self):
        years = [2000, 2001]
        w = np.array([1.0])
        embeddings = {y: np.array([float(y - 2000)]) for y in years}
        labels = {2000: 3.0, 2001: 4.0}
        regs = toy_regressors(years, w, [0.0, 0.0])
        base = rf.build_bias_matrix("c0", regs, embeddings, labels)
        shifted = rf.build_bias_matrix(
            "c0", regs, embeddings, {2000: 3.0, 2001: 4.0 + 0.7}
        )
        np.testing.assert_allclose(shifted.B[:, 1] - base.B[:, 1], 0.7, atol=1e-12)
        np.testing.assert_allclose(shifted.B[:, 0], base.B[:, 0], atol=1e-12)

    def test_missing_years_masked(self):
        years = [2000, 2001, 2002]
        w = np.array([1.0])
        embeddings = {2000: np.array([0.5]), 2002: np.array([1.5])}
        labels = {2000: 1.0, 2002: 2.0}
        regs = toy_regressors(years, w, [0.0, 0.0, 0.0])
        bm = rf.build_bias_matrix("c0", regs, embeddings, labels)
        assert bm.years == [2000, 2002]
        assert bm.valid.all()

    def test_empty_embeddings_rejected(self):
        with pytest.raises(ContractError):
            rf.build_bias_matrix("c0", {}, {}, {})


class TestExtrapolateBias:
    @staticmethod
    def matrix_with_row(years, row_values, valid_row=None):
        K = len(years)
        B = np.zeros((K, K))
        B[0, :] = row_values
        valid = np.ones((K, K), dtype=bool)
        if valid_row is not None:
            valid[0, :] = valid_row
        return rf.BiasMatrix(county="c0", years=list(years), B=B, valid=valid)

    def test_exact_line(self):
        bm = self.matrix_with_row([2001, 2002, 2003], [1.0, 2.0, 3.0])
        est = rf.extrapolate_bias(bm, 2001, 2004)
        assert est.method == "ols"
        np.testing.assert_allclose(est.value, 4.0, atol=1e-10)

    def test_constant_row(self):
        bm = self.matrix_with_row([2001, 2002, 2003], [0.7, 0.7, 0.7])
        est = rf.extrapolate_bias(bm, 2001, 2010)
        np.testing.assert_allclose(est.value, 0.7, atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(6)
        years = list(range(2000, 2010))
        for _ in range(200):
            row = rng.standard_normal(10) * 2.0 + rng.standard_normal() * np.arange(10)
            bm = self.matrix_with_row(years, row)
            est = rf.extrapolate_bias(bm, 2000, 2011)
            np.testing.assert_allclose(est.value, ols_oracle(years, row, 2011), atol=1e-8)

    def test_single_valid_cell_falls_back_to_mean(self):
        bm = self.matrix_with_row(
            [2001, 2002, 2003], [5.0, 99.0, 98.0], valid_row=[True, False, False]
        )
        est = rf.extrapolate_bias(bm, 2001, 2004)
        assert est.method == "row_mean"
        np.testing.assert_allclose(est.value, 5.0)

    def test_no_valid_cells_gives_zero(self):
        bm = self.matrix_with_row(
            [2001, 2002, 2003], [5.0, 6.0, 7.0], valid_row=[False, False, False]
        )
        est = rf.extrapolate_bias(bm, 2001, 2004)
        assert est.method == "zero"
        assert est.value == 0.0

    def test_unknown_source_year_rejected(self):
        bm = self.matrix_with_row([2001, 2002, 2003], [1.0, 2.0, 3.0])
        with pytest.raises(ContractError):
            rf.extrapolate_bias(bm, 1990, 2004)


def tiny_retrieval(records):
    # minimal stand-in for a retrieval result: only .query and .samples used
    class R:
        query = "q"
        samples = records
        matched = [(r.county, 1.0) for r in records]

    return R()


def make_records(labels):
    out = []
    for i, (county, year, label) in enumerate(labels):
        out.append(CountyYearRecord(county, year, np.zeros((3, 2)), label))
    return out


class TestRefineLabels:
    def linear_biases(self, county, years, slope):
        K = len(years)
        B = np.zeros((K, K))
        for si in range(K):
            for ki in range(K):
                B[si, ki] = slope * (years[ki] - years[si])
        return rf.BiasMatrix(county=county, years=list(years), B=B, valid=np.ones((K, K), bool))

    def test_sigma_zero_is_affine(self):
        years = [2000, 2001, 2002]
        recs = make_records([("a", 2001, 5.0), ("b", 2002, 6.0)])
        biases = {c: self.linear_biases(c, years, 0.5) for c in ("a", "b")}
        out = rf.refine_labels(tiny_retrieval(recs), biases, sigma=0.0, seed=0, target_year=2003)
        by_key = {(e.record.county, e.record.year): e for e in out.entries}
        np.testing.assert_allclose(by_key[("a", 2001)].label_refined, 5.0 + 0.5 * 2, atol=1e-9)
        np.testing.assert_allclose(by_key[("b", 2002)].label_refined, 6.0 + 0.5 * 1, atol=1e-9)

    def test_same_seed_same_output(self):
        years = [2000, 2001, 2002]
        recs = make_records([("a", 2001, 5.0), ("b", 2002, 6.0)])
        biases = {c: self.linear_biases(c, years, 0.5) for c in ("a", "b")}
        one = rf.refine_labels(tiny_retrieval(recs), biases, sigma=0.3, seed=7, target_year=2003)
        two = rf.refine_labels(tiny_retrieval(recs), biases, sigma=0.3, seed=7, target_year=2003)
        for e1, e2 in zip(one.entries, two.entries):
            assert e1.label_refined == e2.label_refined

    def test_order_invariant(self):
        years = [2000, 2001, 2002]
        recs = make_records([("a", 2001, 5.0), ("b", 2002, 6.0), ("c", 2000, 4.0)])
        biases = {c: self.linear_biases(c, years, 0.5) for c in ("a", "b", "c")}
        fwd = rf.refine_labels(tiny_retrieval(recs), biases, sigma=0.2, seed=3, target_year=2003)
        rev = rf.refine_labels(tiny_retrieval(recs[::-1]), biases, sigma=0.2, seed=3, target_year=2003)
        fwd_map = {(e.record.county, e.record.year): e.label_refined for e in fwd.entries}
        rev_map = {(e.record.county, e.record.year): e.label_refined for e in rev.entries}
        assert fwd_map == rev_map

    def test_missing_bias_matrix_passes_through(self):
        recs = make_records([("a", 2001, 5.0)])
        out = rf.refine_labels(tiny_retrieval(recs), {}, sigma=0.0, seed=0, target_year=2003)
        entry = out.entries[0]
        assert entry.label_refined == 5.0 and not entry.refined

    def test_negative_sigma_rejected(self):
        recs = make_records([("a", 2001, 5.0)])
        with pytest.raises(ContractError):
            rf.refine_labels(tiny_retrieval(recs), {}, sigma=-0.1, seed=0, target_year=2002)

    def test_copies_knob(self):
        years = [2000, 2001]
        recs = make_records([("a", 2001, 5.0)])
        biases = {"a": self.linear_biases("a", years, 0.5)}
        out = rf.refine_labels(
            tiny_retrieval(recs), biases, sigma=0.1, seed=1, target_year=2002, copies=3
        )
        assert len(out.entries) == 3
        assert len({e.label_refined for e in out.entries}) == 3

    def test_features_never_altered(self):
        recs = make_records([("a", 2001, 5.0)])
        before = recs[0].features.copy()
        years = [2000, 2001]
        biases = {"a": self.linear_biases("a", years, 0.5)}
        out = rf.refine_labels(tiny_retrieval(recs), biases, sigma=0.5, seed=2, target_year=2002)
        assert np.array_equal(out.entries[0].record.features, before)


class TestCsvExports:
    def test_bias_csv(self, tmp_path):
        years = [2000, 2001]
        B = np.array([[0.0, 0.5], [-0.5, 0.0]])
        bm = rf.BiasMatrix("c0", years, B, np.ones((2, 2), bool))
        path = tmp_path / "bias.csv"
        rf.save_bias_csv({"c0": bm}, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "county,source_year,target_year,bias,valid"
        assert len(lines) == 5

    def test_refined_csv(self, tmp_path):
        recs = make_records([("a", 2001, 5.0)])
        years = [2000, 2001]
        bm = rf.BiasMatrix("a", years, np.zeros((2, 2)), np.ones((2, 2), bool))
        out = rf.refine_labels(tiny_retrieval(recs), {"a": bm}, sigma=0.0, seed=0, target_year=2002)
        path = tmp_path / "refined.csv"
        rf.save_refined_csv([out], str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "query,source_county,source_year,label,bias_hat,label_refined,method"
        assert len(lines) == 2
        assert lines[1].split(",")[-1] == "ols"
