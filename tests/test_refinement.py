"""Refinement tests: per-year ridge maps, bias matrices, linear
extrapolation against an independent normal-equations oracle, and label
refinement determinism."""

import numpy as np
import pytest

import oracles
from ratar import refinement as rf
from ratar.data import Dataset, NormStats
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


class TestPredictShapes:
    @staticmethod
    def regressor(E, seed):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((3 * E + 4, E)) * rng.uniform(0.1, 10.0, E)
        y = rng.standard_normal(3 * E + 4) * 4.0 + 50.0
        return rf.fit_year_regressor(2001, Z, y, *rf.embedding_moments(Z)), rng

    @pytest.mark.parametrize("E", [1, 2, 5, 8, 16])
    def test_rows_independent_of_batch_size(self, E):
        g, rng = self.regressor(E, E)
        for n in range(1, 65):
            Z = rng.standard_normal((n, E)) * 3.0
            batch = g.predict(Z)
            assert batch.shape == (n,)
            for i in range(n):
                assert batch[i].tobytes() == g.predict(Z[i])[0].tobytes()
                # the one-row form every cell used before rows were batched
                one_row = (Z[i:i + 1] - g.z_mean) / g.z_scale @ g.coef + g.intercept
                assert batch[i].tobytes() == one_row[0].tobytes()

    @pytest.mark.parametrize("shape", [(), (2, 4, 4), (1, 1, 4), (2, 3, 4, 4)])
    def test_rejects_other_ranks(self, shape):
        g, _ = self.regressor(4, 0)
        with pytest.raises(ContractError, match=r"got shape \(" + ", ".join(map(str, shape))):
            g.predict(np.zeros(shape))

    def test_rejects_width_mismatch(self):
        g, _ = self.regressor(4, 0)
        with pytest.raises(ContractError, match="width 3"):
            g.predict(np.zeros((2, 3)))


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


def keyed(county, by_year):
    return {(county, year): value for year, value in by_year.items()}


def one_county(county, regressors, embeddings, labels):
    """build_bias_matrix on one county's year-keyed embeddings and labels."""
    inputs = oracles.bias_inputs(keyed(county, embeddings), keyed(county, labels))
    out = rf.build_bias_matrix(regressors, *inputs)
    assert list(out) == [county]
    return out[county]


class TestBiasMatrix:
    def test_perfect_regressors_zero_matrix(self):
        years = [2000, 2001, 2002]
        w = np.array([2.0, -1.0])
        embeddings = {y: np.array([0.1 * y % 3.0, 0.5]) for y in years}
        labels = {y: float(embeddings[y] @ w) for y in years}
        regs = toy_regressors(years, w, [0.0, 0.0, 0.0])
        bm = one_county("c0", regs, embeddings, labels)
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
        bm = one_county("c0", regs, embeddings, labels)
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
        base = one_county("c0", regs, embeddings, labels)
        shifted = one_county("c0", regs, embeddings, {2000: 3.0, 2001: 4.0 + 0.7})
        np.testing.assert_allclose(shifted.B[:, 1] - base.B[:, 1], 0.7, atol=1e-12)
        np.testing.assert_allclose(shifted.B[:, 0], base.B[:, 0], atol=1e-12)

    def test_missing_years_masked(self):
        years = [2000, 2001, 2002]
        w = np.array([1.0])
        embeddings = {2000: np.array([0.5]), 2002: np.array([1.5])}
        labels = {2000: 1.0, 2002: 2.0}
        regs = toy_regressors(years, w, [0.0, 0.0, 0.0])
        bm = one_county("c0", regs, embeddings, labels)
        assert bm.years == [2000, 2002]
        assert bm.valid.all()


def reference_bias_matrix(county, regressors, embeddings, labels):
    """One `predict` call per cell: the bias matrix before rows were batched."""
    years = sorted(set(embeddings) & set(labels))
    if not years:
        raise ContractError(f"county {county}: no years with both embedding and label")
    K = len(years)
    B = np.zeros((K, K))
    fitted = np.zeros(K, dtype=bool)
    for si, s in enumerate(years):
        g = regressors.get(s)
        if g is None:
            continue
        for ki, k in enumerate(years):
            pred = float(g.predict(embeddings[k][None, :])[0])
            B[si, ki] = labels[k] - pred
        fitted[si] = True
    return rf.BiasMatrix(county=county, years=years, B=B, fitted=fitted)


class TestBiasMatrixOracle:
    """Row-wise bias matrices carry the bits of the per-cell reference."""

    @staticmethod
    def random_county(rng, E, n_years):
        pool = np.arange(1980, 2030)
        years = sorted(int(y) for y in rng.choice(pool, size=n_years, replace=False))
        shift = rng.standard_normal(E) * 5.0
        spread = rng.uniform(0.05, 20.0, E)
        Z_all = shift + spread * rng.standard_normal((len(years) * 6, E))
        z_mean, z_scale = rf.embedding_moments(Z_all)
        regs = {}
        for s in years:
            if rng.random() < 0.25:
                continue  # a year without a regressor
            Z = shift + spread * rng.standard_normal((int(rng.integers(2, 12)), E))
            yv = rng.standard_normal(len(Z)) * 30.0 + 150.0
            regs[s] = rf.fit_year_regressor(s, Z, yv, z_mean, z_scale)
        embeddings = {y: shift + spread * rng.standard_normal(E) for y in years}
        labels = {y: float(rng.standard_normal() * 30.0 + 150.0) for y in years}
        return regs, embeddings, labels

    @staticmethod
    def assert_bit_equal(got, want):
        assert got.county == want.county and got.years == want.years
        assert got.B.dtype == want.B.dtype and got.B.tobytes() == want.B.tobytes()
        assert np.array_equal(got.fitted, want.fitted)
        assert np.array_equal(got.valid, want.valid)

    @pytest.mark.parametrize("E", [1, 2, 5, 8, 16])
    def test_random_counties(self, E):
        rng = np.random.default_rng(100 + E)
        for n_years in range(1, 26):
            regs, embeddings, labels = self.random_county(rng, E, n_years)
            got = one_county("c0", regs, embeddings, labels)
            self.assert_bit_equal(got, reference_bias_matrix("c0", regs, embeddings, labels))
            for si, s in enumerate(got.years):
                if s not in regs:
                    assert not got.valid[si].any() and not got.B[si].any()

    def test_one_year_county(self):
        rng = np.random.default_rng(7)
        regs, embeddings, labels = self.random_county(rng, 5, 3)
        year = sorted(regs)[0]
        one = ({year: embeddings[year]}, {year: labels[year]})
        got = one_county("c0", regs, *one)
        assert got.years == [year] and got.valid.all()
        self.assert_bit_equal(got, reference_bias_matrix("c0", regs, *one))


class TestExtrapolateBias:
    @staticmethod
    def matrix_with_row(years, row_values, fitted=True):
        K = len(years)
        B = np.zeros((K, K))
        B[0, :] = row_values
        rows = np.ones(K, dtype=bool)
        rows[0] = fitted
        return rf.BiasMatrix(county="c0", years=list(years), B=B, fitted=rows)

    def first_row(self, bm, target):
        values, methods = rf.extend_rows(bm.years, bm.B, bm.fitted, target)
        return values[0], methods[0]

    def test_exact_line(self):
        bm = self.matrix_with_row([2001, 2002, 2003], [1.0, 2.0, 3.0])
        value, method = self.first_row(bm, 2004)
        assert method == "ols"
        np.testing.assert_allclose(value, 4.0, atol=1e-10)

    def test_constant_row(self):
        bm = self.matrix_with_row([2001, 2002, 2003], [0.7, 0.7, 0.7])
        np.testing.assert_allclose(self.first_row(bm, 2010)[0], 0.7, atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(6)
        years = list(range(2000, 2010))
        for _ in range(200):
            row = rng.standard_normal(10) * 2.0 + rng.standard_normal() * np.arange(10)
            bm = self.matrix_with_row(years, row)
            np.testing.assert_allclose(self.first_row(bm, 2011)[0],
                                       ols_oracle(years, row, 2011), atol=1e-8)

    def test_single_valid_cell_falls_back_to_mean(self):
        """A one-year county's row has one valid cell: the row's value."""
        bm = rf.BiasMatrix("c0", [2001], np.array([[5.0]]), np.ones(1, dtype=bool))
        assert self.first_row(bm, 2004) == (5.0, "row_mean")

    def test_no_valid_cells_gives_zero(self):
        """A row without a regressor is all invalid: b_hat 0."""
        bm = self.matrix_with_row([2001, 2002, 2003], [5.0, 6.0, 7.0], fitted=False)
        assert self.first_row(bm, 2004) == (0.0, "zero")

    def test_valid_is_the_fitted_rows(self):
        bm = self.matrix_with_row([2001, 2002, 2003], [5.0, 6.0, 7.0], fitted=False)
        assert bm.valid.tolist() == [[False] * 3, [True] * 3, [True] * 3]


def polyfit_value(years, row, target):
    """A row's degree-1 `np.polyfit` line over its years, at the target year."""
    xs = np.asarray(years, dtype=np.float64)
    x0 = xs.mean()
    slope, intercept = np.polyfit(xs - x0, row, 1)
    return intercept + slope * (target - x0)


def relative_error(got, want, row):
    """|got - want| relative to the larger of |want| and the row's largest cell."""
    return abs(got - want) / max(abs(want), np.abs(row).max())


class TestClosedFormLines:
    """The closed form b_hat = B[s] . c agrees with `np.polyfit`'s lines."""

    @staticmethod
    def gapped_years(rng, n):
        return sorted(rng.choice(np.arange(1985, 2020), size=n, replace=False).tolist())

    def test_random_rows_match_polyfit(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for n in range(2, 15):
            for _ in range(20):
                years = self.gapped_years(rng, n)
                B = rng.standard_normal((n, n)) * rng.uniform(0.01, 100.0, (n, 1))
                B += rng.standard_normal((n, 1)) * (np.asarray(years) - years[0])
                bm = rf.BiasMatrix("c", years, B, np.ones(n, dtype=bool))
                for target in (years[-1] + 1, years[-1] + 7, years[n // 2]):
                    values, methods = rf.extend_rows(bm.years, bm.B, bm.fitted, target)
                    assert set(methods.tolist()) == {"ols"}
                    for si in range(n):
                        want = polyfit_value(years, B[si], target)
                        worst = max(worst, relative_error(values[si], want, B[si]))
        print(f"closed form vs np.polyfit: worst relative error {worst:.1e}")
        assert worst < 1e-12

    def test_matches_per_call_reference(self):
        """Values and methods of the polyfit-per-call reference, rows with and
        without a regressor, one-year counties included."""
        rng = np.random.default_rng(21)
        methods = set()
        for _ in range(60):
            n = int(rng.integers(1, 15))
            years = self.gapped_years(rng, n)
            bm = rf.BiasMatrix("c", years, rng.standard_normal((n, n)) * 4.0,
                               rng.random(n) < 0.8)
            bm.B[~bm.fitted] = 0.0
            for target in (2020, 2026):
                values, got = rf.extend_rows(bm.years, bm.B, bm.fitted, target)
                for si, s in enumerate(years):
                    want = oracles.reference_extrapolate_bias(bm, s, target)
                    assert got[si] == want.method
                    assert relative_error(values[si], want.value, bm.B[si] + 1.0) < 1e-12
                    methods.add(want.method)
        assert methods == {"ols", "row_mean", "zero"}

    @pytest.mark.parametrize("E", [1, 3])
    def test_stacked_counties_match_one_by_one(self, E):
        """A table over counties of mixed years reads, for every season, the
        bits of extending its county's matrix alone."""
        rng = np.random.default_rng(330 + E)
        regs, embeddings, labels = TestBatchedBiasMatrices.panel(rng, E, n_counties=30)
        for county in ("x0", "x1"):  # two more counties over c04's years
            for (c, y) in [key for key in embeddings if key[0] == "c04"]:
                embeddings[county, y] = embeddings[c, y] + 1.0
                labels[county, y] = labels[c, y] - 2.0
        inputs = oracles.bias_inputs(embeddings, labels)
        biases = rf.build_bias_matrix(regs, *inputs)
        train = inputs[0]
        assert len({tuple(bm.years) for bm in biases.values()}) < len(biases)
        table = rf.extrapolate_biases(biases, train, 2013)
        for county, bm in biases.items():
            values, methods = rf.extend_rows(bm.years, bm.B, bm.fitted, 2013)
            rows = train.county_rows(county)
            assert table.b_hat[rows].tobytes() == values.tobytes()
            assert table.method[rows].tolist() == methods.tolist()

    def test_table_is_indexed_by_block_row(self):
        """Every season of a county with a matrix reads its row's value;
        seasons of other counties, or of years not in the matrix, are missing."""
        ds, rows = make_samples([("a", 2000, 1.0), ("a", 2001, 2.0), ("a", 2003, 2.5),
                                 ("b", 2001, 3.0), ("c", 2002, 4.0)])
        bm = rf.BiasMatrix("a", [2000, 2001, 2002], np.arange(9.0).reshape(3, 3),
                           np.array([True, False, True]))
        table = rf.extrapolate_biases({"a": bm}, ds, 2005)
        values, methods = rf.extend_rows(bm.years, bm.B, bm.fitted, 2005)
        assert table.target_year == 2005
        assert table.method[rows].tolist() == ["ols", "zero", "missing", "missing", "missing"]
        assert table.b_hat[rows].tolist() == [values[0], 0.0, 0.0, 0.0, 0.0]


class TestBatchedBiasMatrices:
    """One call builds every county's matrix with the per-county bits."""

    @staticmethod
    def panel(rng, E, n_counties=12):
        """Shared regressors (some years without one) and counties of 1 to 14 years."""
        pool = list(range(1995, 2012))
        shift = rng.standard_normal(E) * 5.0
        spread = rng.uniform(0.05, 20.0, E)
        z_mean, z_scale = rf.embedding_moments(shift + spread * rng.standard_normal((50, E)))
        regs = {}
        for s in pool:
            if s % 4 == 1:
                continue  # a year without a regressor
            Z = shift + spread * rng.standard_normal((int(rng.integers(2, 12)), E))
            regs[s] = rf.fit_year_regressor(s, Z, rng.standard_normal(len(Z)) * 30.0 + 150.0,
                                            z_mean, z_scale)
        embeddings, labels = {}, {}
        for i in range(n_counties):
            n_years = 1 if i == 3 else int(rng.integers(1, 15))
            for year in rng.choice(pool, size=n_years, replace=False).tolist():
                embeddings[f"c{i:02d}", year] = shift + spread * rng.standard_normal(E)
                labels[f"c{i:02d}", year] = float(rng.standard_normal() * 30.0 + 150.0)
        return regs, embeddings, labels

    @pytest.mark.parametrize("E", [1, 3, 8])
    def test_matches_per_county_matrices(self, E):
        rng = np.random.default_rng(300 + E)
        regs, embeddings, labels = self.panel(rng, E)
        got = rf.build_bias_matrix(regs, *oracles.bias_inputs(embeddings, labels))
        counties = sorted({county for county, _ in embeddings})
        assert list(got) == counties
        for county in counties:
            by_year = ({y: z for (c, y), z in embeddings.items() if c == county},
                       {y: v for (c, y), v in labels.items() if c == county})
            want = oracles.county_bias_matrix(county, regs, *by_year)
            TestBiasMatrixOracle.assert_bit_equal(got[county], want)
            TestBiasMatrixOracle.assert_bit_equal(
                got[county], reference_bias_matrix(county, regs, *by_year))
        assert len(got["c03"].years) == 1
        unfitted = [(c, si) for c, bm in got.items() for si, s in enumerate(bm.years)
                    if s not in regs]
        assert unfitted and all(not got[c].valid[si].any() and not got[c].B[si].any()
                                for c, si in unfitted)

    @pytest.mark.parametrize("E", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_keyed_oracle(self, E, seed):
        """The Dataset-run form has the bits of the (county, year)-keyed one."""
        rng = np.random.default_rng([320 + E, seed])
        regs, embeddings, labels = self.panel(rng, E, n_counties=20)
        got = rf.build_bias_matrix(regs, *oracles.bias_inputs(embeddings, labels))
        want = oracles.build_bias_matrix(regs, embeddings, labels)
        assert list(got) == list(want)
        sizes = {len(bm.years) for bm in got.values()}
        assert 1 in sizes and max(sizes) > 10
        assert any(bm.years != list(range(bm.years[0], bm.years[-1] + 1))
                   for bm in got.values()), "some county has a gap in its years"
        assert any(s not in regs for bm in got.values() for s in bm.years)
        for county in want:
            TestBiasMatrixOracle.assert_bit_equal(got[county], want[county])

    def test_one_predict_per_regressor_year(self, monkeypatch):
        rng = np.random.default_rng(310)
        regs, embeddings, labels = self.panel(rng, 4)
        calls = []
        original = rf.YearRegressor.predict

        def counting(self, Z):
            calls.append((self.year, len(Z)))
            return original(self, Z)

        monkeypatch.setattr(rf.YearRegressor, "predict", counting)
        rf.build_bias_matrix(regs, *oracles.bias_inputs(embeddings, labels))
        years = {year for _, year in embeddings}
        assert sorted(calls) == [(s, len(embeddings)) for s in sorted(regs) if s in years]


def tiny_retrieval(rows, query="q"):
    # minimal stand-in for a retrieval result: only .query and .samples used
    class R:
        pass

    result = R()
    result.query, result.samples = query, np.asarray(rows, dtype=np.int64)
    return result


def make_samples(labels):
    """A Dataset of (county, year, label) seasons, and their block rows in the given order."""
    ds = Dataset([(county, year) for county, year, _ in labels], np.zeros((len(labels), 3, 2)),
                 [label for *_, label in labels])
    return ds, np.array([ds.row(county, year) for county, year, _ in labels], dtype=np.int64)


def unit_stats(ds):
    return NormStats(np.zeros(ds.d), np.ones(ds.d), 0.0, 1.0)


def refine(ds, rows, biases, seed, **kwargs):
    """refine_labels of one query retrieving rows of ds, whose labels are in
    physical units, with `biases` {county: BiasMatrix} extended to the
    target year; its entries, as `oracles.Entry`s."""
    table = rf.extrapolate_biases(biases, ds, kwargs["target_year"])
    return oracles.entries(rf.refine_labels([tiny_retrieval(rows)], ds, table, seeds=[seed],
                                            stats=unit_stats(ds), **kwargs))


class TestRefineLabels:
    def linear_biases(self, county, years, slope):
        K = len(years)
        B = np.zeros((K, K))
        for si in range(K):
            for ki in range(K):
                B[si, ki] = slope * (years[ki] - years[si])
        return rf.BiasMatrix(county=county, years=list(years), B=B, fitted=np.ones(K, bool))

    def test_sigma_zero_is_affine(self):
        years = [2000, 2001, 2002]
        ds, rows = make_samples([("a", 2001, 5.0), ("b", 2002, 6.0)])
        biases = {c: self.linear_biases(c, years, 0.5) for c in ("a", "b")}
        out = refine(ds, rows, biases, sigma=0.0, seed=0, target_year=2003)
        by_key = {ds.key(e.record): e for e in out}
        np.testing.assert_allclose(by_key[("a", 2001)].label_refined, 5.0 + 0.5 * 2, atol=1e-9)
        np.testing.assert_allclose(by_key[("b", 2002)].label_refined, 6.0 + 0.5 * 1, atol=1e-9)

    def test_same_seed_same_output(self):
        years = [2000, 2001, 2002]
        ds, rows = make_samples([("a", 2001, 5.0), ("b", 2002, 6.0)])
        biases = {c: self.linear_biases(c, years, 0.5) for c in ("a", "b")}
        one = refine(ds, rows, biases, sigma=0.3, seed=7, target_year=2003)
        two = refine(ds, rows, biases, sigma=0.3, seed=7, target_year=2003)
        for e1, e2 in zip(one, two):
            assert e1.label_refined == e2.label_refined

    def test_order_invariant(self):
        years = [2000, 2001, 2002]
        ds, rows = make_samples([("a", 2001, 5.0), ("b", 2002, 6.0), ("c", 2000, 4.0)])
        biases = {c: self.linear_biases(c, years, 0.5) for c in ("a", "b", "c")}
        fwd = refine(ds, rows, biases, sigma=0.2, seed=3, target_year=2003)
        rev = refine(ds, rows[::-1], biases, sigma=0.2, seed=3, target_year=2003)
        fwd_map = {ds.key(e.record): e.label_refined for e in fwd}
        rev_map = {ds.key(e.record): e.label_refined for e in rev}
        assert fwd_map == rev_map

    def test_missing_bias_matrix_passes_through(self):
        ds, rows = make_samples([("a", 2001, 5.0)])
        out = refine(ds, rows, {}, sigma=0.0, seed=0, target_year=2003)
        entry = out[0]
        assert entry.label_refined == 5.0 and not entry.refined

    def test_negative_sigma_rejected(self):
        ds, rows = make_samples([("a", 2001, 5.0)])
        with pytest.raises(ContractError):
            refine(ds, rows, {}, sigma=-0.1, seed=0, target_year=2002)

    def test_copies_knob(self):
        years = [2000, 2001]
        ds, rows = make_samples([("a", 2001, 5.0)])
        biases = {"a": self.linear_biases("a", years, 0.5)}
        out = refine(ds, rows, biases, sigma=0.1, seed=1, target_year=2002, copies=3)
        assert len(out) == 3
        assert len({e.label_refined for e in out}) == 3

    def test_no_generator_without_noise(self, monkeypatch):
        years = [2000, 2001, 2002]
        ds, rows = make_samples([("a", 2001, 5.0), ("b", 2002, 6.0)])
        biases = {c: self.linear_biases(c, years, 0.5) for c in ("a", "b")}
        want = refine(ds, rows, biases, sigma=0.0, seed=0, target_year=2003)

        def refuse(seed):
            raise AssertionError("a generator was created for sigma 0")

        monkeypatch.setattr(rf.np.random, "default_rng", refuse)
        got = refine(ds, rows, biases, sigma=0.0, seed=0, target_year=2003,
                               copies=2)
        assert [e.label_refined for e in got] == [e.label_refined for e in want for _ in range(2)]
        with pytest.raises(AssertionError, match="sigma 0"):
            refine(ds, rows, biases, sigma=0.1, seed=0, target_year=2003)

    def test_target_year_must_be_the_tables(self):
        ds, rows = make_samples([("a", 2001, 5.0)])
        table = rf.extrapolate_biases({"a": self.linear_biases("a", [2000, 2001], 0.5)}, ds,
                                      2003)
        unit = unit_stats(ds)
        with pytest.raises(ContractError, match="2003.*2004"):
            rf.refine_labels([tiny_retrieval(rows)], ds, table, sigma=0.0, seeds=[0],
                             target_year=2004, stats=unit)
        out = rf.refine_labels([tiny_retrieval(rows)], ds, None, sigma=0.0, seeds=[0],
                               target_year=2004, stats=unit)
        assert [(e.label_refined, e.method) for e in oracles.entries(out)] == [(5.0, "missing")]

    @pytest.mark.parametrize("n, copies", [(1, 1), (3, 1), (4, 3)])
    def test_noise_is_scalar_draws_in_entry_order(self, n, copies):
        """One (n, copies) draw holds the bits of n * copies scalar draws,
        row-major, missing samples included."""
        years = [2000, 2001, 2002]
        ds, rows = make_samples([(c, 2001, float(i)) for i, c in enumerate("abcdef"[:n])])
        biases = {c: self.linear_biases(c, years, 0.5) for c in "abcdef"[:n:2]}
        out = refine(ds, rows, biases, sigma=0.3, seed=11, target_year=2003, copies=copies)
        draws = np.random.default_rng(11)
        assert len(out) == n * copies
        for e in out:
            eps = float(draws.standard_normal())
            want = e.label + e.bias_hat + 0.3 * eps if e.refined else e.label
            assert float(e.label_refined).hex() == float(want).hex()
        assert any(not e.refined for e in out) == (n > 1)

    def test_features_never_altered(self):
        ds, rows = make_samples([("a", 2001, 5.0)])
        before = ds.features.copy()
        years = [2000, 2001]
        biases = {"a": self.linear_biases("a", years, 0.5)}
        out = refine(ds, rows, biases, sigma=0.5, seed=2, target_year=2002)
        assert out[0].refined and np.array_equal(ds.features, before)

    def many(self):
        """Three queries over one panel, the second retrieving nothing, and
        each query's part refined alone (copies 2, noise on)."""
        ds, rows = make_samples([(c, y, float(i) + 0.25 * (y - 2000))
                                 for i, c in enumerate("abcd") for y in (2000, 2001, 2002)])
        biases = {c: self.linear_biases(c, [2000, 2001, 2002], 0.5) for c in "abc"}
        table = rf.extrapolate_biases(biases, ds, 2003)
        results = [tiny_retrieval(rows[[8, 1, 9, 0]], "q0"), tiny_retrieval([], "q1"),
                   tiny_retrieval(rows[[11, 5]], "q2")]
        args = dict(sigma=0.3, target_year=2003, stats=unit_stats(ds), copies=2)
        alone = [rf.refine_labels([r], ds, table, seeds=[seed], **args)
                 for r, seed in zip(results, (5, 6, 7))]
        return rf.refine_labels(results, ds, table, seeds=[5, 6, 7], **args), alone

    def test_queries_refined_together_match_each_alone(self):
        """One call over many queries holds, query by query, the bits of
        refining each alone: its own generator's draws, cut by offsets."""
        together, alone = self.many()
        assert together.queries == ["q0", "q1", "q2"]
        assert together.offsets.tolist() == [0, 8, 8, 12]
        for q, one in enumerate(alone):
            got = oracles.entries(together, q)
            assert [e.record for e in got] == sorted(e.record for e in got)
            assert [tuple(map(repr, e)) for e in got] == \
                [tuple(map(repr, e)) for e in oracles.entries(one)]
        assert together.n_refined == sum(one.n_refined for one in alone) == 8

    def test_select_keeps_the_chosen_queries(self):
        together, alone = self.many()
        picked = together.select([True, False, True])
        assert picked.queries == ["q0", "q2"]
        assert picked.offsets.tolist() == [0, 8, 12]
        assert oracles.entries(picked) == oracles.entries(alone[0]) + oracles.entries(alone[2])
        assert oracles.entries(together.select([False, True, False])) == []


class TestCsvExports:
    def test_bias_csv(self, tmp_path):
        years = [2000, 2001]
        B = np.array([[0.0, 0.5], [-0.5, 0.0]])
        bm = rf.BiasMatrix("c0", years, B, np.array([True, False]))
        path = tmp_path / "bias.csv"
        rf.save_bias_csv({"c0": bm}, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "county,source_year,target_year,bias,valid"
        assert [line.split(",")[-1] for line in lines[1:]] == ["1", "1", "0", "0"]

    def test_refined_csv(self, tmp_path):
        ds, rows = make_samples([("a", 2001, 5.0)])
        years = [2000, 2001]
        bm = rf.BiasMatrix("a", years, np.zeros((2, 2)), np.ones(2, bool))
        table = rf.extrapolate_biases({"a": bm}, ds, 2002)
        out = rf.refine_labels([tiny_retrieval(rows)], ds, table, sigma=0.0, seeds=[0],
                               target_year=2002, stats=unit_stats(ds))
        path = tmp_path / "refined.csv"
        rf.save_refined_csv(out, ds, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "query,source_county,source_year,label,bias_hat,label_refined,method"
        assert len(lines) == 2
        assert lines[1].split(",")[-1] == "ols" and lines[1].startswith("q,a,2001,")
