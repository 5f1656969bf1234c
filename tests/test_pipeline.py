"""End-to-end pipeline tests: orchestration, evaluation math, context
integration, artifact export, determinism, and the ablation matrix."""

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import dataset_of, extras_of, reference_extrapolate_bias, window_batch, window_list
from ratar import backbone as bb
from ratar import pipeline as pl
from ratar import training as tr
from ratar.backbone import LyraDims, lookback_windows, lyra_predict, model_labels
from ratar.data import (
    CountyYearRecord,
    Dataset,
    NormStats,
    SyntheticConfig,
    generate_synthetic,
    split_by_test_year,
    zscore_apply,
    zscore_fit,
)
from ratar.numcore import ContractError
from ratar import refinement as rf


def tiny_dims():
    return LyraDims(d=4, H=5, Z=6, E=3, attn_hidden=0, mlp_hidden=0)


def synth_cfg(seed=0):
    return SyntheticConfig(n_counties=10, n_years=6, T=10, d=4, n_hidden_clusters=2,
                           year_bias_slope=0.15, year_shock_std=0.2,
                           obs_noise_std=0.1, seed=seed)


def base_config(tmp_path, **overrides):
    defaults = dict(
        synthetic=synth_cfg(),
        test_year=2005,
        w=3,
        retrieval_mode="residual",
        threshold=0.5,
        integration="finetune",
        refine=True,
        sigma=0.0,
        seeds=(0,),
        train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=15, seed=0,
                             fine_tune_lr=1e-3, fine_tune_epochs=5),
        dims=tiny_dims(),
        global_H=6,
        global_readout_hidden=0,
        out_dir=str(tmp_path / "run"),
    )
    defaults.update(overrides)
    return pl.ExperimentConfig(**defaults)


class TestEvaluate:
    def make_test_split(self):
        recs = [CountyYearRecord(c, 2005, np.zeros((3, 2)), y)
                for c, y in [("a", 10.0), ("b", 12.0), ("c", 8.0)]]
        return dataset_of(recs)

    def test_perfect_predictions(self):
        test = self.make_test_split()
        report = pl.evaluate({"a": 10.0, "b": 12.0, "c": 8.0}, test, seed=0)
        assert report.rmse_mean == 0.0

    def test_constant_offset(self):
        test = self.make_test_split()
        report = pl.evaluate({"a": 12.0, "b": 14.0, "c": 10.0}, test, seed=0)
        np.testing.assert_allclose(report.rmse_mean, 2.0, atol=1e-12)

    def test_hand_formula(self):
        test = self.make_test_split()
        report = pl.evaluate({"a": 11.0, "b": 10.0, "c": 8.5}, test, seed=0)
        want = np.sqrt((1.0 ** 2 + 2.0 ** 2 + 0.5 ** 2) / 3.0)
        np.testing.assert_allclose(report.rmse_mean, want, atol=1e-12)

    def test_missing_prediction_names_county(self):
        test = self.make_test_split()
        with pytest.raises(ContractError, match="b"):
            pl.evaluate({"a": 10.0, "c": 8.0}, test, seed=0)

    def test_unlabeled_records_skipped(self):
        recs = [CountyYearRecord("a", 2005, np.zeros((3, 2)), 10.0),
                CountyYearRecord("b", 2005, np.zeros((3, 2)), None)]
        report = pl.evaluate({"a": 10.0}, dataset_of(recs), seed=0)
        assert report.rmse_mean == 0.0
        assert len(report.seed_results[0].rows) == 1


class TestIntegrateContext:
    def setup_method(self):
        ds, _ = generate_synthetic(synth_cfg())
        train, _test = split_by_test_year(ds, 2005)
        self.stats = zscore_fit(train)
        self.train, self.test = split_by_test_year(zscore_apply(ds, self.stats), 2005)
        cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=5, seed=0)
        self.f, _ = tr.train_global(self.train, cfg, H=6, readout_hidden=0)
        self.labels = model_labels(self.f, self.train)
        self.labels[self.test.rows] = model_labels(self.f, self.test)[self.test.rows]
        self.lyra, _ = tr.train_lyra(self.train, 3, cfg, self.labels, dims=tiny_dims(),
                                     year_max=2005)

    def window(self, county, extra=()):
        """county's test-year window, then the (block row, label) extras."""
        extra_rows = [row for row, _ in extra]
        (win,) = window_list(lookback_windows(
            self.train, [self.test.row(county, 2005)], self.labels, self.lyra.w,
            extras_of([(extra_rows, [label for _, label in extra])])))
        return win

    def predict(self, county, extra=()):
        return lyra_predict(self.lyra, self.stats, self.train,
                            window_batch([self.window(county, extra)]))[0]

    def county(self, win):
        return self.train.key(win.target)[0]

    def refined_entries(self, county, n=2):
        entries = []
        source = [c for c in self.train.counties if c != county][0]
        for y in self.train.years[-n:]:
            row = self.train.row(source, y)
            phys = self.stats.denormalize_label(self.train.labels([row]).item())
            entries.append(oracles.Entry(row, phys, 0.3, phys + 0.3, True, "ols"))
        return entries

    def context_run(self, monkeypatch, threshold):
        """Context-mode outputs, and the windows of each lyra_predict call."""
        cfg = pl.ExperimentConfig(test_year=2005, w=3, threshold=threshold,
                                  integration="context", sigma=0.0, seeds=(0,),
                                  dims=tiny_dims())
        models = pl.SeedModels(seed=0, stats=self.stats, train_n=self.train,
                               test_n=self.test, f=self.f, lyra=self.lyra)
        calls = []

        def recording(p, stats, ds, windows):
            assert ds.features is self.train.features
            calls.append(window_list(windows))
            return lyra_predict(p, stats, ds, windows)

        monkeypatch.setattr(pl, "lyra_predict", recording)
        out = pl.predict_counties(cfg, models, pl.retrieval_context(cfg, models, {}))
        return out, calls

    def keys(self, win):
        return [(*self.train.key(row), label)
                for row, label in zip(win.context.tolist(), win.context_labels.tolist())]

    def test_empty_set_is_identity(self, monkeypatch):
        county = self.train.counties[0]
        plain = self.predict(county)
        empty = self.predict(county, extra=[])
        assert empty.prediction == plain.prediction
        assert empty.history_years == plain.history_years
        np.testing.assert_array_equal(empty.beta, plain.beta)
        # nothing retrieved: every county falls back to its plain window,
        # and all of them are predicted in one call
        out, calls = self.context_run(monkeypatch, 1.0)
        assert out.fallbacks == set(out.predictions)
        (windows,) = calls
        assert [self.county(win) for win in windows] == sorted(out.predictions)
        for win in windows:
            assert self.keys(win) == self.keys(self.window(self.county(win)))
        for win, want in zip(windows, lyra_predict(self.lyra, self.stats, self.train,
                                                   window_batch(windows))):
            assert out.predictions[self.county(win)] == want.prediction

    def test_extended_window_beta(self):
        county = self.train.counties[0]
        w = len(self.predict(county).history_years)
        refined = self.refined_entries(county, n=2)
        extra = [(e.record, self.stats.normalize_label(e.label_refined)) for e in refined]
        out = self.predict(county, extra=extra)
        assert out.beta.shape == (w + 2,)
        assert out.history_years[w:] == [self.train.key(e.record)[1] for e in refined]
        np.testing.assert_allclose(out.beta.sum(), 1.0, atol=1e-9)
        assert np.all(out.beta >= 0.0) and np.all(out.beta <= 1.0)

    def test_refined_label_feeds_embedding(self, monkeypatch):
        # the pipeline appends each refined sample with its refined label,
        # normalized, after the county's own window
        out, calls = self.context_run(monkeypatch, 0.0)
        (windows,) = calls
        by_county = {self.county(win): win for win in windows}
        assert out.refined.queries == sorted(out.predictions) and len(out.refined.entries)
        for q, query in enumerate(out.refined.queries):
            want = [(*self.train.key(e.record), self.stats.normalize_label(e.label_refined))
                    for e in oracles.entries(out.refined, q)]
            assert self.keys(by_county[query]) == self.keys(self.window(query)) + want
            assert (query in out.fallbacks) == (not want)
        batch = lyra_predict(self.lyra, self.stats, self.train, window_batch(windows))
        for win, want in zip(windows, batch):
            assert out.predictions[self.county(win)] == want.prediction
        # the refined label reaches the appended embedding: a different
        # label value moves the prediction
        i, win = next((i, win) for i, win in enumerate(windows)
                      if len(win.context) > len(self.window(self.county(win)).context))
        county = self.county(win)
        shifted = replace(win, context_labels=win.context_labels + np.eye(len(win.context))[-1])
        moved = lyra_predict(self.lyra, self.stats, self.train,
                             window_batch(windows[:i] + [shifted] + windows[i + 1:]))
        assert moved[i].prediction != out.predictions[county]
        rows = [a for a in out.attention if a[0] == county]
        assert [a[2] for a in rows] == self.train.row_years[win.context].tolist()
        np.testing.assert_array_equal([a[3] for a in rows], batch[i].beta)


class TestRunExperiment:
    def test_plain_lyra_matches_manual_stages(self, tmp_path):
        cfg = base_config(tmp_path, integration="none", refine=False)
        ds, _ = generate_synthetic(cfg.synthetic)
        report = pl.run_experiment(cfg, dataset=ds)

        train, _ = split_by_test_year(ds, cfg.test_year)
        stats = zscore_fit(train)
        train_n, test_n = split_by_test_year(zscore_apply(ds, stats), cfg.test_year)
        tcfg = replace(cfg.train, seed=cfg.seeds[0])
        f, _ = tr.train_global(train_n, tcfg, H=cfg.global_H,
                               readout_hidden=cfg.global_readout_hidden)
        lyra, _ = tr.train_lyra(train_n, cfg.w, tcfg, model_labels(f, train_n),
                                dims=cfg.dims, year_max=cfg.test_year)
        test_labels = model_labels(f, test_n)
        rows = {r.county: r.prediction for r in report.seed_results[0].rows}
        windows = lookback_windows(
            train_n, [test_n.row(county, cfg.test_year) for county in test_n.counties],
            test_labels, cfg.w)
        for county, want in zip(test_n.counties, lyra_predict(lyra, stats, train_n, windows)):
            assert rows[county] == want.prediction

    def test_artifacts_written(self, tmp_path):
        cfg = base_config(tmp_path, seeds=(0, 1), sigma=0.1)
        report = pl.run_experiment(cfg)
        out = tmp_path / "run"
        for name in ["run.json", "report.csv", "predictions.csv", "attention.csv",
                     "errors.csv", "retrieval.csv", "bias.csv"]:
            assert (out / name).exists(), name
        assert any((out / "ckpt").iterdir())
        blob = json.loads((out / "run.json").read_text())
        assert blob["test_year"] == 2005
        assert blob["seeds"] == [0, 1]
        header = (out / "predictions.csv").read_text().splitlines()[0]
        assert header == "seed,county,year,prediction,label,error,fallback"
        assert report.rmse_std >= 0.0

    def test_export_follows_the_first_seed_in_config_order(self, tmp_path):
        """With seeds (1, 0), the checkpoints' names and parameters and the
        errors.csv rows all describe seed 1, the run's first seed."""
        report = pl.run_experiment(base_config(tmp_path, seeds=(1, 0)))
        out = tmp_path / "run"
        models = report.first_seed[0]
        assert models.seed == 1
        assert sorted(p.name for p in (out / "ckpt").iterdir()) == [
            "global_seed1.npz", "lyra_seed1.npz"]
        for name, params in (("global", models.f), ("lyra", models.lyra)):
            saved, _ = bb.load_checkpoint(str(out / "ckpt" / f"{name}_seed1.npz"))
            for key in params.store.names():
                np.testing.assert_array_equal(saved.store.value(key), params.store.value(key))
        errors = (out / "errors.csv").read_text().splitlines()[1:]
        by_seed = {sr.seed: [f"{r.county},{r.year},{r.error!r}"
                             for r in sorted(sr.rows, key=lambda r: r.county)]
                   for sr in report.seed_results}
        assert errors == by_seed[1] != by_seed[0]
        rows = [line.split(",") for line in (out / "predictions.csv").read_text().splitlines()[1:]]
        assert [f"{c},{y},{e}" for seed, c, y, _p, _l, e, _f in rows if seed == "1"] == errors

    def test_attention_rows_sum_to_one(self, tmp_path):
        cfg = base_config(tmp_path, integration="context")
        pl.run_experiment(cfg)
        lines = (tmp_path / "run" / "attention.csv").read_text().strip().splitlines()
        assert lines[0] == "county,target_year,history_year,beta"
        sums = {}
        for line in lines[1:]:
            county, ty, hy, beta = line.split(",")
            sums[county] = sums.get(county, 0.0) + float(beta)
        assert sums, "attention export must not be empty"
        for total in sums.values():
            assert abs(total - 1.0) < 1e-9

    def test_error_csv_covers_test_records(self, tmp_path):
        cfg = base_config(tmp_path)
        pl.run_experiment(cfg)
        lines = (tmp_path / "run" / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "county,year,error"
        assert len(lines) == 1 + 10  # ten labeled test counties

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = base_config(tmp_path, out_dir=str(tmp_path / "a"), sigma=0.05)
        cfg2 = base_config(tmp_path, out_dir=str(tmp_path / "b"), sigma=0.05)
        pl.run_experiment(cfg1)
        pl.run_experiment(cfg2)
        for name in ["report.csv", "predictions.csv", "attention.csv", "errors.csv",
                     "retrieval.csv", "bias.csv", "run.json"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_no_test_label_reads(self, tmp_path):
        """The caller's panel keeps its labels, and `evaluate` scores every
        test county on them."""
        cfg = base_config(tmp_path, out_dir=None)
        ds, _truth = generate_synthetic(cfg.synthetic)
        labels = ds.labels()
        report = pl.run_experiment(cfg, dataset=ds)
        assert np.array_equal(ds.labels(), labels)
        want = {county: label for (county, year), label in zip(ds.keys(), labels.tolist())
                if year == cfg.test_year}
        for sr in report.seed_results:
            assert {row.county: row.label for row in sr.rows} == want
        assert report.audit_violations == 0

    def test_missing_test_year_tagged(self, tmp_path):
        cfg = base_config(tmp_path, test_year=2050)
        with pytest.raises(pl.PipelineError, match="split"):
            pl.run_experiment(cfg)

    def test_empty_retrieval_falls_back_to_plain(self, tmp_path):
        full = base_config(tmp_path, out_dir=str(tmp_path / "hi"), threshold=0.9999)
        plain = base_config(tmp_path, out_dir=str(tmp_path / "plain"),
                            integration="none", refine=False)
        r_full = pl.run_experiment(full)
        r_plain = pl.run_experiment(plain)
        rows_full = {r.county: r for r in r_full.seed_results[0].rows}
        rows_plain = {r.county: r for r in r_plain.seed_results[0].rows}
        assert all(r.fallback for r in rows_full.values())
        for county, row in rows_full.items():
            np.testing.assert_allclose(row.prediction, rows_plain[county].prediction,
                                       atol=1e-12)

    def test_neighboring_and_embedding_modes_run(self, tmp_path):
        for i, mode in enumerate(["neighboring", "embedding"]):
            cfg = base_config(tmp_path, out_dir=str(tmp_path / mode),
                              retrieval_mode=mode, threshold=0.0)
            report = pl.run_experiment(cfg)
            assert np.isfinite(report.rmse_mean)


class TestConfig:
    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        cfg = pl.ExperimentConfig(test_year=2005, top_k=top_k)
        with pytest.raises(ContractError, match=rf"top_k must be at least 1, got {top_k}$"):
            cfg.validate()

    def test_duplicate_seeds_rejected(self, tmp_path):
        # seeds (0, 0, 1) would run seed 0 twice and weight it twice in the mean
        with pytest.raises(ContractError, match=r"seeds must be distinct, got \[0, 0, 1\]$"):
            pl.ExperimentConfig(test_year=2005, seeds=(0, 0, 1)).validate()
        with pytest.raises(pl.PipelineError, match=r"^\[config\] seeds must be distinct"):
            pl.run_experiment(base_config(tmp_path, seeds=(1, 0, 1)))

    @pytest.mark.parametrize("seeds", [("0", "1"), (0, 1.0), (True,), 5, "01"])
    def test_non_int_seeds_rejected(self, seeds):
        with pytest.raises(ContractError, match=r"^seeds must be a list of ints, got "):
            pl.ExperimentConfig(test_year=2005, seeds=seeds).validate()

    @pytest.mark.parametrize("field", ["threshold", "sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ContractError, match=rf"^{field} must be finite"):
            pl.ExperimentConfig(test_year=2005, **{field: value}).validate()

    @pytest.mark.parametrize("field", ["lr", "fine_tune_lr", "clip_norm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_train_floats_rejected(self, field, value):
        train = tr.TrainConfig(**{field: value})
        with pytest.raises(ContractError, match=rf"^{field} must be finite, got {value}$"):
            pl.ExperimentConfig(test_year=2005, train=train).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match=r"^seeds must be non-negative, got \[0, -1\]$"):
            pl.ExperimentConfig(test_year=2005, seeds=(0, -1)).validate()

    @pytest.mark.parametrize("field, width, low", [
        ("global_H", 0, 1), ("global_readout_hidden", -1, 0),
        ("dims.d", 0, 1), ("dims.H", 0, 1), ("dims.Z", 0, 1), ("dims.E", 0, 1),
        ("dims.attn_hidden", -1, 0), ("dims.mlp_hidden", -1, 0),
    ])
    def test_impossible_width_rejected(self, field, width, low):
        def config(value):
            if field.startswith("dims."):
                return pl.ExperimentConfig(test_year=2005,
                                           dims=replace(LyraDims(d=4), **{field[5:]: value}))
            return pl.ExperimentConfig(test_year=2005, **{field: value})

        with pytest.raises(ContractError, match=rf"^{field} must be at least {low}, got {width}$"):
            config(width).validate()
        config(low).validate()  # the least width passes


def reference_sweep(cfg, axis, values, dataset=None):
    """The sweep the shared driver replaced: one full `run_experiment` per value."""
    out_dir = cfg.out_dir
    reports = []
    for value in values:
        sub = pl._SWEEP_AXES[axis](cfg, value)
        sub = replace(sub, out_dir=None, variant=f"{axis}={value}")
        reports.append(pl.run_experiment(sub, dataset=dataset))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        lines = ["axis,value,rmse_mean,rmse_std,retrieved_total"]
        for value, rep in zip(values, reports):
            lines.append(f"{axis},{value},{rep.rmse_mean!r},{rep.rmse_std!r},"
                         f"{rep.retrieved_total!r}")
        pl._write(os.path.join(out_dir, "sweep.csv"), lines)
    return reports


def count_training(monkeypatch):
    """Count the pipeline's `train_global` and `train_lyra` calls."""
    counts = {"train_global": 0, "train_lyra": 0}

    def counting(name):
        original = getattr(pl, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(pl, name, counting(name))
    return counts


def report_bits(reports):
    """Every number a sweep's reports hold, as exact strings."""
    return [(rep.variant, rep.rmse_mean.hex(), rep.rmse_std.hex(), rep.retrieved_total.hex(),
             rep.audit_violations,
             [(sr.seed, sr.rmse.hex(), sr.retrieved_samples,
               [(r.county, r.year, r.prediction.hex(), r.error.hex(), r.fallback)
                for r in sr.rows])
              for sr in rep.seed_results])
            for rep in reports]


class TestCheckpointStats:
    def test_other_statistics_refused_before_training(self, tmp_path, monkeypatch):
        """A checkpoint saved with another split's statistics, or none, is
        refused before any training; one with this split's is used."""
        cfg = base_config(tmp_path, out_dir=None)
        ds, _ = generate_synthetic(cfg.synthetic)
        counts = count_training(monkeypatch)
        f = bb.GruParams.init(d=4, H=6, readout_hidden=0)
        for saved in (zscore_fit(split_by_test_year(ds, 2004)[0]), None):
            with pytest.raises(ContractError, match=r"^checkpoint g\.npz does not hold"):
                pl.train_models(cfg, ds, 0, f=f, checkpoints={"f": ("g.npz", saved)})
        assert counts == {"train_global": 0, "train_lyra": 0}
        own = zscore_fit(split_by_test_year(ds, 2005)[0])
        models = pl.train_models(cfg, ds, 0, f=f, with_lyra=False,
                                 checkpoints={"f": ("g.npz", own)})
        assert models.f is f and counts == {"train_global": 0, "train_lyra": 0}


class TestSweepSharesModels:
    """A sweep trains each seed's models once and keeps every bit of the per-value runs."""

    # per axis: values, config overrides, and the cross-year models trained per seed
    CASES = {
        "threshold": ([0.2, 0.6, 0.95], {}, 1),
        "topk": ([1, 2, 4], {"threshold": -1.0}, 1),
        "lookback": ([1, 3], {}, 2),
    }

    @pytest.mark.parametrize("axis", sorted(CASES))
    def test_bit_equal_to_per_value_runs(self, tmp_path, monkeypatch, axis):
        values, overrides, lyras = self.CASES[axis]
        train = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=4, seed=0,
                               fine_tune_lr=1e-3, fine_tune_epochs=3)
        ds, _ = generate_synthetic(synth_cfg())
        seeds = (0, 1)
        runs = {}
        for name, fn in [("reference", reference_sweep), ("shared", pl.sweep)]:
            cfg = base_config(tmp_path, out_dir=str(tmp_path / name), seeds=seeds,
                              sigma=0.05, train=train, **overrides)
            with monkeypatch.context() as m:
                counts = count_training(m)
                reports = fn(cfg, axis, values, dataset=ds)
            runs[name] = (report_bits(reports), counts,
                          (tmp_path / name / "sweep.csv").read_bytes())
        ref_bits, ref_counts, ref_csv = runs["reference"]
        bits, counts, csv = runs["shared"]
        assert bits == ref_bits
        assert csv == ref_csv
        assert ref_counts == {"train_global": len(seeds) * len(values),
                              "train_lyra": len(seeds) * len(values)}
        assert counts == {"train_global": len(seeds), "train_lyra": len(seeds) * lyras}
        if axis == "threshold":
            assert len({rep[3] for rep in bits}) == len(values)  # retrieval moved

    def test_bad_value_fails_before_training(self, tmp_path, monkeypatch):
        counts = count_training(monkeypatch)
        with pytest.raises(pl.PipelineError, match="top_k must be at least 1, got 0"):
            pl.sweep(base_config(tmp_path), "topk", [2, 0])
        assert counts == {"train_global": 0, "train_lyra": 0}


class TestSweep:
    def test_threshold_counts_nonincreasing(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=str(tmp_path / "sweep"))
        reports = pl.sweep(cfg, "threshold", [0.2, 0.6, 0.95])
        counts = [rep.retrieved_total for rep in reports]
        assert counts[0] >= counts[1] >= counts[2]
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "axis,value,rmse_mean,rmse_std,retrieved_total"
        assert len(lines) == 4

    def test_lookback_axis_runs(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=str(tmp_path / "sweep2"),
                          integration="none", refine=False)
        reports = pl.sweep(cfg, "lookback", [1, 3])
        assert all(np.isfinite(rep.rmse_mean) for rep in reports)

    def test_bad_axis_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        with pytest.raises(ContractError):
            pl.sweep(cfg, "nonsense", [1])


class TestAblate:
    def test_variant_matrix(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=str(tmp_path / "ablate"))
        reports = pl.ablate(cfg)
        assert set(reports) >= {"ratar", "wo_refine", "lyra", "gruatt"}
        for rep in reports.values():
            assert np.isfinite(rep.rmse_mean)
        lines = (tmp_path / "ablate" / "ablate.csv").read_text().strip().splitlines()
        assert lines[0] == "variant,rmse_mean,rmse_std"
        assert len(lines) == 1 + len(reports)

    def test_evaluation_error_names_variant_and_seed(self, tmp_path, monkeypatch):
        original = pl.evaluate

        def failing(predictions, test, seed, variant="eval", *args, **kwargs):
            if (variant, seed) == ("wo_refine", 1):
                raise ValueError("no score")
            return original(predictions, test, seed, variant, *args, **kwargs)

        monkeypatch.setattr(pl, "evaluate", failing)
        cfg = base_config(tmp_path, out_dir=None, seeds=(0, 1),
                          train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=2, seed=0,
                                               fine_tune_lr=1e-3, fine_tune_epochs=1))
        with pytest.raises(pl.PipelineError, match=r"^\[evaluate wo_refine seed 1\] no score$"):
            pl.ablate(cfg)

    def test_first_seed_models_are_a_fresh_seed_run(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=None, seeds=(0, 1),
                          train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=3, seed=0,
                                               fine_tune_lr=1e-3, fine_tune_epochs=2))
        ds, _ = generate_synthetic(cfg.synthetic)
        reports = pl.ablate(cfg, dataset=ds)
        models, biases, predicted = reports["ratar"].first_seed
        fresh = pl.train_models(cfg, ds, 0)
        assert models.seed == 0
        np.testing.assert_array_equal(models.f.store.flat, fresh.f.store.flat)
        np.testing.assert_array_equal(models.lyra.store.flat, fresh.lyra.store.flat)
        assert set(biases) == set(models.train_n.counties)
        rows = {r.county: r.prediction for r in reports["ratar"].seed_results[0].rows}
        assert predicted.predictions == rows
        assert all(rep.first_seed[0] is models for rep in reports.values())

    def test_lyra_variant_matches_none_integration(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=str(tmp_path / "ab2"))
        reports = pl.ablate(cfg)
        plain = base_config(tmp_path, out_dir=str(tmp_path / "plain2"),
                            integration="none", refine=False)
        r_plain = pl.run_experiment(plain)
        a = {r.county: r.prediction for r in reports["lyra"].seed_results[0].rows}
        b = {r.county: r.prediction for r in r_plain.seed_results[0].rows}
        for county in a:
            np.testing.assert_allclose(a[county], b[county], atol=1e-12)


def count_global_forward(monkeypatch):
    """Count `global_forward` calls made outside `train_global`.

    Every `ratar` module binding of the function is replaced, so the
    count does not depend on which module makes the call.
    """
    original = bb.global_forward
    state = {"calls": 0, "in_train_global": False}

    def counting(*args, **kwargs):
        if not state["in_train_global"]:
            state["calls"] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "ratar" or name.startswith("ratar."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    train_global = pl.train_global

    def flagged(*args, **kwargs):
        state["in_train_global"] = True
        try:
            return train_global(*args, **kwargs)
        finally:
            state["in_train_global"] = False

    monkeypatch.setattr(pl, "train_global", flagged)
    return state


class TestModelLabels:
    """The global model's labels are made once per seed and read everywhere."""

    @staticmethod
    def config(tmp_path, **overrides):
        return base_config(tmp_path, out_dir=None,
                           train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=3, seed=0,
                                                fine_tune_lr=1e-3, fine_tune_epochs=2),
                           **overrides)

    @pytest.mark.parametrize("entry", ["run_experiment", "ablate"])
    def test_two_global_forward_calls_per_seed(self, tmp_path, monkeypatch, entry):
        state = count_global_forward(monkeypatch)
        cfg = self.config(tmp_path, seeds=(0, 1))
        getattr(pl, entry)(cfg)
        assert state["calls"] == 2 * len(cfg.seeds)

    def test_every_window_reads_the_table(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path)
        ds, adjacency, _test = pl.load(cfg)
        models = pl.train_models(cfg, ds, 0)
        ctx = pl.retrieval_context(cfg, models, adjacency)
        recorded = {"fine_tune": [], "predict": []}

        def recording(kind, original):
            def wrapper(p, ds, windows):
                recorded[kind].extend(window_list(windows))
                return original(p, ds, windows)
            return wrapper

        monkeypatch.setattr(tr, "window_table", recording("fine_tune", tr.window_table))
        monkeypatch.setattr(bb, "window_table", recording("predict", bb.window_table))
        pl.predict_counties(cfg, models, ctx)
        assert recorded["fine_tune"] and len(recorded["predict"]) == len(models.test_counties)
        for win in recorded["fine_tune"] + recorded["predict"]:
            assert win.label == models.model_labels[win.target]


def county_of(models, win):
    return models.train_n.key(win.target)[0]


class TestPredictCalls:
    """Shared-parameter counties are predicted in one call, tuned ones in one more."""

    @staticmethod
    def config(tmp_path, **overrides):
        return base_config(tmp_path, out_dir=None,
                           train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=3, seed=0,
                                                fine_tune_lr=1e-3, fine_tune_epochs=2),
                           **overrides)

    @staticmethod
    def recorded_run(cfg, monkeypatch):
        ds, adjacency, _test = pl.load(cfg)
        models = pl.train_models(cfg, ds, 0)
        ctx = pl.retrieval_context(cfg, models, adjacency)
        calls = []

        def recording(p, stats, ds, windows):
            assert ds is models.train_n
            calls.append((p, window_list(windows)))
            return lyra_predict(p, stats, ds, windows)

        monkeypatch.setattr(pl, "lyra_predict", recording)
        return models, pl.predict_counties(cfg, models, ctx), calls

    @pytest.mark.parametrize("integration", ["none", "context"])
    def test_one_call_on_shared_parameters(self, tmp_path, monkeypatch, integration):
        cfg = self.config(tmp_path, integration=integration, refine=integration != "none")
        models, out, calls = self.recorded_run(cfg, monkeypatch)
        (p, windows), = calls
        assert p is models.lyra
        assert [county_of(models, win) for win in windows] == models.test_counties
        for win in windows:
            solo = lyra_predict(models.lyra, models.stats, models.train_n,
                                window_batch([win]))[0]
            np.testing.assert_allclose(out.predictions[county_of(models, win)],
                                       solo.prediction, rtol=1e-15, atol=0)
        assert list(out.predictions) == models.test_counties
        # attention rows: county after county in test order, each summing to 1
        counties = [row[0] for row in out.attention]
        assert sorted(set(counties), key=counties.index) == models.test_counties
        assert counties == sorted(counties, key=models.test_counties.index)
        for county in models.test_counties:
            betas = [row[3] for row in out.attention if row[0] == county]
            assert abs(sum(betas) - 1.0) < 1e-12

    # on this panel: every county tuned, four fallbacks, every county a fallback
    @pytest.mark.parametrize("threshold", [0.5, 0.9, 0.9999])
    def test_finetune_one_stacked_call_per_seed(self, tmp_path, monkeypatch, threshold):
        cfg = self.config(tmp_path, threshold=threshold)
        tunes = []

        def recording_fine_tune(p, refined, *args, **kwargs):
            tuned = tr.fine_tune(p, refined, *args, **kwargs)
            tunes.append((refined, tuned))
            return tuned

        monkeypatch.setattr(pl, "fine_tune", recording_fine_tune)
        models, out, calls = self.recorded_run(cfg, monkeypatch)
        tuned = [c for c in models.test_counties if c not in out.fallbacks]
        assert len(tunes) == (1 if tuned else 0)
        assert len(calls) == (1 if tuned else 0) + (1 if out.fallbacks else 0)
        if tuned:
            (refined, stack), = tunes
            assert refined.queries == tuned and all(refined.sizes > 0)
            p, windows = calls[0]
            assert p is stack and p.store.copies == len(tuned)
            assert [county_of(models, win) for win in windows] == tuned
            for k, win in enumerate(windows):
                solo = lyra_predict(oracles.member(stack, k), models.stats, models.train_n,
                                    window_batch([win]))[0]
                np.testing.assert_allclose(out.predictions[county_of(models, win)],
                                           solo.prediction, rtol=1e-12, atol=0)
        if out.fallbacks:
            p, windows = calls[-1]
            assert p is models.lyra
            assert [county_of(models, win) for win in windows] == sorted(out.fallbacks)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_finetune_divergence_names_seed_and_counties(self, tmp_path):
        train = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=3, seed=0,
                               fine_tune_lr=1e200, fine_tune_epochs=5)
        cfg = base_config(tmp_path, out_dir=None, train=train)
        with pytest.raises(pl.PipelineError) as info:
            pl.run_experiment(cfg)
        message = str(info.value)
        assert message.startswith("[fine_tune seed 0 counties c000 ")
        assert "diverged at epoch" in message


def poisoned(forward, pair=False):
    """`forward` with the first entry of its output Tensor (the first of a
    pair of outputs, if `pair`) set to inf."""
    def wrapper(*args, **kwargs):
        out = forward(*args, **kwargs)
        (out[0] if pair else out).data.reshape(-1)[0] = np.inf
        return out
    return wrapper


class TestNonFiniteOutputs:
    """A non-finite value in an untraced output that leaves the engine is
    refused inside the stage that made it, which the error names."""

    @pytest.mark.parametrize("module,name,pair,stage,what", [
        (bb, "global_forward", False, "train_lyra seed 0", "model labels"),
        (pl, "embed_batch", True, "refinement_setup seed 0", "training embeddings"),
        (bb, "lyra_forward", True, "predict seed 0", "predictions"),
    ])
    def test_run_names_the_stage(self, tmp_path, monkeypatch, module, name, pair, stage, what):
        monkeypatch.setattr(module, name, poisoned(getattr(module, name), pair))
        cfg = base_config(tmp_path, out_dir=None, threshold=0.9999)  # every county falls back
        with pytest.raises(pl.PipelineError, match=rf"^\[{stage}\] non-finite {what}$"):
            pl.run_experiment(cfg)

    def test_gruatt_predictions_name_the_stage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pl, "gruatt_forward", poisoned(pl.gruatt_forward))
        cfg = base_config(tmp_path, out_dir=None)
        models = pl.train_models(cfg, pl.load(cfg)[0], 0, with_lyra=False)
        with pytest.raises(pl.PipelineError, match=r"^\[predict seed 0\] non-finite predictions$"):
            pl._gruatt_predictions(cfg, models)


class TestStageTimings:
    @pytest.mark.filterwarnings("ignore:retrieved sample")
    def test_seconds_per_seed_and_kind(self, tmp_path):
        report = pl.run_experiment(base_config(tmp_path, seeds=(1, 0)))
        assert list(report.stage_seconds) == [1, 0]
        kinds = {"split", "normalize", "train_global", "train_lyra", "residuals",
                 "refinement_setup", "retrieval", "refinement", "history", "fine_tune",
                 "predict", "evaluate"}
        for stages in report.stage_seconds.values():
            assert kinds - {"predict"} <= set(stages) <= kinds
            assert all(s >= 0.0 for s in stages.values())
        # a kind holds its stages' own seconds, less their nested stages'
        # (evaluate encloses fine-tuning, prediction, retrieval and
        # refinement), so a seed's kinds add up to no more than its time
        assert sum(sum(stages.values()) for stages in report.stage_seconds.values()) \
            <= report.seconds
        blob = json.loads((tmp_path / "run" / "timings.json").read_text())
        assert blob == {"seconds": report.seconds,
                        "stage_seconds": [{"seed": seed, "stages": stages}
                                          for seed, stages in report.stage_seconds.items()]}
        assert pl._STAGE_SECONDS.get() is None

    def test_nested_stage_seconds_are_not_counted_twice(self, monkeypatch):
        clock = iter(range(100))
        monkeypatch.setattr(pl.time, "perf_counter", lambda: float(next(clock)))
        seconds = {}
        with pl._timing_stages(seconds):
            with pl._stage("evaluate a"):  # opens at 0, closes at 7
                with pl._stage("train_gruatt seed 0"):  # 1 to 4
                    with pl._stage("predict seed 0"):  # 2 to 3
                        pass
                with pl._stage("predict seed 0"):  # 5 to 6
                    pass
        assert seconds == {"evaluate": 3.0, "train_gruatt": 2.0, "predict": 2.0}

    @pytest.mark.filterwarnings("ignore:retrieved sample")
    def test_ablate_shares_one_table_per_run(self, tmp_path):
        reports = pl.ablate(base_config(tmp_path, out_dir=None, seeds=(0,)))
        tables = [rep.stage_seconds for rep in reports.values()]
        assert all(table is tables[0] for table in tables)
        assert {"train_gruatt", "predict"} <= set(tables[0][0])


class TestSharedRetrieval:
    """Ablation variants share one retrieval and one refinement per setting."""

    def test_ablate_retrieves_and_refines_once(self, tmp_path, monkeypatch):
        counts = {"retrieve": 0, "refine": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pl.rt, "retrieve", counting("retrieve", pl.rt.retrieve))
        monkeypatch.setattr(pl.rf, "refine_labels", counting("refine", pl.rf.refine_labels))
        cfg = base_config(tmp_path, out_dir=None, seeds=(0, 1),
                          train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=3, seed=0,
                                               fine_tune_lr=1e-3, fine_tune_epochs=2))
        pl.ablate(cfg)
        # per seed: each county retrieved once, and all of them refined once
        # with refinement and once without
        assert counts == {"retrieve": len(cfg.seeds) * cfg.synthetic.n_counties,
                          "refine": 2 * len(cfg.seeds)}

    def test_shared_results_match_fresh_ones(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=None)
        ds, adjacency, _test = pl.load(cfg)
        models = pl.train_models(cfg, ds, 0)
        shared = pl.retrieval_context(cfg, models, adjacency)
        for refine in (True, False, True):
            sub = replace(cfg, refine=refine)
            got = pl.retrieve_refine(sub, models, shared)
            fresh = pl.retrieve_refine(sub, models, pl.retrieval_context(sub, models, adjacency))
            assert [r.query for r in got[0]] == models.test_counties
            for a, b in zip(got[0], fresh[0]):
                assert np.array_equal(a.samples, b.samples)
            assert oracles.entries(got[1]) == oracles.entries(fresh[1])
        assert len(shared.retrieved) == 1 and len(shared.refined) == 2


class TestRowsOnly:
    """Runs name seasons by block rows: no per-record view, one window build."""

    def test_runs_build_no_record_view(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("a per-record view of a Dataset was built")

        builds, inside = [], []  # per train_lyra call: its lookback_windows calls

        def counting_windows(*args, **kwargs):
            builds[-1] += bool(inside)  # fine-tuning builds its own windows
            return lookback_windows(*args, **kwargs)

        def counting_train_lyra(*args, **kwargs):
            builds.append(0)
            inside.append(True)
            try:
                return tr.train_lyra(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(Dataset, "records", property(refuse))
        monkeypatch.setattr(tr, "lookback_windows", counting_windows)
        monkeypatch.setattr(pl, "train_lyra", counting_train_lyra)
        train = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=2, seed=0,
                               fine_tune_lr=1e-3, fine_tune_epochs=2)
        report = pl.run_experiment(base_config(tmp_path, train=train))
        assert report.audit_violations == 0 and os.path.exists(tmp_path / "run" / "refined.csv")
        assert builds == [1]
        pl.ablate(base_config(tmp_path, out_dir=None, train=train, seeds=(0, 1)))
        assert builds == [1, 1, 1]

    def test_only_evaluate_lists_keys(self, tmp_path, monkeypatch):
        """Per-season tables are indexed by block row: the one list of a
        split's (county, year) keys is `evaluate`'s, once per variant and seed."""
        callers = []
        keys = Dataset.keys

        def counting(self):
            callers.append(sys._getframe(1).f_code.co_name)
            return keys(self)

        monkeypatch.setattr(Dataset, "keys", counting)
        train = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=2, seed=0,
                               fine_tune_lr=1e-3, fine_tune_epochs=2)
        pl.run_experiment(base_config(tmp_path, train=train, seeds=(0, 1)))
        assert callers == ["evaluate"] * 2
        callers.clear()
        reports = pl.ablate(base_config(tmp_path, out_dir=None, train=train, seeds=(0, 1)))
        assert callers == ["evaluate"] * (len(reports) * 2)


class TestRefinementSetupCalls:
    """Bias matrices cost one regressor call per regressor year, for all counties."""

    def test_one_predict_per_county_and_regressor_year(self, tmp_path, monkeypatch):
        synth = replace(synth_cfg(), n_counties=24, n_years=12)
        cfg = base_config(tmp_path, out_dir=None, synthetic=synth, test_year=2011,
                          train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=1, seed=0,
                                               fine_tune_lr=1e-3, fine_tune_epochs=1))
        ds, adjacency, _test = pl.load(cfg)
        models = pl.train_models(cfg, ds, 0)
        calls = []
        original = rf.YearRegressor.predict

        def counting(self, Z):
            calls.append(self.year)
            return original(self, Z)

        monkeypatch.setattr(rf.YearRegressor, "predict", counting)
        ctx = pl.retrieval_context(cfg, models, adjacency)
        train_n = models.train_n
        rows = sum(len(set(ctx.regressors) & set(train_n.row_years[train_n.county_rows(c)]))
                   for c in train_n.counties)
        assert len(train_n.counties) == 24 and rows == 264
        assert sorted(calls) == sorted(ctx.regressors) and len(calls) == 11


class TestExtrapolationFits:
    """Bias rows are extended to the test year once per seed, in closed form."""

    @staticmethod
    def config(tmp_path, **overrides):
        synth = replace(synth_cfg(), n_counties=24, n_years=12)
        train = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=1, seed=0,
                               fine_tune_lr=1e-3, fine_tune_epochs=1)
        return base_config(tmp_path, synthetic=synth, test_year=2011, train=train, **overrides)

    def test_one_extension_per_seed_matches_polyfit(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path, out_dir=None)
        ds, adjacency, _test = pl.load(cfg)
        models = pl.train_models(cfg, ds, 0)
        calls = []
        original = rf.extend_rows

        def counting(years, B, fitted, target_year):
            calls.append((years, B.shape, target_year))
            return original(years, B, fitted, target_year)

        monkeypatch.setattr(rf, "extend_rows", counting)
        ctx = pl.retrieval_context(cfg, models, adjacency)
        # every county covers the same eleven years: one stack of 24 matrices
        assert calls == [(tuple(range(2000, 2011)), (24, 11, 11), 2011)]
        entries = oracles.entries(pl.retrieve_refine(cfg, models, ctx)[1])
        assert len(calls) == 1  # none per query or sample
        assert sum(e.method == "ols" for e in entries) > len(models.test_counties)
        for e in entries:
            county, year = models.train_n.key(e.record)
            want = reference_extrapolate_bias(ctx.biases[county], year, 2011)
            assert e.method == want.method
            assert abs(e.bias_hat - want.value) <= 1e-12 * max(1.0, abs(want.value))

    def test_no_least_squares_solve(self, tmp_path, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        report = pl.run_experiment(self.config(tmp_path, out_dir=None))
        assert report.retrieved_total > 0
        assert calls == []


class TestLabelAuditOnBlocks:
    """Bulk label reads of the block design find no test label to read."""

    @staticmethod
    def config(tmp_path):
        return base_config(tmp_path, out_dir=None, seeds=(0, 1),
                           train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=2, seed=0,
                                                fine_tune_lr=1e-3, fine_tune_epochs=1))

    @pytest.mark.parametrize("read", ["test_split", "test_rows_of_train_split"])
    def test_bulk_test_label_read_is_a_violation(self, tmp_path, monkeypatch, read):
        """A stage that reads test labels in bulk gets only NaN."""
        original = pl.predict_counties
        reads = []

        def leaking(cfg, models, ctx):
            if read == "test_split":
                reads.append(models.test_n.labels())
            else:  # the same rows, through the train split's view of the block
                reads.append(models.train_n.labels(models.test_n.rows))
            return original(cfg, models, ctx)

        monkeypatch.setattr(pl, "predict_counties", leaking)
        pl.run_experiment(self.config(tmp_path))
        assert [len(values) for values in reads] == [10, 10]  # every test county, on each seed
        assert np.isnan(np.concatenate(reads)).all()

    def test_no_bulk_array_in_train_models_holds_a_test_label(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path)
        ds, _, test = pl.load(cfg)
        read_years = []
        labels = Dataset.labels

        def recording(self, rows=None):
            rows = self.rows if rows is None else rows
            read_years.extend(self.row_years[rows].tolist())
            return labels(self, rows)

        monkeypatch.setattr(Dataset, "labels", recording)
        models = pl.train_models(cfg, ds, 0)
        models.model_labels
        assert read_years and max(read_years) < cfg.test_year
        # normalization copies no label array: the splits read the loaded
        # one, which holds no test label, while `test` holds every one
        for split in (models.train_n, models.test_n):
            assert split._labels is ds._labels
        assert np.isnan(ds._labels[ds.row_years >= cfg.test_year]).all()
        assert not np.isnan(test.labels()).any() and test.rows.tolist() == models.test_n.rows.tolist()
