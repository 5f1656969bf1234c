"""End-to-end pipeline tests: orchestration, evaluation math, context
integration, artifact export, determinism, and the ablation matrix."""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from ratar import backbone as bb
from ratar import pipeline as pl
from ratar import training as tr
from ratar.backbone import LyraDims, lookback_window, lyra_predict, model_labels
from ratar.data import (
    CountyYearRecord,
    Dataset,
    NormStats,
    SyntheticConfig,
    generate_synthetic,
    label_audit,
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
        return Dataset(recs)

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
        report = pl.evaluate({"a": 10.0}, Dataset(recs), seed=0)
        assert report.rmse_mean == 0.0
        assert len(report.seed_results[0].rows) == 1


class TestIntegrateContext:
    def setup_method(self):
        ds, _ = generate_synthetic(synth_cfg())
        train, test = split_by_test_year(ds, 2005)
        self.stats = zscore_fit(train)
        self.train = zscore_apply(train, self.stats)
        self.test = zscore_apply(test, self.stats, labels=False)
        cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=5, seed=0)
        self.f, _ = tr.train_global(self.train, cfg, H=6, readout_hidden=0)
        self.labels = {**model_labels(self.f, self.train.records),
                       **model_labels(self.f, self.test.records)}
        self.lyra, _ = tr.train_lyra(self.train, 3, cfg, self.labels, dims=tiny_dims(),
                                     year_max=2005)

    def window(self, county, extra=()):
        return lookback_window(self.train, self.test.get(county, 2005),
                               self.labels[county, 2005], self.lyra.w, extra)

    def predict(self, county, extra=()):
        return lyra_predict(self.lyra, self.stats, [self.window(county, extra)])[0]

    def refined_entries(self, county, n=2):
        entries = []
        source = [c for c in self.train.counties if c != county][0]
        for y in self.train.years[-n:]:
            rec = self.train.get(source, y)
            phys = self.stats.denormalize_label(rec.yield_label)
            entries.append(rf.RefinedSample(rec, phys, 0.3, phys + 0.3, True, "ols"))
        return rf.RefinedSampleSet(query=county, target_year=2005, sigma=0.0,
                                   entries=entries)

    def context_run(self, monkeypatch, threshold):
        """Context-mode outputs, and the windows of each lyra_predict call."""
        cfg = pl.ExperimentConfig(test_year=2005, w=3, threshold=threshold,
                                  integration="context", sigma=0.0, seeds=(0,),
                                  dims=tiny_dims())
        models = pl.SeedModels(seed=0, stats=self.stats, train_n=self.train,
                               test_n=self.test, f=self.f, lyra=self.lyra)
        calls = []

        def recording(p, stats, windows):
            calls.append(list(windows))
            return lyra_predict(p, stats, windows)

        monkeypatch.setattr(pl, "lyra_predict", recording)
        out = pl.predict_counties(cfg, models, pl.retrieval_context(cfg, models, {}))
        return out, calls

    @staticmethod
    def keys(win):
        return [(rec.county, rec.year, label) for rec, label in win.context]

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
        assert [win.target.county for win in windows] == sorted(out.predictions)
        for win in windows:
            assert self.keys(win) == self.keys(self.window(win.target.county))
        for win, want in zip(windows, lyra_predict(self.lyra, self.stats, windows)):
            assert out.predictions[win.target.county] == want.prediction

    def test_extended_window_beta(self):
        county = self.train.counties[0]
        w = len(self.predict(county).history_years)
        refined = self.refined_entries(county, n=2)
        extra = [(e.record, self.stats.normalize_label(e.label_refined))
                 for e in refined.entries]
        out = self.predict(county, extra=extra)
        assert out.beta.shape == (w + 2,)
        assert out.history_years[w:] == [e.record.year for e in refined.entries]
        np.testing.assert_allclose(out.beta.sum(), 1.0, atol=1e-9)
        assert np.all(out.beta >= 0.0) and np.all(out.beta <= 1.0)

    def test_refined_label_feeds_embedding(self, monkeypatch):
        # the pipeline appends each refined sample with its refined label,
        # normalized, after the county's own window
        out, calls = self.context_run(monkeypatch, 0.0)
        (windows,) = calls
        by_county = {win.target.county: win for win in windows}
        assert out.refined_sets and any(s.entries for s in out.refined_sets)
        for refined in out.refined_sets:
            want = [(e.record.county, e.record.year, self.stats.normalize_label(e.label_refined))
                    for e in refined.entries]
            assert self.keys(by_county[refined.query]) == (
                self.keys(self.window(refined.query)) + want)
            if want:
                assert refined.query not in out.fallbacks
        batch = lyra_predict(self.lyra, self.stats, windows)
        for win, want in zip(windows, batch):
            assert out.predictions[win.target.county] == want.prediction
        # the refined label reaches the appended embedding: a different
        # label value moves the prediction
        i, win = next((i, win) for i, win in enumerate(windows)
                      if len(win.context) > len(self.window(win.target.county).context))
        county = win.target.county
        rec, label_n = win.context[-1]
        shifted = replace(win, context=win.context[:-1] + ((rec, label_n + 1.0),))
        moved = lyra_predict(self.lyra, self.stats, windows[:i] + [shifted] + windows[i + 1:])
        assert moved[i].prediction != out.predictions[county]
        rows = [a for a in out.attention if a[0] == county]
        assert [a[2] for a in rows] == [r.year for r, _ in win.context]
        np.testing.assert_array_equal([a[3] for a in rows], batch[i].beta)


class TestRunExperiment:
    def test_plain_lyra_matches_manual_stages(self, tmp_path):
        cfg = base_config(tmp_path, integration="none", refine=False)
        ds, _ = generate_synthetic(cfg.synthetic)
        report = pl.run_experiment(cfg, dataset=ds)

        train, test = split_by_test_year(ds, cfg.test_year)
        stats = zscore_fit(train)
        train_n = zscore_apply(train, stats)
        test_n = zscore_apply(test, stats, labels=False)
        tcfg = replace(cfg.train, seed=cfg.seeds[0])
        f, _ = tr.train_global(train_n, tcfg, H=cfg.global_H,
                               readout_hidden=cfg.global_readout_hidden)
        lyra, _ = tr.train_lyra(train_n, cfg.w, tcfg, model_labels(f, train_n.records),
                                dims=cfg.dims, year_max=cfg.test_year)
        test_labels = model_labels(f, test_n.records)
        rows = {r.county: r.prediction for r in report.seed_results[0].rows}
        windows = [lookback_window(train_n, test_n.get(county, cfg.test_year),
                                   test_labels[county, cfg.test_year], cfg.w)
                   for county in test_n.counties]
        for win, want in zip(windows, lyra_predict(lyra, stats, windows)):
            assert rows[win.target.county] == want.prediction

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
        cfg = base_config(tmp_path)
        label_audit.reset()
        report = pl.run_experiment(cfg)
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
        ds, adjacency = pl.load(cfg)
        models = pl.train_models(cfg, ds, 0)
        ctx = pl.retrieval_context(cfg, models, adjacency)
        recorded = {"fine_tune": [], "predict": []}

        def recording(kind, original):
            def wrapper(p, windows):
                recorded[kind].extend(windows)
                return original(p, windows)
            return wrapper

        monkeypatch.setattr(tr, "window_table", recording("fine_tune", tr.window_table))
        monkeypatch.setattr(bb, "window_table", recording("predict", bb.window_table))
        pl.predict_counties(cfg, models, ctx)
        assert recorded["fine_tune"] and len(recorded["predict"]) == len(models.test_counties)
        for win in recorded["fine_tune"] + recorded["predict"]:
            assert win.label == models.model_labels[win.target.county, win.target.year]


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
        ds, adjacency = pl.load(cfg)
        models = pl.train_models(cfg, ds, 0)
        ctx = pl.retrieval_context(cfg, models, adjacency)
        calls = []

        def recording(p, stats, windows):
            calls.append((p, list(windows)))
            return lyra_predict(p, stats, windows)

        monkeypatch.setattr(pl, "lyra_predict", recording)
        return models, pl.predict_counties(cfg, models, ctx), calls

    @pytest.mark.parametrize("integration", ["none", "context"])
    def test_one_call_on_shared_parameters(self, tmp_path, monkeypatch, integration):
        cfg = self.config(tmp_path, integration=integration, refine=integration != "none")
        models, out, calls = self.recorded_run(cfg, monkeypatch)
        (p, windows), = calls
        assert p is models.lyra
        assert [win.target.county for win in windows] == models.test_counties
        for win in windows:
            solo = lyra_predict(models.lyra, models.stats, [win])[0]
            np.testing.assert_allclose(out.predictions[win.target.county], solo.prediction,
                                       rtol=1e-15, atol=0)
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

        def recording_fine_tune(p, sample_sets, *args, **kwargs):
            tuned = tr.fine_tune(p, sample_sets, *args, **kwargs)
            tunes.append((list(sample_sets), tuned))
            return tuned

        monkeypatch.setattr(pl, "fine_tune", recording_fine_tune)
        models, out, calls = self.recorded_run(cfg, monkeypatch)
        tuned = [c for c in models.test_counties if c not in out.fallbacks]
        assert len(tunes) == (1 if tuned else 0)
        assert len(calls) == (1 if tuned else 0) + (1 if out.fallbacks else 0)
        if tuned:
            (sets, stack), = tunes
            assert [s.query for s in sets] == tuned
            p, windows = calls[0]
            assert p is stack and p.store.copies == len(tuned)
            assert [win.target.county for win in windows] == tuned
            for k, win in enumerate(windows):
                solo = lyra_predict(stack.member(k), models.stats, [win])[0]
                np.testing.assert_allclose(out.predictions[win.target.county],
                                           solo.prediction, rtol=1e-12, atol=0)
        if out.fallbacks:
            p, windows = calls[-1]
            assert p is models.lyra
            assert [win.target.county for win in windows] == sorted(out.fallbacks)

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
        n = len(cfg.seeds) * cfg.synthetic.n_counties
        assert counts == {"retrieve": n, "refine": 2 * n}

    def test_shared_results_match_fresh_ones(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=None)
        ds, adjacency = pl.load(cfg)
        models = pl.train_models(cfg, ds, 0)
        shared = pl.retrieval_context(cfg, models, adjacency)
        county = models.test_counties[2]
        for refine in (True, False, True):
            sub = replace(cfg, refine=refine)
            got = pl.retrieve_refine(sub, models, shared, county)
            fresh = pl.retrieve_refine(sub, models,
                                       pl.retrieval_context(sub, models, adjacency), county)
            assert got[0].samples == fresh[0].samples
            assert [e.label_refined for e in got[1].entries] == \
                [e.label_refined for e in fresh[1].entries]
        assert len(shared.retrieved) == 1 and len(shared.refined) == 2


class TestRefinementSetupCalls:
    """Bias matrices cost one regressor call per row, not one per cell."""

    def test_one_predict_per_county_and_regressor_year(self, tmp_path, monkeypatch):
        synth = replace(synth_cfg(), n_counties=24, n_years=12)
        cfg = base_config(tmp_path, out_dir=None, synthetic=synth, test_year=2011,
                          train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=1, seed=0,
                                               fine_tune_lr=1e-3, fine_tune_epochs=1))
        ds, adjacency = pl.load(cfg)
        models = pl.train_models(cfg, ds, 0)
        calls = []
        original = rf.YearRegressor.predict

        def counting(self, Z):
            calls.append(self.year)
            return original(self, Z)

        monkeypatch.setattr(rf.YearRegressor, "predict", counting)
        ctx = pl.retrieval_context(cfg, models, adjacency)
        train_n = models.train_n
        rows = sum(len(set(ctx.regressors) & set(train_n.county_years(c)))
                   for c in train_n.counties)
        assert len(train_n.counties) == 24 and rows == 264
        assert 0 < len(calls) <= rows


def reference_extrapolate_bias(bm, source_year, target_year):
    """extrapolate_bias as it was before row lines were cached: one fit per call."""
    if source_year not in bm.years:
        raise ContractError(f"county {bm.county}: year {source_year} not in bias matrix")
    si = bm.years.index(source_year)
    mask = bm.valid[si]
    xs = np.asarray(bm.years, dtype=np.float64)[mask]
    ys = bm.B[si][mask]
    if xs.size == 0:
        return rf.BiasEstimate(0.0, "zero")
    if xs.size == 1:
        return rf.BiasEstimate(float(ys[0]), "row_mean")
    # center the year axis before the polynomial fit for conditioning
    x0 = xs.mean()
    slope, intercept = np.polyfit(xs - x0, ys, 1)
    return rf.BiasEstimate(float(intercept + slope * (target_year - x0)), "ols")


class TestExtrapolationFits:
    """Each (county, source year) bias row is fitted once and keeps its bits."""

    def test_cached_lines_match_per_call_fits(self):
        rng = np.random.default_rng(7)
        years = [2000, 2001, 2003, 2004, 2007, 2008]
        for _ in range(50):
            B = rng.standard_normal((6, 6)) * 3.0
            valid = rng.random((6, 6)) < 0.7
            bm = rf.BiasMatrix("c", years, B, valid)
            for target in (2009, 2010, 2009, 2015):
                for s in years:
                    got, want = (rf.extrapolate_bias(bm, s, target),
                                 reference_extrapolate_bias(bm, s, target))
                    assert (got.value.hex(), got.method) == (want.value.hex(), want.method)

    def test_one_polyfit_per_row_and_refined_csv_unchanged(self, tmp_path, monkeypatch):
        synth = replace(synth_cfg(), n_counties=24, n_years=12)
        train = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=1, seed=0,
                               fine_tune_lr=1e-3, fine_tune_epochs=1)
        fits = []
        polyfit = np.polyfit

        def counting(x, y, deg):
            fits.append(deg)
            return polyfit(x, y, deg)

        def run(name):
            out = tmp_path / name
            pl.run_experiment(base_config(tmp_path, synthetic=synth, test_year=2011,
                                          train=train, out_dir=str(out)))
            return (out / "refined.csv").read_bytes()

        monkeypatch.setattr(np, "polyfit", counting)
        cached = run("cached")
        lines = [line.split(",") for line in cached.decode().splitlines()[1:]]
        fitted = [(f[1], f[2]) for f in lines if f[-1] == "ols"]
        assert len(fitted) > len(set(fitted)) > 0  # samples share rows
        assert 0 < len(fits) <= len(set(fitted))
        monkeypatch.setattr(rf, "extrapolate_bias", reference_extrapolate_bias)
        assert run("per_sample") == cached
