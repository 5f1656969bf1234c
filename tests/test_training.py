"""Training tests: optimizer semantics, global/backbone training loops,
window-sample construction, per-county fine-tuning, and step memory."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from ratar import refinement as rf
from ratar import training as tr
from ratar.backbone import (
    GruParams,
    LyraDims,
    LyraParams,
    LyraWindow,
    global_forward,
    lyra_forward,
    lyra_predict,
    model_labels,
    window_table,
)
from ratar.data import (
    CountyYearRecord,
    Dataset,
    NormStats,
    SyntheticConfig,
    generate_synthetic,
    label_audit,
    zscore_apply,
    zscore_fit,
)
from ratar.numcore import ContractError, ParamStore


def identity_stats(d):
    return NormStats(np.zeros(d), np.ones(d), 0.0, 1.0)


def small_synth(seed=0, n_counties=8, n_years=6, T=8, d=4):
    cfg = SyntheticConfig(n_counties=n_counties, n_years=n_years, T=T, d=d,
                          n_hidden_clusters=2, year_bias_slope=0.1,
                          year_shock_std=0.2, obs_noise_std=0.1, seed=seed)
    ds, _ = generate_synthetic(cfg)
    return ds


def observed_labels(ds):
    """Each record's own label, keyed (county, year), as a target-label table."""
    return {(r.county, r.year): r.yield_label for r in ds.records}


def store_arrays(store):
    return {name: store.value(name).copy() for name in store.names()}


def stores_equal(a, b):
    names = sorted(a.names())
    if names != sorted(b.names()):
        return False
    return all(np.array_equal(a.value(n), b.value(n)) for n in names)


class TestTrainConfig:
    def test_defaults(self):
        cfg = tr.TrainConfig()
        assert cfg.lr == 1e-3 and cfg.batch_size == 32 and cfg.epochs == 100
        assert cfg.clip_norm == 5.0
        assert cfg.fine_tune_lr == 1e-4 and cfg.fine_tune_epochs == 20

    def test_invalid_rejected(self):
        with pytest.raises(ContractError):
            tr.TrainConfig(lr=0.0).validate()
        with pytest.raises(ContractError):
            tr.TrainConfig(epochs=0).validate()
        with pytest.raises(ContractError):
            tr.TrainConfig(fine_tune_lr=-1.0).validate()


def adam_oracle(values, grads_per_step, lr, clip, b1=0.9, b2=0.999, eps=1e-8):
    """Reference optimizer trajectory written independently of the library."""
    values = {k: v.astype(float).copy() for k, v in values.items()}
    m = {k: np.zeros_like(v) for k, v in values.items()}
    v2 = {k: np.zeros_like(v) for k, v in values.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        scale = clip / norm if norm > clip else 1.0
        for k in values:
            g = grads[k] * scale
            m[k] = b1 * m[k] + (1 - b1) * g
            v2[k] = b2 * v2[k] + (1 - b2) * g * g
            mhat = m[k] / (1 - b1 ** t)
            vhat = v2[k] / (1 - b2 ** t)
            values[k] = values[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return values


class TestAdam:
    def make_store(self):
        store = ParamStore()
        store.add("a", np.array([1.0, -2.0, 3.0]))
        store.add("b", np.array([[0.5, 0.5]]))
        return store

    def inject(self, store, grads):
        store.zero_grad()
        for name, g in grads.items():
            store._grads[name] += g

    def test_matches_reference_trajectory(self):
        store = self.make_store()
        start = store_arrays(store)
        opt = tr.Adam(store, lr=0.05, clip_norm=5.0)
        rng = np.random.default_rng(0)
        grad_seq = []
        for _ in range(4):
            grads = {"a": rng.standard_normal(3), "b": rng.standard_normal((1, 2))}
            grad_seq.append(grads)
            self.inject(store, grads)
            opt.step()
        want = adam_oracle(start, grad_seq, lr=0.05, clip=5.0)
        for name in start:
            np.testing.assert_allclose(store.value(name), want[name], atol=1e-12)

    def test_updates_in_place_bitwise(self):
        store = self.make_store()
        start = store_arrays(store)
        opt = tr.Adam(store, lr=0.05, clip_norm=1.0)
        arrays = {n: (store.value(n), opt._m[n], opt._v[n]) for n in store.names()}
        rng = np.random.default_rng(1)
        grad_seq = []
        for _ in range(5):
            grads = {"a": 2.0 * rng.standard_normal(3), "b": rng.standard_normal((1, 2))}
            grad_seq.append(grads)
            self.inject(store, grads)
            opt.step()
            for n, (value, m, v) in arrays.items():
                assert store.value(n) is value and opt._m[n] is m and opt._v[n] is v
        want = adam_oracle(start, grad_seq, lr=0.05, clip=1.0)
        for name in start:
            np.testing.assert_array_equal(store.value(name), want[name])

    def test_clip_applied(self):
        store = self.make_store()
        start = store_arrays(store)
        opt = tr.Adam(store, lr=0.1, clip_norm=1.0)
        grads = {"a": np.array([100.0, 0.0, 0.0]), "b": np.zeros((1, 2))}
        self.inject(store, grads)
        opt.step()
        want = adam_oracle(start, [grads], lr=0.1, clip=1.0)
        for name in start:
            np.testing.assert_allclose(store.value(name), want[name], atol=1e-12)

    def test_zero_grad_is_identity(self):
        store = self.make_store()
        start = store_arrays(store)
        opt = tr.Adam(store, lr=0.1, clip_norm=5.0)
        store.zero_grad()
        opt.step()
        for name in start:
            assert np.array_equal(store.value(name), start[name])

    def test_invalid_lr(self):
        with pytest.raises(ContractError):
            tr.Adam(self.make_store(), lr=0.0, clip_norm=5.0)


class TestTrainGlobal:
    def setup_method(self):
        self.ds = small_synth()
        self.cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=40, seed=0)

    def test_loss_trace(self):
        params, report = tr.train_global(self.ds, self.cfg, H=6, readout_hidden=0)
        assert len(report.losses) == 40
        assert np.all(np.isfinite(report.losses))
        assert report.losses[-1] <= report.losses[0]
        assert report.seconds > 0
        assert report.n_samples == len(self.ds)

    def test_seed_determinism_bitwise(self):
        p1, r1 = tr.train_global(self.ds, self.cfg, H=6, readout_hidden=0)
        p2, r2 = tr.train_global(self.ds, self.cfg, H=6, readout_hidden=0)
        assert stores_equal(p1.store, p2.store)
        assert r1.losses == r2.losses

    def test_minibatch_runs_and_is_deterministic(self):
        cfg = tr.TrainConfig(lr=3e-3, batch_size=16, epochs=10, seed=1)
        p1, r1 = tr.train_global(self.ds, cfg, H=6, readout_hidden=0)
        p2, r2 = tr.train_global(self.ds, cfg, H=6, readout_hidden=0)
        assert stores_equal(p1.store, p2.store)
        assert r1.losses == r2.losses
        assert np.all(np.isfinite(r1.losses))

    def test_beats_mean_predictor(self):
        # trained in normalized space, where the mean predictor scores ~1.0
        stats = zscore_fit(self.ds)
        norm = zscore_apply(self.ds, stats)
        cfg = tr.TrainConfig(lr=5e-3, batch_size=None, epochs=150, seed=0)
        params, _ = tr.train_global(norm, cfg, H=8, readout_hidden=0)
        xs = np.stack([r.features for r in norm.records])
        ys = np.array([r.yield_label for r in norm.records])
        preds = global_forward(None, params, xs).data
        rmse_model = float(np.sqrt(np.mean((preds - ys) ** 2)))
        rmse_mean = float(np.sqrt(np.mean((ys - ys.mean()) ** 2)))
        assert rmse_model < rmse_mean

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reported_with_epoch(self):
        cfg = tr.TrainConfig(lr=1e200, batch_size=None, epochs=30, seed=0)
        with pytest.raises(tr.TrainingError, match="epoch"):
            tr.train_global(self.ds, cfg, H=6, readout_hidden=0)

    def test_unlabeled_train_rejected(self):
        recs = list(self.ds.records)
        recs.append(CountyYearRecord("zz", 2000, np.zeros((8, 4)), None))
        with pytest.raises(ContractError):
            tr.train_global(Dataset(recs), self.cfg, H=6, readout_hidden=0)


class TestTrainGruAtt:
    def test_runs_and_decreases(self):
        ds = small_synth()
        cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=30, seed=0)
        params, report = tr.train_gru_att(ds, cfg, H=6, attn_hidden=4, head_hidden=0)
        assert report.losses[-1] <= report.losses[0]
        assert np.all(np.isfinite(report.losses))


class TestLyraSampleSpecs:
    @staticmethod
    def windows(ds, w):
        return tr.training_windows(ds, w, {(r.county, r.year): 0.0 for r in ds.records})

    def test_window_truncation(self):
        recs = []
        for y in range(2000, 2006):
            recs.append(CountyYearRecord("aa", y, np.zeros((3, 2)), 1.0))
        ds = Dataset(recs)
        windows = self.windows(ds, w=3)
        by_target = {win.target.year: [rec.year for rec, _ in win.context] for win in windows}
        assert by_target[2001] == [2000]
        assert by_target[2002] == [2000, 2001]
        assert by_target[2004] == [2001, 2002, 2003]
        assert len(windows) == 5

    def test_two_year_county_single_sample(self):
        recs = [CountyYearRecord("aa", 2000, np.zeros((3, 2)), 1.0),
                CountyYearRecord("aa", 2001, np.zeros((3, 2)), 2.0)]
        windows = tr.training_windows(Dataset(recs), 5, {("aa", 2000): 0.5, ("aa", 2001): 0.25})
        assert len(windows) == 1
        win = windows[0]
        assert win.target.year == 2001 and win.label == 0.25
        assert [(rec.year, label) for rec, label in win.context] == [(2000, 1.0)]

    def test_single_year_county_contributes_nothing(self):
        recs = [CountyYearRecord("aa", 2000, np.zeros((3, 2)), 1.0),
                CountyYearRecord("bb", 2000, np.zeros((3, 2)), 1.0),
                CountyYearRecord("bb", 2001, np.zeros((3, 2)), 2.0)]
        windows = self.windows(Dataset(recs), w=2)
        assert [(win.target.county, win.target.year) for win in windows] == [("bb", 2001)]
        assert [(rec.county, rec.year) for rec, _ in windows[0].context] == [("bb", 2000)]


def tiny_dims():
    return LyraDims(d=4, H=5, Z=6, E=3, attn_hidden=0, mlp_hidden=0)


class TestTrainLyra:
    def setup_method(self):
        self.ds = small_synth()
        self.cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=25, seed=0)
        gcfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=30, seed=0)
        f, _ = tr.train_global(self.ds, gcfg, H=6, readout_hidden=0)
        self.labels = model_labels(f, self.ds.records)

    def test_w1_loss_decreases(self):
        params, report = tr.train_lyra(self.ds, 1, self.cfg, dims=tiny_dims(),
                                       target_labels=self.labels)
        assert report.losses[-1] <= report.losses[0]
        assert np.all(np.isfinite(report.losses))
        assert report.n_samples == 8 * 5

    def test_invalid_window(self):
        with pytest.raises(ContractError):
            tr.train_lyra(self.ds, 0, self.cfg, dims=tiny_dims(), target_labels=self.labels)

    def test_determinism(self):
        p1, r1 = tr.train_lyra(self.ds, 2, self.cfg, dims=tiny_dims(), target_labels=self.labels)
        p2, r2 = tr.train_lyra(self.ds, 2, self.cfg, dims=tiny_dims(), target_labels=self.labels)
        assert stores_equal(p1.store, p2.store)
        assert r1.losses == r2.losses

    def test_minibatch_deterministic(self):
        cfg = tr.TrainConfig(lr=3e-3, batch_size=8, epochs=5, seed=2)
        p1, r1 = tr.train_lyra(self.ds, 2, cfg, dims=tiny_dims(), target_labels=self.labels)
        p2, r2 = tr.train_lyra(self.ds, 2, cfg, dims=tiny_dims(), target_labels=self.labels)
        assert stores_equal(p1.store, p2.store)
        assert r1.losses == r2.losses

    def test_year_row_sync(self):
        test_year = self.ds.years[-1] + 1
        params, _ = tr.train_lyra(self.ds, 2, self.cfg, dims=tiny_dims(),
                                  year_max=test_year, target_labels=self.labels)
        table = params.store.value("year_table")
        assert np.array_equal(table[params.year_row(test_year)],
                              table[params.year_row(self.ds.years[-1])])

    def test_no_label_reads_outside_training_years(self):
        test_year = self.ds.years[-1] + 1
        label_audit.reset()
        with label_audit.guard(test_year):
            tr.train_lyra(self.ds, 2, self.cfg, dims=tiny_dims(), target_labels=self.labels)
        assert label_audit.violation_count() == 0


class TestFineTune:
    def setup_method(self):
        self.ds = small_synth()
        self.stats = identity_stats(4)
        cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=20, seed=0)
        f, _ = tr.train_global(self.ds, cfg, H=6, readout_hidden=0)
        self.labels = model_labels(f, self.ds.records)
        self.params, _ = tr.train_lyra(self.ds, 2, cfg, dims=tiny_dims(),
                                       target_labels=self.labels)
        self.county = self.ds.counties[0]

    def refined_set(self, shift=0.0, years=None, county=None):
        county = county or self.county
        years = years or self.ds.years[-2:]
        entries = []
        for y in years:
            rec = self.ds.get(county, y)
            entries.append(rf.RefinedSample(rec, rec.yield_label, shift,
                                            rec.yield_label + shift, True, "ols"))
        return rf.RefinedSampleSet(query="qq", target_year=self.ds.years[-1] + 1,
                                   sigma=0.0, entries=entries)

    def test_zero_epochs_identity(self):
        cfg = tr.TrainConfig(fine_tune_epochs=0)
        tuned = tr.fine_tune(self.params, self.refined_set(), self.ds, cfg,
                             target_labels=self.labels, stats=self.stats)
        assert tuned is not self.params
        assert stores_equal(tuned.store, self.params.store)

    def test_empty_set_warns_and_returns_copy(self):
        empty = rf.RefinedSampleSet(query="qq", target_year=2010, sigma=0.0, entries=[])
        cfg = tr.TrainConfig()
        with pytest.warns(UserWarning, match="empty"):
            tuned = tr.fine_tune(self.params, empty, self.ds, cfg,
                                 target_labels=self.labels, stats=self.stats)
        assert stores_equal(tuned.store, self.params.store)

    def test_global_params_never_mutated(self):
        before = store_arrays(self.params.store)
        cfg = tr.TrainConfig(fine_tune_lr=1e-3, fine_tune_epochs=5)
        tr.fine_tune(self.params, self.refined_set(shift=2.0), self.ds, cfg,
                     target_labels=self.labels, stats=self.stats)
        after = store_arrays(self.params.store)
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_zero_gradient_case(self):
        # supervision set to the model's own predictions -> exactly zero
        # gradients -> fine-tuning must leave the copy bitwise unchanged
        cfg = tr.TrainConfig(fine_tune_lr=1e-3, fine_tune_epochs=5)
        probe = self.refined_set(shift=0.0)
        windows = []
        for e in probe.entries:
            rec = e.record
            history = [self.ds.get(rec.county, y)
                       for y in self.ds.county_years(rec.county) if y < rec.year][-self.params.w:]
            windows.append(LyraWindow(rec, rec.yield_label,
                                      tuple((h, h.yield_label) for h in history)))
        preds = lyra_forward(None, self.params, *window_table(self.params, windows))[0].data
        entries = [
            rf.RefinedSample(e.record, e.label, 0.0,
                             self.stats.denormalize_label(preds[i]), True, "ols")
            for i, e in enumerate(probe.entries)
        ]
        refined = rf.RefinedSampleSet(query="qq", target_year=self.ds.years[-1] + 1,
                                      sigma=0.0, entries=entries)
        tuned = tr.fine_tune(self.params, refined, self.ds, cfg,
                             target_labels=observed_labels(self.ds), stats=self.stats)
        assert stores_equal(tuned.store, self.params.store)

    def test_moves_toward_refined_labels(self):
        cfg = tr.TrainConfig(fine_tune_lr=5e-3, fine_tune_epochs=30)
        refined = self.refined_set(shift=3.0)
        tuned = tr.fine_tune(self.params, refined, self.ds, cfg,
                             target_labels=observed_labels(self.ds), stats=self.stats)
        rec = refined.entries[-1].record
        history = [self.ds.get(rec.county, y)
                   for y in self.ds.county_years(rec.county) if y < rec.year]
        label = self.labels[rec.county, rec.year]
        before = lyra_predict(history, rec, self.params, self.stats, label).prediction
        after = lyra_predict(history, rec, tuned, self.stats, label).prediction
        target = refined.entries[-1].label_refined
        assert abs(after - target) < abs(before - target)

    def test_freeze_encoder_keeps_encoder_fixed(self):
        cfg = tr.TrainConfig(fine_tune_lr=1e-3, fine_tune_epochs=5,
                             freeze_encoder=True)
        tuned = tr.fine_tune(self.params, self.refined_set(shift=2.0), self.ds, cfg,
                             target_labels=self.labels, stats=self.stats)
        changed = [n for n in self.params.store.names()
                   if not np.array_equal(tuned.store.value(n), self.params.store.value(n))]
        assert changed, "fine-tuning with a label shift must move some parameters"
        assert not any(n.startswith(("gru.", "attn.")) for n in changed)

    def test_duplicate_entries_keep_own_targets(self, monkeypatch):
        """Two copies of one entry, refined to two labels, stay two samples."""
        rec = self.ds.get(self.county, self.ds.years[-1])
        entries = [rf.RefinedSample(rec, rec.yield_label, shift, rec.yield_label + shift,
                                    True, "ols") for shift in (-1.0, 1.0)]
        refined = rf.RefinedSampleSet(query="qq", target_year=self.ds.years[-1] + 1,
                                      sigma=0.0, entries=entries)
        tables = []

        def recording(p, windows):
            tables.append(window_table(p, windows))
            return tables[-1]

        monkeypatch.setattr(tr, "window_table", recording)
        cfg = tr.TrainConfig(fine_tune_lr=1e-3, fine_tune_epochs=1)
        tr.fine_tune(self.params, refined, self.ds, cfg, target_labels=self.labels,
                     stats=self.stats)
        (xs, (seq_rows, _, _), samples), = tables
        assert len(xs) == 1 + self.params.w and len(samples) == 2
        assert samples[0].target != samples[1].target
        assert seq_rows[samples[0].target] == seq_rows[samples[1].target]
        assert samples[0].history == samples[1].history

    def test_sample_without_history_skipped(self):
        rec = self.ds.get(self.county, self.ds.years[0])
        entries = [rf.RefinedSample(rec, rec.yield_label, 0.0, rec.yield_label, True, "ols")]
        refined = rf.RefinedSampleSet(query="qq", target_year=2010, sigma=0.0,
                                      entries=entries)
        cfg = tr.TrainConfig()
        with pytest.warns(UserWarning, match="history"):
            tuned = tr.fine_tune(self.params, refined, self.ds, cfg,
                                 target_labels=observed_labels(self.ds), stats=self.stats)
        assert stores_equal(tuned.store, self.params.store)


class TestStepMemory:
    """A step's tape and graph are freed by reference counting alone."""

    def forward_fn(self, model, train):
        if model == "global":
            p = GruParams.init(d=train.d, H=8, readout_hidden=0, seed=1)
            xs = np.stack([r.features for r in train.records])
            ys = np.array([r.yield_label for r in train.records])
            return p.store, (lambda tape: global_forward(tape, p, xs)), ys
        p = LyraParams.init(LyraDims(d=train.d, H=8, Z=8, E=4, attn_hidden=0, mlp_hidden=0),
                            w=5, year_min=train.years[0], year_max=train.years[-1], seed=1)
        windows = tr.training_windows(train, 5, observed_labels(train))
        xs, triples, samples = window_table(p, windows)  # histories of lengths 1..5
        ys = np.array([win.target.yield_label for win in windows])
        return p.store, (lambda tape: lyra_forward(tape, p, xs, triples, samples)[0]), ys

    @pytest.mark.parametrize("model", ["global", "lyra"])
    def test_live_memory_flat_without_gc(self, model):
        ds = small_synth(n_counties=8, n_years=7, T=20, d=4)
        train = zscore_apply(ds, zscore_fit(ds))
        store, forward, ys = self.forward_fn(model, train)
        opt = tr.Adam(store, 1e-3)
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            tr._mse_step(store, opt, forward, ys)  # first-call allocations
            base = tracemalloc.get_traced_memory()[0]
            for step in range(5):
                tr._mse_step(store, opt, forward, ys)
                grown = tracemalloc.get_traced_memory()[0] - base
                assert grown < 64 * 1024, f"step {step}: {grown} bytes still live"
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()


class TestReports:
    def test_csv_and_json(self, tmp_path):
        report = tr.TrainReport(losses=[1.5, 0.75, 0.5], seconds=2.25,
                                n_samples=12, checkpoint="ckpt/global.npz")
        csv_path = tmp_path / "trace.csv"
        json_path = tmp_path / "summary.json"
        tr.save_train_report(report, str(csv_path), str(json_path))
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "epoch,loss"
        assert lines[1] == "1,1.5" and len(lines) == 4
        blob = json.loads(json_path.read_text())
        assert blob["final_loss"] == 0.5
        assert blob["epochs"] == 3
        assert blob["seconds"] == 2.25
        assert blob["checkpoint"] == "ckpt/global.npz"
