"""Training tests: optimizer semantics, global/backbone training loops,
window-sample construction, per-county fine-tuning (checked against the
per-county loop it replaced), and step memory."""

import gc
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from ratar import numcore as nc
from ratar import refinement as rf
from ratar import training as tr
from ratar.backbone import (
    GruParams,
    LyraDims,
    LyraParams,
    embed_batch,
    global_forward,
    lookback_window,
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


def adam_oracle_step(values, m, v2, grads, t, lr, clip, b1=0.9, b2=0.999, eps=1e-8):
    """One reference step, parameter by parameter, on dicts of arrays.

    Rebinds the entries of values, m and v2; returns whether the global
    gradient norm exceeded clip.
    """
    norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    scale = clip / norm if norm > clip else 1.0
    for k in values:
        g = grads[k] * scale
        m[k] = b1 * m[k] + (1 - b1) * g
        v2[k] = b2 * v2[k] + (1 - b2) * g * g
        mhat = m[k] / (1 - b1 ** t)
        vhat = v2[k] / (1 - b2 ** t)
        values[k] = values[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return norm > clip


def adam_oracle(values, grads_per_step, lr, clip, b1=0.9, b2=0.999, eps=1e-8):
    """Reference optimizer trajectory written independently of the library."""
    values = {k: v.astype(float).copy() for k, v in values.items()}
    m = {k: np.zeros_like(v) for k, v in values.items()}
    v2 = {k: np.zeros_like(v) for k, v in values.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        adam_oracle_step(values, m, v2, grads, t, lr, clip, b1, b2, eps)
    return values


class OracleAdam:
    """adam_oracle_step as a drop-in for tr.Adam: per-parameter, written back by name."""

    instances = []

    def __init__(self, store, lr, clip_norm=5.0):
        self.store, self.lr, self.clip = store, lr, clip_norm
        self.m = {n: np.zeros_like(store.value(n)) for n in store.names()}
        self.v = {n: np.zeros_like(store.value(n)) for n in store.names()}
        self.t = self.clipped = 0
        OracleAdam.instances.append(self)

    def step(self):
        self.t += 1
        values = {n: self.store.value(n).copy() for n in self.store.names()}
        grads = {n: self.store.grad(n).copy() for n in self.store.names()}
        self.clipped += adam_oracle_step(values, self.m, self.v, grads, self.t,
                                         self.lr, self.clip)
        for name, value in values.items():
            self.store.set_value(name, value)


class TestAdam:
    def make_store(self):
        return ParamStore({"a": np.array([1.0, -2.0, 3.0]), "b": np.array([[0.5, 0.5]])})

    def inject(self, store, grads):
        store.zero_grad()
        for name, g in grads.items():
            store.grad(name)[...] += g

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
        flat, m, v = store.flat, opt._m, opt._v
        assert m.shape == v.shape == flat.shape == (5,)
        views = {n: store.value(n) for n in store.names()}
        rng = np.random.default_rng(1)
        grad_seq = []
        for _ in range(5):
            grads = {"a": 2.0 * rng.standard_normal(3), "b": rng.standard_normal((1, 2))}
            grad_seq.append(grads)
            self.inject(store, grads)
            opt.step()
            assert store.flat is flat and opt._m is m and opt._v is v
            assert all(store.value(n) is view for n, view in views.items())
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


class TestStackedAdam:
    """A [K x n] Adam moves each row exactly as an Adam of its own would."""

    def test_rows_match_independent_optimizers_bitwise(self):
        rng = np.random.default_rng(5)
        K = 4
        plain = [ParamStore({"a": rng.standard_normal(3), "b": rng.standard_normal((2, 2))})
                 for _ in range(K)]
        stacked = ParamStore({name: np.stack([st.value(name) for st in plain])
                              for name in plain[0].names()}, copies=K)
        solo = [tr.Adam(st, lr=0.05, clip_norm=1.0) for st in plain]
        opt = tr.Adam(stacked, lr=0.05, clip_norm=1.0)
        clipped = set()
        for _ in range(6):
            stacked.zero_grad()
            for k, st in enumerate(plain):
                st.zero_grad()
                scale = 10.0 ** (k - 2)  # rows 0 and 1 below the clip, 2 and 3 above
                for name in st.names():
                    g = scale * rng.standard_normal(st.value(name).shape)
                    st.grad(name)[...] = g
                    stacked.grad(name)[k] = g
                if np.sqrt((st.flat_grad ** 2).sum()) > 1.0:
                    clipped.add(k)
                solo[k].step()
            opt.step()
        assert clipped == {2, 3}
        for k, st in enumerate(plain):
            np.testing.assert_array_equal(stacked.flat[k], st.flat)
            np.testing.assert_array_equal(opt._m[k], solo[k]._m)
            np.testing.assert_array_equal(opt._v[k], solo[k]._v)


class TestFlatAdamMatchesPerParameter:
    """Training through the flat Adam equals the per-parameter reference bitwise."""

    def run_both(self, monkeypatch, train_fn):
        real = train_fn()
        OracleAdam.instances = []
        monkeypatch.setattr(tr, "Adam", OracleAdam)
        oracle = train_fn()
        monkeypatch.undo()
        assert OracleAdam.instances
        steps = sum(opt.t for opt in OracleAdam.instances)
        clipped = sum(opt.clipped for opt in OracleAdam.instances)
        assert 0 < clipped, f"clipping never fired in {steps} steps"
        assert real.store.names() == oracle.store.names()
        np.testing.assert_array_equal(real.store.flat, oracle.store.flat)

    def test_train_global(self, monkeypatch):
        ds = small_synth()
        cfg = tr.TrainConfig(lr=3e-2, batch_size=16, epochs=6, seed=3, clip_norm=0.05)
        self.run_both(monkeypatch, lambda: tr.train_global(ds, cfg, H=5, readout_hidden=3)[0])

    @pytest.mark.parametrize("freeze", [False, True])
    def test_fine_tune(self, monkeypatch, freeze):
        ds = small_synth()
        base = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=10, seed=0)
        f, _ = tr.train_global(ds, base, H=6, readout_hidden=0)
        labels = model_labels(f, ds.records)
        params, _ = tr.train_lyra(ds, 2, base, dims=tiny_dims(), target_labels=labels)
        county = ds.counties[0]
        entries = [rf.RefinedSample(ds.get(county, y), ds.get(county, y).yield_label, 2.0,
                                    ds.get(county, y).yield_label + 2.0, True, "ols")
                   for y in ds.years[-3:]]
        refined = rf.RefinedSampleSet(query="qq", target_year=ds.years[-1] + 1, sigma=0.0,
                                      entries=entries)
        cfg = tr.TrainConfig(fine_tune_lr=1e-2, fine_tune_epochs=8, clip_norm=0.05,
                             freeze_encoder=freeze)
        self.run_both(monkeypatch, lambda: tr.fine_tune(
            params, refined, ds, cfg, target_labels=labels, stats=identity_stats(4)))


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

    def test_one_gru_scratch_per_training_loop(self, monkeypatch):
        # minibatches of 20, 20 and 8: every step reuses the loop's BPTT
        # buffers, which are gone once training returns
        made = []
        init = nc._Scratch.__init__

        def counting(scratch):
            made.append(scratch)
            init(scratch)

        monkeypatch.setattr(nc._Scratch, "__init__", counting)
        cfg = tr.TrainConfig(lr=3e-3, batch_size=20, epochs=3, seed=1)
        tr.train_global(self.ds, cfg, H=6, readout_hidden=0)
        assert len(self.ds) == 48 and len(made) == 1
        assert nc._SCRATCH.get() is None

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
        windows = [lookback_window(self.ds, e.record, e.record.yield_label, self.params.w)
                   for e in probe.entries]
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
        window = lookback_window(self.ds, rec, self.labels[rec.county, rec.year],
                                 self.params.w)
        before = lyra_predict(self.params, self.stats, [window])[0].prediction
        after = lyra_predict(tuned, self.stats, [window])[0].prediction
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


def reference_fine_tune(p, sample_set, train, cfg, target_labels, stats=None):
    """The per-county fine-tune loop that the stacked `tr.fine_tune` replaced.

    Kept verbatim as the stacked path's oracle: one county's copy, one
    tape per epoch.
    """
    cfg.validate()
    tuned = p.copy()
    if not sample_set.entries:
        warnings.warn(f"empty fine-tune sample set for query {sample_set.query}")
        return tuned
    windows, targets = [], []  # targets: normalized refined labels
    for entry in sample_set.entries:
        rec = train.get(entry.record.county, entry.record.year)
        if train.county_years(rec.county)[0] == rec.year:
            warnings.warn(
                f"retrieved sample ({rec.county},{rec.year}) has no history; skipped"
            )
            continue
        windows.append(lookback_window(train, rec, target_labels[rec.county, rec.year],
                                       tuned.w))
        refined = entry.label_refined
        targets.append(stats.normalize_label(refined) if stats is not None else refined)
    if not windows or cfg.fine_tune_epochs == 0:
        return tuned

    xs, triples, samples = window_table(tuned, windows)
    targets = np.array(targets, dtype=np.float64)

    pooled_const = None
    if cfg.freeze_encoder:
        _, pooled, _ = embed_batch(None, tuned, xs, triples)
        pooled_const = pooled.data

    opt = tr.Adam(tuned.store, cfg.fine_tune_lr, cfg.clip_norm)

    def epoch_fn(idx):
        loss = tr._mse_step(
            tuned.store, opt,
            lambda tape: lyra_forward(tape, tuned, xs, triples, samples,
                                      pooled_const=pooled_const)[0],
            targets)
        return loss, idx.size

    tr._run_epochs(len(windows), cfg.fine_tune_epochs, epoch_fn)
    return tuned


class ClipRecordingAdam(tr.Adam):
    """tr.Adam that records, per step, whether the gradient norm exceeded the clip."""

    clipped = []

    def step(self):
        norm = np.sqrt((self._store.flat_grad ** 2).sum())
        ClipRecordingAdam.clipped.append(bool(norm > self._clip))
        super().step()


class TestStackedFineTune:
    """One `fine_tune` over many sets equals the per-county loop, set by set."""

    def setup_method(self):
        raw = small_synth(seed=4)
        self.stats = zscore_fit(raw)
        self.ds = zscore_apply(raw, self.stats)
        cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=20, seed=0)
        f, _ = tr.train_global(self.ds, cfg, H=6, readout_hidden=0)
        self.labels = model_labels(f, self.ds.records)
        self.params, _ = tr.train_lyra(self.ds, 2, cfg, dims=tiny_dims(),
                                       target_labels=self.labels)

    def entry(self, county, year, shift):
        rec = self.ds.get(county, year)
        label = self.stats.denormalize_label(rec.yield_label)
        return rf.RefinedSample(rec, label, shift, label + shift, True, "ols")

    def sample_set(self, k, entries):
        return rf.RefinedSampleSet(query=f"q{k}", target_year=self.ds.years[-1] + 1,
                                   sigma=0.0, entries=entries)

    def random_sets(self, seed, n=6):
        """Sets of 1-4 entries from random counties, so window counts differ.

        Odd sets get label shifts ten times larger than even ones, so
        their gradients are larger.
        """
        rng = np.random.default_rng(seed)
        sets = []
        for k in range(n):
            county = self.ds.counties[rng.integers(len(self.ds.counties))]
            years = rng.choice(self.ds.years[1:], size=rng.integers(1, 5), replace=False)
            spread = 3.0 if k % 2 else 0.3
            sets.append(self.sample_set(k, [self.entry(county, int(y),
                                                       float(rng.normal(0, spread)))
                                            for y in sorted(years)]))
        return sets

    def compare(self, monkeypatch, sets, cfg):
        """Check the stacked run against the reference.

        Returns the stacked parameters and, per set, the reference run's
        clip record.
        """
        refs, clipped = [], []
        with monkeypatch.context() as m:
            m.setattr(tr, "Adam", ClipRecordingAdam)
            for sample_set in sets:
                ClipRecordingAdam.clipped = []
                refs.append(reference_fine_tune(self.params, sample_set, self.ds, cfg,
                                                self.labels, self.stats))
                clipped.append(ClipRecordingAdam.clipped)
        before = self.params.store.flat.copy()
        stack = tr.fine_tune(self.params, sets, self.ds, cfg, self.labels, self.stats)
        np.testing.assert_array_equal(self.params.store.flat, before)
        assert stack.store.copies == len(sets)

        counties = self.ds.counties[:len(sets)]
        year = self.ds.years[-1]
        windows = [lookback_window(self.ds, self.ds.get(c, year), self.labels[c, year],
                                   self.params.w) for c in counties]
        got = np.array([r.prediction for r in lyra_predict(stack, self.stats, windows)])
        want = np.array([lyra_predict(ref, self.stats, [win])[0].prediction
                         for ref, win in zip(refs, windows)])
        for name in self.params.store.names():
            tuned = stack.store.value(name)
            ref_values = np.stack([ref.store.value(name) for ref in refs])
            if name == "attn.out.b":
                # Softmax ignores a shift of all scores, so this bias's true
                # gradient is 0: its computed gradient is rounding noise, which
                # padding reorders and Adam scales up by about 1/eps.  It moves
                # by ~1e-11 and cannot change a prediction.
                np.testing.assert_allclose(tuned, ref_values, rtol=0, atol=1e-10)
            else:
                np.testing.assert_allclose(tuned, ref_values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        ref_flat = np.stack([ref.store.flat for ref in refs])
        print(f"stacked fine-tune vs per-county loop: "
              f"{(stack.store.flat == ref_flat).mean():.4f} of parameters and "
              f"{(got == want).mean():.4f} of predictions bit-equal")
        return stack, clipped

    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_ragged_sets_match_reference(self, monkeypatch, freeze, seed):
        sets = self.random_sets(seed)
        assert len({len(s.entries) for s in sets}) > 1, "sets must need padding"
        cfg = tr.TrainConfig(fine_tune_lr=1e-2, fine_tune_epochs=6, clip_norm=5.0,
                             freeze_encoder=freeze)
        _, clipped = self.compare(monkeypatch, sets, cfg)
        assert any(any(c) for c in clipped) and any(not any(c) for c in clipped), \
            "clipping must fire in some sets and not in others"

    def test_empty_and_skipped_sets_stay_unchanged(self, monkeypatch):
        sets = self.random_sets(9, n=4)
        first = self.ds.years[0]
        sets.insert(1, self.sample_set(10, []))
        sets.insert(3, self.sample_set(11, [self.entry(c, first, 1.0)
                                            for c in self.ds.counties[:2]]))
        cfg = tr.TrainConfig(fine_tune_lr=1e-2, fine_tune_epochs=4)
        with pytest.warns(UserWarning) as record:
            stack, _ = self.compare(monkeypatch, sets, cfg)
        messages = [str(w.message) for w in record]
        assert any("empty" in m for m in messages) and any("history" in m for m in messages)
        for k in (1, 3):
            np.testing.assert_array_equal(stack.store.flat[k], self.params.store.flat)

    def test_zero_epochs_leaves_every_copy_unchanged(self, monkeypatch):
        sets = self.random_sets(11, n=3)
        cfg = tr.TrainConfig(fine_tune_epochs=0)
        stack, _ = self.compare(monkeypatch, sets, cfg)
        for k in range(3):
            np.testing.assert_array_equal(stack.store.flat[k], self.params.store.flat)

    def test_duplicate_entries_match_reference(self, monkeypatch):
        sets = self.random_sets(12, n=3)
        county, year = self.ds.counties[3], self.ds.years[-1]
        sets.append(self.sample_set(3, [self.entry(county, year, shift)
                                        for shift in (-2.0, 2.0, 2.0)]))
        cfg = tr.TrainConfig(fine_tune_lr=1e-2, fine_tune_epochs=4)
        self.compare(monkeypatch, sets, cfg)

    def test_single_set_gives_plain_parameters(self):
        sample_set = self.random_sets(13, n=1)[0]
        cfg = tr.TrainConfig(fine_tune_lr=1e-2, fine_tune_epochs=3)
        solo = tr.fine_tune(self.params, sample_set, self.ds, cfg, self.labels, self.stats)
        stack = tr.fine_tune(self.params, [sample_set], self.ds, cfg, self.labels, self.stats)
        assert solo.store.copies is None and stack.store.copies == 1
        np.testing.assert_array_equal(solo.store.flat, stack.store.flat[0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reported_with_epoch(self):
        cfg = tr.TrainConfig(fine_tune_lr=1e200, fine_tune_epochs=5)
        with pytest.raises(tr.TrainingError, match="epoch"):
            tr.fine_tune(self.params, self.random_sets(14, n=3), self.ds, cfg,
                         self.labels, self.stats)


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
