"""Training tests: optimizer semantics, global/backbone training loops,
window-sample construction, per-county fine-tuning (checked against the
per-county loop it replaced), and step memory."""

import functools
import gc
import json
import math
import operator
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from oracles import dataset_of
from ratar import backbone
from ratar import numcore as nc
from ratar import training as tr
from ratar.backbone import (
    GruParams,
    LyraDims,
    LyraParams,
    embed_batch,
    global_forward,
    lookback_windows,
    lyra_forward,
    lyra_predict,
    model_labels,
    window_table,
)
from ratar.data import (
    CountyYearRecord,
    NormStats,
    SyntheticConfig,
    generate_synthetic,
    split_by_test_year,
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
    """Each season's own label, per block row, as a target-label table."""
    table = np.full(len(ds.row_years), np.nan)
    table[ds.rows] = ds.labels()
    return table


def refined_sample(ds, county, year, shift):
    """A refined sample of one season of ds: its label, shifted by `shift`."""
    row = ds.row(county, year)
    label = ds.labels([row]).item()
    return oracles.Entry(row, label, shift, label + shift, True, "ols")


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


def left_fold(values):
    """The sum of floats added left to right from 0.0, as the builtin `sum`
    adds them before Python 3.12 (from 3.12 it compensates)."""
    return functools.reduce(operator.add, values, 0.0)


def adam_oracle_step(values, m, v2, grads, t, lr, clip, b1=0.9, b2=0.999, eps=1e-8):
    """One reference step, parameter by parameter, on dicts of arrays.

    Rebinds the entries of values, m and v2; returns whether the global
    gradient norm exceeded clip.
    """
    norm = np.sqrt(left_fold(float((g ** 2).sum()) for g in grads.values()))
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

    def test_clip_norm_is_a_left_fold(self):
        """Squared norms 1e16, 1 and 1 total 1e16 added left to right, but
        1e16 + 2 with compensation; the clip scale must come from the former
        on every Python."""
        grads = {"a": np.array([1e8]), "b": np.array([1.0]), "c": np.array([1.0])}
        squares = [float((g ** 2).sum()) for g in grads.values()]
        fold, compensated = np.sqrt(left_fold(squares)), np.sqrt(math.fsum(squares))
        g = np.concatenate(list(grads.values()))
        want = (1 - 0.9) * (g * (1.0 / fold))
        assert not np.array_equal(want, (1 - 0.9) * (g * (1.0 / compensated)))
        store = ParamStore({name: np.zeros(1) for name in grads})
        opt = tr.Adam(store, lr=0.1, clip_norm=1.0)
        self.inject(store, grads)
        opt.step()
        assert opt._m.tobytes() == want.tobytes()

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
        labels = model_labels(f, ds)
        params, _ = tr.train_lyra(ds, 2, base, dims=tiny_dims(), target_labels=labels)
        county = ds.counties[0]
        entries = [refined_sample(ds, county, y, 2.0) for y in ds.years[-3:]]
        refined = oracles.refined_set({"qq": entries}, ds.years[-1] + 1)
        cfg = tr.TrainConfig(fine_tune_lr=1e-2, fine_tune_epochs=8, clip_norm=0.05,
                             freeze_encoder=freeze)
        self.run_both(monkeypatch, lambda: oracles.member(tr.fine_tune(
            params, refined, ds, cfg, target_labels=labels,
            stats=identity_stats(4)), 0))


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
        ys = norm.labels()
        preds = global_forward(None, params, xs).data
        rmse_model = float(np.sqrt(np.mean((preds - ys) ** 2)))
        rmse_mean = float(np.sqrt(np.mean((ys - ys.mean()) ** 2)))
        assert rmse_model < rmse_mean

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reported_with_epoch(self):
        cfg = tr.TrainConfig(lr=1e200, batch_size=None, epochs=30, seed=0)
        with pytest.raises(tr.TrainingError, match="epoch"):
            tr.train_global(self.ds, cfg, H=6, readout_hidden=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_op_overflow_raises_at_the_loss(self):
        # Saturated gates make every state exactly 1, so the pooled states
        # times a readout weight of 1e308 overflow in the readout's matmul,
        # not in the GRU; the inf reaches the loss, whose check raises
        # before any backward pass or parameter write.
        params = GruParams.init(d=self.ds.d, H=6, readout_hidden=0, seed=0)
        for name, value in (("gru.b_u", 50.0), ("gru.b_c", 50.0), ("readout.out.W", 1e308)):
            params.store.set_value(name, np.full(params.store.value(name).shape, value))
        xs = np.take(self.ds.features, self.ds.rows, axis=0)
        assert np.isposinf(global_forward(None, params, xs).data).all()
        before = params.store.flat.copy()
        with pytest.raises(tr.TrainingError, match=r"diverged at epoch 1: non-finite loss$"):
            tr._fit_records(self.ds, self.cfg, lambda: params, global_forward)
        np.testing.assert_array_equal(params.store.flat, before)

    def test_unlabeled_train_rejected(self):
        recs = list(self.ds.records)
        recs.append(CountyYearRecord("zz", 2000, np.zeros((8, 4)), None))
        with pytest.raises(ContractError):
            tr.train_global(dataset_of(recs), self.cfg, H=6, readout_hidden=0)


class TestTrainGruAtt:
    def test_runs_and_decreases(self):
        ds = small_synth()
        cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=30, seed=0)
        params, report = tr.train_gru_att(ds, cfg, H=6, attn_hidden=4, head_hidden=0)
        assert report.losses[-1] <= report.losses[0]
        assert np.all(np.isfinite(report.losses))


class TestLyraSampleSpecs:
    """The windows `train_lyra` trains on: one per season with an earlier one."""

    @staticmethod
    def windows(ds, w, labels=None):
        labels = np.zeros(len(ds.row_years)) if labels is None else labels
        return oracles.window_list(oracles.train_lyra_windows(
            ds, w, tr.TrainConfig(batch_size=None, epochs=1), labels,
            dims=LyraDims(d=ds.d, H=2, Z=2, E=1, attn_hidden=0, mlp_hidden=0)))

    def test_window_truncation(self):
        recs = []
        for y in range(2000, 2006):
            recs.append(CountyYearRecord("aa", y, np.zeros((3, 2)), 1.0))
        ds = dataset_of(recs)
        windows = self.windows(ds, w=3)
        by_target = {ds.key(win.target)[1]: ds.row_years[win.context].tolist()
                     for win in windows}
        assert by_target[2001] == [2000]
        assert by_target[2002] == [2000, 2001]
        assert by_target[2004] == [2001, 2002, 2003]
        assert len(windows) == 5

    def test_two_year_county_single_sample(self):
        recs = [CountyYearRecord("aa", 2000, np.zeros((3, 2)), 1.0),
                CountyYearRecord("aa", 2001, np.zeros((3, 2)), 2.0)]
        ds = dataset_of(recs)
        windows = self.windows(ds, 5, np.array([0.5, 0.25]))
        assert len(windows) == 1
        win = windows[0]
        assert ds.key(win.target) == ("aa", 2001) and win.label == 0.25
        assert ds.row_years[win.context].tolist() == [2000]
        assert win.context_labels.tolist() == [1.0]

    def test_single_year_county_contributes_nothing(self):
        recs = [CountyYearRecord("aa", 2000, np.zeros((3, 2)), 1.0),
                CountyYearRecord("bb", 2000, np.zeros((3, 2)), 1.0),
                CountyYearRecord("bb", 2001, np.zeros((3, 2)), 2.0)]
        ds = dataset_of(recs)
        windows = self.windows(ds, w=2)
        assert [ds.key(win.target) for win in windows] == [("bb", 2001)]
        assert [ds.key(row) for row in windows[0].context] == [("bb", 2000)]


def tiny_dims():
    return LyraDims(d=4, H=5, Z=6, E=3, attn_hidden=0, mlp_hidden=0)


class TestTrainLyra:
    def setup_method(self):
        self.ds = small_synth()
        self.cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=25, seed=0)
        gcfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=30, seed=0)
        f, _ = tr.train_global(self.ds, gcfg, H=6, readout_hidden=0)
        self.labels = model_labels(f, self.ds)

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
        """Training on a split with no label from the held-out year on gives
        the bits that training on the fully labelled split gives."""
        test_year = self.ds.years[-1]
        trained = []
        for ds in (self.ds, self.ds.labels_before(test_year)):
            train, _ = split_by_test_year(ds, test_year)
            trained.append(tr.train_lyra(train, 2, self.cfg, dims=tiny_dims(),
                                         target_labels=self.labels))
        (p1, r1), (p2, r2) = trained
        assert stores_equal(p1.store, p2.store)
        assert r1.losses == r2.losses


def recorded_epochs(monkeypatch, train):
    """The (chunks, batches) of each `_run_epochs` call that train() makes:
    the chunks it was given and every batch it passed to epoch_fn."""
    calls = []
    driver = tr._run_epochs

    def recording(chunks, epochs, epoch_fn, batch_size=None, seed=0):
        batches = []
        calls.append((chunks, batches))

        def fn(idx):
            batches.append(np.array(idx))
            return epoch_fn(idx)

        return driver(chunks, epochs, fn, batch_size, seed)

    with monkeypatch.context() as m:
        m.setattr(tr, "_run_epochs", recording)
        train()
    return calls


def old_driver(monkeypatch):
    """Run training under the epoch driver as it was before chunks (oracles.run_epochs)."""
    monkeypatch.setattr(tr, "_run_epochs",
                        lambda chunks, *args: oracles.run_epochs(sum(map(len, chunks)), *args))


def ragged_synth():
    """small_synth's panel with county i keeping its last i % 7 + 1 seasons."""
    ds = small_synth(n_counties=9, n_years=10)
    return dataset_of([rec for rec in ds.records
                       if rec.year >= ds.years[-1] - ds.counties.index(rec.county) % 7])


class TestWindowChunks:
    """`train_lyra` shuffles each county's whole run of windows as one unit;
    the record models shuffle single records, exactly as before chunks."""

    def setup_method(self):
        self.ds = ragged_synth()
        self.labels = observed_labels(self.ds)

    def lyra(self, cfg, w=2):
        return tr.train_lyra(self.ds, w, cfg, dims=tiny_dims(), target_labels=self.labels)

    def test_chunks_are_whole_county_runs(self, monkeypatch):
        cfg = tr.TrainConfig(lr=3e-3, batch_size=5, epochs=1, seed=0)
        windows = oracles.window_list(
            oracles.train_lyra_windows(self.ds, 2, cfg, self.labels, dims=tiny_dims()))
        [(chunks, _)] = recorded_epochs(monkeypatch, lambda: self.lyra(cfg))
        county = [self.ds.key(win.target)[0] for win in windows]
        # one chunk per county with two or more seasons, in row order,
        # holding exactly that county's windows
        seasons = [(c, stop - start) for c, start, stop in self.ds.runs()]
        multi = [(c, n) for c, n in seasons if n > 1]
        assert len(multi) < len(seasons)  # some county has one season
        assert len(chunks) == len(multi)
        at = 0
        for (c, n), chunk in zip(multi, chunks):
            n -= 1  # every season but the county's first is a window's target
            assert np.array_equal(chunk, np.arange(at, at + n))
            assert {county[i] for i in chunk.tolist()} == {c}
            at += n
        assert at == len(windows)

    @pytest.mark.parametrize("batch_size", [3, 7, 64])
    def test_every_epoch_visits_each_window_once(self, monkeypatch, batch_size):
        cfg = tr.TrainConfig(lr=3e-3, batch_size=batch_size, epochs=3, seed=1)
        [(chunks, batches)] = recorded_epochs(monkeypatch, lambda: self.lyra(cfg))
        n = sum(chunk.size for chunk in chunks)
        per_epoch = -(-n // batch_size)
        assert len(batches) == 3 * per_epoch
        for e in range(3):
            epoch = batches[e * per_epoch:(e + 1) * per_epoch]
            assert all(b.size == min(batch_size, n) for b in epoch[:-1])
            order = np.concatenate(epoch)
            assert np.array_equal(np.sort(order), np.arange(n))
            # chunks stay whole and in their own order within the epoch
            starts = {int(chunk[0]): chunk for chunk in chunks}
            at = 0
            while at < n:
                chunk = starts[int(order[at])]
                assert np.array_equal(order[at:at + chunk.size], chunk)
                at += chunk.size

    @pytest.mark.parametrize("train", ["global", "gru_att"])
    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_record_models_keep_old_traces(self, monkeypatch, train, batch_size):
        cfg = tr.TrainConfig(lr=3e-3, batch_size=batch_size, epochs=4, seed=1)
        fit = {"global": lambda: tr.train_global(self.ds, cfg, H=6, readout_hidden=0),
               "gru_att": lambda: tr.train_gru_att(self.ds, cfg, H=6, attn_hidden=4,
                                                   head_hidden=0)}[train]
        params, report = fit()
        with monkeypatch.context() as m:
            old_driver(m)
            old_params, old_report = fit()
        assert [v.hex() for v in report.losses] == [v.hex() for v in old_report.losses]
        assert stores_equal(params.store, old_params.store)

    @pytest.mark.parametrize("batch_size", [None, 5])
    def test_single_window_chunks_are_the_old_shuffle(self, monkeypatch, batch_size):
        cfg = tr.TrainConfig(lr=3e-3, batch_size=batch_size, epochs=3, seed=2)
        driver = tr._run_epochs
        with monkeypatch.context() as m:
            # the same windows, each its own chunk
            m.setattr(tr, "_run_epochs", lambda chunks, *args: driver(
                list(np.concatenate(chunks)[:, None]), *args))
            params, report = self.lyra(cfg)
        with monkeypatch.context() as m:
            old_driver(m)
            old_params, old_report = self.lyra(cfg)
        assert [v.hex() for v in report.losses] == [v.hex() for v in old_report.losses]
        assert stores_equal(params.store, old_params.store)

    def test_each_season_encoded_about_once_per_epoch(self, monkeypatch):
        """One small-batch epoch GRU-encodes at most S + (batches - 1) * w
        seasons, S the seasons some window reads: a batch encodes each
        season it reads once, and a batch boundary cuts one county's run,
        whose two sides then both read at most w of its seasons."""
        ds = small_synth(n_years=10)  # 8 counties of 9 windows each
        labels = observed_labels(ds)
        w, batch_size = 2, 8
        cfg = tr.TrainConfig(lr=3e-3, batch_size=batch_size, epochs=1, seed=3)
        windows = oracles.train_lyra_windows(ds, w, cfg, labels, dims=tiny_dims())
        seasons = len(np.union1d(windows.targets, windows.context))
        batches = -(-len(windows) // batch_size)
        rows = []
        encode = backbone.gru_encode

        def counting(bound, xs):
            rows.append(len(xs))
            return encode(bound, xs)

        monkeypatch.setattr(backbone, "gru_encode", counting)
        tr.train_lyra(ds, w, cfg, dims=tiny_dims(), target_labels=labels)
        assert len(rows) == batches
        assert seasons < sum(rows) <= seasons + (batches - 1) * w


class TestFineTune:
    def setup_method(self):
        self.ds = small_synth()
        self.stats = identity_stats(4)
        cfg = tr.TrainConfig(lr=3e-3, batch_size=None, epochs=20, seed=0)
        f, _ = tr.train_global(self.ds, cfg, H=6, readout_hidden=0)
        self.labels = model_labels(f, self.ds)
        self.params, _ = tr.train_lyra(self.ds, 2, cfg, dims=tiny_dims(),
                                       target_labels=self.labels)
        self.county = self.ds.counties[0]

    def refined_set(self, shift=0.0, years=None, county=None):
        county = county or self.county
        years = years or self.ds.years[-2:]
        entries = [refined_sample(self.ds, county, y, shift) for y in years]
        return oracles.refined_set({"qq": entries}, self.ds.years[-1] + 1)

    def test_zero_epochs_identity(self):
        cfg = tr.TrainConfig(fine_tune_epochs=0)
        tuned = oracles.member(tr.fine_tune(self.params, self.refined_set(), self.ds, cfg,
                                            target_labels=self.labels, stats=self.stats), 0)
        assert tuned is not self.params
        assert stores_equal(tuned.store, self.params.store)

    def test_empty_set_warns_and_returns_copy(self):
        empty = oracles.refined_set({"qq": []}, 2010)
        cfg = tr.TrainConfig()
        with pytest.warns(UserWarning, match="empty"):
            tuned = oracles.member(tr.fine_tune(self.params, empty, self.ds, cfg,
                                                target_labels=self.labels, stats=self.stats), 0)
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
        probe = oracles.entries(self.refined_set(shift=0.0))
        rows = [e.record for e in probe]
        windows = lookback_windows(self.ds, rows, observed_labels(self.ds), self.params.w)
        preds = lyra_forward(None, self.params,
                             *window_table(self.params, self.ds, windows))[0].data
        entries = [e._replace(bias_hat=0.0, label_refined=self.stats.denormalize_label(preds[i]))
                   for i, e in enumerate(probe)]
        refined = oracles.refined_set({"qq": entries}, self.ds.years[-1] + 1)
        tuned = oracles.member(tr.fine_tune(self.params, refined, self.ds, cfg,
                                            target_labels=observed_labels(self.ds),
                                            stats=self.stats), 0)
        assert stores_equal(tuned.store, self.params.store)

    def test_moves_toward_refined_labels(self):
        cfg = tr.TrainConfig(fine_tune_lr=5e-3, fine_tune_epochs=30)
        refined = self.refined_set(shift=3.0)
        tuned = oracles.member(tr.fine_tune(self.params, refined, self.ds, cfg,
                                            target_labels=observed_labels(self.ds),
                                            stats=self.stats), 0)
        row = oracles.entries(refined)[-1].record
        window = lookback_windows(self.ds, [row], self.labels, self.params.w)
        before = lyra_predict(self.params, self.stats, self.ds, window)[0].prediction
        after = lyra_predict(tuned, self.stats, self.ds, window)[0].prediction
        target = oracles.entries(refined)[-1].label_refined
        assert abs(after - target) < abs(before - target)

    def test_freeze_encoder_keeps_encoder_fixed(self):
        cfg = tr.TrainConfig(fine_tune_lr=1e-3, fine_tune_epochs=5,
                             freeze_encoder=True)
        tuned = oracles.member(tr.fine_tune(self.params, self.refined_set(shift=2.0), self.ds, cfg,
                                            target_labels=self.labels, stats=self.stats), 0)
        changed = [n for n in self.params.store.names()
                   if not np.array_equal(tuned.store.value(n), self.params.store.value(n))]
        assert changed, "fine-tuning with a label shift must move some parameters"
        assert not any(n.startswith(("gru.", "attn.")) for n in changed)

    def test_duplicate_entries_keep_own_targets(self, monkeypatch):
        """Two copies of one entry, refined to two labels, stay two samples."""
        entries = [refined_sample(self.ds, self.county, self.ds.years[-1], shift)
                   for shift in (-1.0, 1.0)]
        refined = oracles.refined_set({"qq": entries}, self.ds.years[-1] + 1)
        tables = []

        def recording(p, ds, windows):
            tables.append(window_table(p, ds, windows))
            return tables[-1]

        monkeypatch.setattr(tr, "window_table", recording)
        cfg = tr.TrainConfig(fine_tune_lr=1e-3, fine_tune_epochs=1)
        tr.fine_tune(self.params, refined, self.ds, cfg, target_labels=self.labels,
                     stats=self.stats)
        (xs, (seq_rows, _, _), (target, history, _)), = tables
        assert len(xs) == 1 + self.params.w and len(target) == 2
        assert target[0] != target[1]
        assert seq_rows[target[0]] == seq_rows[target[1]]
        np.testing.assert_array_equal(history[0], history[1])

    def test_sample_without_history_skipped(self):
        entries = [refined_sample(self.ds, self.county, self.ds.years[0], 0.0)]
        refined = oracles.refined_set({"qq": entries}, 2010)
        cfg = tr.TrainConfig()
        with pytest.warns(UserWarning, match="history"):
            tuned = oracles.member(tr.fine_tune(self.params, refined, self.ds, cfg,
                                                target_labels=observed_labels(self.ds),
                                                stats=self.stats), 0)
        assert stores_equal(tuned.store, self.params.store)


def reference_fine_tune(p, sample_set, train, cfg, target_labels, stats=None):
    """The per-county fine-tune loop that the stacked `tr.fine_tune` replaced.

    Kept verbatim as the stacked path's oracle: one county's copy, one
    tape per epoch, over the record-based window builders of `oracles`.
    """
    cfg.validate()
    tuned = p.copy()
    if not sample_set.entries:
        warnings.warn(f"empty fine-tune sample set for query {sample_set.query}")
        return tuned
    windows, targets = [], []  # targets: normalized refined labels
    for entry in sample_set.entries:
        rec = oracles.get(train, *train.key(entry.record))
        if oracles.county_years(train, rec.county)[0] == rec.year:
            warnings.warn(
                f"retrieved sample ({rec.county},{rec.year}) has no history; skipped"
            )
            continue
        windows.append(oracles.lookback_window(train, rec, target_labels[entry.record],
                                               tuned.w))
        refined = entry.label_refined
        targets.append(stats.normalize_label(refined) if stats is not None else refined)
    if not windows or cfg.fine_tune_epochs == 0:
        return tuned

    xs, triples, samples = oracles.window_table(tuned, windows)
    samples = oracles.as_arrays(samples)
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

    tr._run_epochs([np.arange(len(windows))], cfg.fine_tune_epochs, epoch_fn)
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
        self.labels = model_labels(f, self.ds)
        self.params, _ = tr.train_lyra(self.ds, 2, cfg, dims=tiny_dims(),
                                       target_labels=self.labels)

    def entry(self, county, year, shift):
        row = self.ds.row(county, year)
        label = self.stats.denormalize_label(self.ds.labels([row]).item())
        return oracles.Entry(row, label, shift, label + shift, True, "ols")

    def sample_set(self, k, entries):
        return oracles.SampleSet(query=f"q{k}", target_year=self.ds.years[-1] + 1,
                                 sigma=0.0, entries=entries)

    def together(self, sets):
        """The per-county sets as one `RefinedSampleSet`."""
        return oracles.refined_set({s.query: s.entries for s in sets}, self.ds.years[-1] + 1)

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
        stack = tr.fine_tune(self.params, self.together(sets), self.ds, cfg, self.labels,
                             self.stats)
        np.testing.assert_array_equal(self.params.store.flat, before)
        assert stack.store.copies == len(sets)

        counties = self.ds.counties[:len(sets)]
        year = self.ds.years[-1]
        windows = lookback_windows(self.ds, [self.ds.row(c, year) for c in counties],
                                   self.labels, self.params.w)
        got = np.array([r.prediction
                        for r in lyra_predict(stack, self.stats, self.ds, windows)])
        want = np.array([lyra_predict(ref, self.stats, self.ds, windows.take([k]))[0].prediction
                         for k, ref in enumerate(refs)])
        for name in self.params.store.names():
            tuned = stack.store.value(name)
            ref_values = np.stack([ref.store.value(name) for ref in refs])
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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reported_with_epoch(self):
        cfg = tr.TrainConfig(fine_tune_lr=1e200, fine_tune_epochs=5)
        with pytest.raises(tr.TrainingError, match="epoch"):
            tr.fine_tune(self.params, self.together(self.random_sets(14, n=3)), self.ds, cfg,
                         self.labels, self.stats)


class TestStepMemory:
    """A step's tape and graph are freed by reference counting alone."""

    def forward_fn(self, model, train):
        if model == "global":
            p = GruParams.init(d=train.d, H=8, readout_hidden=0, seed=1)
            xs = np.stack([r.features for r in train.records])
            ys = train.labels()
            return p.store, (lambda tape: global_forward(tape, p, xs)), ys
        p = LyraParams.init(LyraDims(d=train.d, H=8, Z=8, E=4, attn_hidden=0, mlp_hidden=0),
                            w=5, year_min=train.years[0], year_max=train.years[-1], seed=1)
        rows = [r for c in train.counties for r in train.county_rows(c)[1:].tolist()]
        windows = lookback_windows(train, rows, observed_labels(train), 5)
        xs, triples, samples = window_table(p, train, windows)  # histories of lengths 1..5
        ys = train.labels(windows.targets)
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
