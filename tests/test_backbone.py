"""Backbone tests: GRU recurrence, attention pooling, yearly embeddings,
cross-year attention, composed prediction, gradients, checkpoints.

Every forward check runs the batched engine (`gru_encode`, `embed_batch`,
`lyra_forward`, `global_forward`, `lyra_predict`), and windows are rows
of one Dataset's block.  Hand oracles recompute
every expected value with plain numpy from the stored parameter arrays.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

import oracles
from oracles import dataset_of, row_windows
from ratar import backbone as bb
from ratar import numcore as nc
from ratar.data import CountyYearRecord, Dataset, NormStats, split_by_test_year


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def tiny_lyra(seed=0, **overrides):
    dims = dict(d=2, H=3, Z=4, E=2, attn_hidden=2, mlp_hidden=3)
    dims.update(overrides)
    return bb.LyraParams.init(
        bb.LyraDims(**dims), w=2, year_min=2000, year_max=2006, seed=seed
    )


# ---------------------------------------------------------------------------
# plain-numpy oracles over the stored parameter arrays


def np_mlp(store, x, prefix):
    if prefix + ".h.W" in store:
        x = np.tanh(x @ store.value(prefix + ".h.W") + store.value(prefix + ".h.b"))
    out = x @ store.value(prefix + ".out.W")
    # the attention score head has no output bias
    return out if prefix == "attn" else out + store.value(prefix + ".out.b")


def np_gru(store, x):
    """Hidden states [T x H] of one sequence [T x d] from a zero state."""
    v = store.value
    h = np.zeros(v("gru.b_r").shape[0])
    out = []
    for xt in x:
        r = sig(xt @ v("gru.W_r") + h @ v("gru.U_r") + v("gru.b_r"))
        u = sig(xt @ v("gru.W_u") + h @ v("gru.U_u") + v("gru.b_u"))
        c = np.tanh(xt @ v("gru.W_c") + (r * h) @ v("gru.U_c") + v("gru.b_c"))
        h = (1.0 - u) * h + u * c
        out.append(h)
    return np.array(out)


def np_gru_unfused(store, xs):
    """Batched hidden states [B,T,H], written op by op in the engine's order.

    Each product has the shape the per-op encoder used ([B x d] @ [d x H]
    per step), so a fused encoder that keeps the order matches it bitwise.
    """
    v = store.value
    h = None
    out = []
    for t in range(xs.shape[1]):
        x = xs[:, t, :]
        if h is None:
            u = sig(x @ v("gru.W_u") + v("gru.b_u"))
            h = u * np.tanh(x @ v("gru.W_c") + v("gru.b_c"))
        else:
            r = sig((x @ v("gru.W_r") + h @ v("gru.U_r")) + v("gru.b_r"))
            u = sig((x @ v("gru.W_u") + h @ v("gru.U_u")) + v("gru.b_u"))
            c = np.tanh((x @ v("gru.W_c") + (r * h) @ v("gru.U_c")) + v("gru.b_c"))
            h = (1.0 - u) * h + u * c
        out.append(h)
    return np.stack(out, axis=1)


def unfused_global_forward(tape, p, xs):
    """global_forward with the recurrence recorded op by op on the tape."""
    bound = bb.bind_params(tape, p.store)
    g = {gate: (bound[f"gru.W_{gate}"], bound[f"gru.U_{gate}"], bound[f"gru.b_{gate}"])
         for gate in "ruc"}
    minus_one = nc.Tensor(np.float64(-1.0))
    B, T, _ = xs.shape
    h = nc.Tensor(np.zeros((B, p.H)))
    pooled = None
    for t in range(T):
        x = nc.Tensor(xs[:, t, :])

        def pre(gate, state):
            W, U, b = g[gate]
            return nc.add_bias(nc.add(nc.matmul(x, W), nc.matmul(state, U)), b)

        r = oracles.sigmoid(pre("r", h))
        u = oracles.sigmoid(pre("u", h))
        c = nc.tanh(pre("c", oracles.mul(r, h)))
        h = nc.add(h, oracles.mul(u, nc.add(c, oracles.mul(minus_one, h))))  # (1-u)*h + u*c
        step = oracles.mul(nc.Tensor(np.float64(1.0 / T)), h)
        pooled = step if pooled is None else nc.add(pooled, step)
    readout = nc.add_bias(nc.matmul(pooled, bound["readout.out.W"]), bound["readout.out.b"])
    return nc.reshape(readout, (B,))


def np_softmax(scores):
    e = np.exp(scores - scores.max())
    return e / e.sum()


def np_pool(store, h):
    """Attention pooling of hidden states h [T x H]: (weights [T], pooled [H])."""
    alpha = np_softmax(np_mlp(store, h, "attn")[:, 0])
    return alpha, alpha @ h


def np_embed(p, pooled, label, year):
    year_vec = p.store.value("year_table")[p.year_row(year)]
    return np_mlp(p.store, np.concatenate([pooled, [label], year_vec]), "embed")


def np_cross_head(p, z_target, z_hist):
    """Cross-year attention plus head: (normalized prediction, beta)."""
    beta = np_softmax(z_hist @ z_target)
    return float(np_mlp(p.store, z_target + beta @ z_hist, "head")[0]), beta


def np_lyra_predict(p, stats, context, target, target_label):
    """Oracle of lyra_predict from (record, label) context pairs."""
    def z_of(rec, label):
        return np_embed(p, np_pool(p.store, np_gru(p.store, rec.features))[1], label, rec.year)

    z_hist = np.array([z_of(rec, label) for rec, label in context])
    norm, beta = np_cross_head(p, z_of(target, target_label), z_hist)
    return stats.denormalize_label(norm), beta


def np_global(p, x):
    """Normalized global-model prediction for one sequence [T x d]."""
    return float(np_mlp(p.store, np_gru(p.store, x).mean(axis=0), "readout")[0])


# ---------------------------------------------------------------------------
# engine entry points in per-test shapes


def encode(p, xs):
    """Engine hidden states of xs [B,T,d], reshaped to [B,T,H]."""
    xs = np.asarray(xs, dtype=np.float64)
    stack = bb.gru_encode(bb.bind_params(None, p.store), xs)
    return stack.data.reshape(xs.shape[0], xs.shape[1], -1)


def pool(p, xs):
    """Engine attention weights [B x T] and pooled states [B x H] of xs."""
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.shape[0]
    triples = (np.arange(n), np.zeros(n), np.zeros(n, dtype=np.int64))
    _, pooled, weights = bb.embed_batch(None, p, xs, triples)
    return weights.data, pooled.data


def cross(p, pooled, labels, years, target, history):
    """One lyra_forward sample over given pooled vectors: (prediction, beta)."""
    triples = (np.arange(len(labels)), np.asarray(labels, dtype=np.float64),
               np.array([p.year_row(y) for y in years]))
    sample = (np.array([target]), np.array([history], dtype=np.int64).reshape(1, -1),
              np.array([len(history)]))
    preds, betas = bb.lyra_forward(None, p, None, triples, sample,
                                   pooled_const=np.asarray(pooled, dtype=np.float64))
    return float(preds.data[0]), betas[0]


class TestInit:
    def test_same_seed_same_params(self):
        a = tiny_lyra(seed=3)
        b = tiny_lyra(seed=3)
        assert a.store.names() == b.store.names()
        for name in a.store.names():
            assert np.array_equal(a.store.value(name), b.store.value(name))

    def test_different_seed_differs(self):
        a = tiny_lyra(seed=3)
        b = tiny_lyra(seed=4)
        assert any(
            not np.array_equal(a.store.value(n), b.store.value(n))
            for n in a.store.names()
        )

    def test_year_row_range(self):
        p = tiny_lyra()
        assert p.year_row(2000) == 0
        assert p.year_row(2006) == 6
        with pytest.raises(nc.ContractError):
            p.year_row(1999)

    def test_lookback_positive(self):
        with pytest.raises(nc.ContractError):
            bb.LyraParams.init(bb.LyraDims(d=2), w=0, year_min=2000, year_max=2001)

    def test_copy_isolated(self):
        p = tiny_lyra()
        q = p.copy()
        q.store.value("head.out.W")[:] = 0.0
        assert not np.array_equal(p.store.value("head.out.W"), q.store.value("head.out.W"))


class TestGruEncode:
    def test_zero_input_zero_bias_stays_zero(self):
        p = bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=0)
        h = encode(p, np.zeros((1, 5, 2)))
        # candidate tanh(0) = 0 from the zero state, so the state never moves
        np.testing.assert_array_equal(h, np.zeros((1, 5, 3)))

    def test_causality(self):
        p = bb.GruParams.init(d=2, H=4, readout_hidden=2, seed=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 2))
        base = encode(p, x[None])[0]
        bumped = x.copy()
        bumped[5] += 1.0
        out = encode(p, bumped[None])[0]
        assert np.array_equal(out[:5], base[:5])
        assert not np.allclose(out[5:], base[5:])

    def test_two_step_hand_oracle(self):
        p = bb.GruParams.init(d=1, H=1, readout_hidden=0, seed=0)
        vals = {
            "gru.W_r": [[0.5]], "gru.U_r": [[0.3]], "gru.b_r": [0.1],
            "gru.W_u": [[-0.4]], "gru.U_u": [[0.2]], "gru.b_u": [0.0],
            "gru.W_c": [[1.2]], "gru.U_c": [[-0.7]], "gru.b_c": [0.05],
        }
        for name, v in vals.items():
            p.store.set_value(name, np.array(v, dtype=np.float64))
        x = np.array([[0.8], [-0.3]])
        h = encode(p, x[None])[0]

        u1 = sig(0.8 * -0.4)
        c1 = np.tanh(0.8 * 1.2 + 0.05)
        h1 = u1 * c1  # zero initial state
        r2 = sig(-0.3 * 0.5 + h1 * 0.3 + 0.1)
        u2 = sig(-0.3 * -0.4 + h1 * 0.2)
        c2 = np.tanh(-0.3 * 1.2 + (r2 * h1) * -0.7 + 0.05)
        h2 = (1.0 - u2) * h1 + u2 * c2
        np.testing.assert_allclose(h[0, 0], h1, atol=1e-14)
        np.testing.assert_allclose(h[1, 0], h2, atol=1e-14)

    def test_batch_rows_match_numpy_oracle(self):
        """Row b*T + t of the sample-major stack is sequence b after day t."""
        p = bb.GruParams.init(d=3, H=4, readout_hidden=0, seed=2)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((3, 6, 3))
        h = encode(p, xs)
        for b in range(3):
            np.testing.assert_allclose(h[b], np_gru(p.store, xs[b]), atol=1e-12)

    def test_matches_unfused_recurrence_bitwise(self):
        rng = np.random.default_rng(4)
        for B, T, d, H in ((1, 40, 12, 16), (64, 40, 12, 16), (5, 9, 20, 33)):
            p = bb.GruParams.init(d=d, H=H, readout_hidden=0, seed=B)
            for gate in "ruc":
                p.store.set_value(f"gru.b_{gate}", rng.normal(0.0, 0.5, H))
            xs = rng.standard_normal((B, T, d))
            np.testing.assert_array_equal(encode(p, xs), np_gru_unfused(p.store, xs))

    def test_overflow_raises(self):
        # tanh saturates the overflowed candidate to a finite state, so only
        # the gate pre-activations show it
        p = bb.GruParams.init(d=2, H=3, readout_hidden=0, seed=0)
        p.store.set_value("gru.W_c", np.ones((2, 3)))
        with pytest.raises(nc.NumericError):
            encode(p, np.full((2, 3, 2), 1e308))

    def test_later_step_overflow_raises(self):
        # the first step never reads U_c; the second overflows (r*h) @ U_c
        p = bb.GruParams.init(d=2, H=8, readout_hidden=0, seed=0)
        for gate in "ruc":
            p.store.set_value(f"gru.W_{gate}", np.full((2, 8), 2.5))
            p.store.set_value(f"gru.U_{gate}", np.zeros((8, 8)))
        p.store.set_value("gru.U_c", np.full((8, 8), 1e308))
        xs = np.ones((1, 2, 2))
        encode(p, xs[:, :1])  # one step: finite
        with pytest.raises(nc.NumericError):
            encode(p, xs)

    def test_column_mismatch(self):
        p = bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=0)
        with pytest.raises(nc.DimensionError):
            encode(p, np.zeros((1, 4, 3)))
        with pytest.raises(nc.DimensionError):
            bb.gru_encode(bb.bind_params(None, p.store), np.zeros((4, 2)))


class TestAttentionPool:
    def test_identical_rows_uniform(self):
        # zero input weights, update gate saturated at exactly 1: every day's
        # state is the candidate tanh(b_c), so all rows are identical
        p = tiny_lyra()
        for gate in ("r", "u", "c"):
            p.store.set_value(f"gru.W_{gate}", np.zeros((2, 3)))
            p.store.set_value(f"gru.U_{gate}", np.zeros((3, 3)))
        p.store.set_value("gru.b_u", np.full(3, 40.0))
        p.store.set_value("gru.b_c", np.array([0.3, -0.2, 0.5]))
        rng = np.random.default_rng(1)
        weights, pooled = pool(p, rng.standard_normal((1, 6, 2)))
        np.testing.assert_allclose(weights[0], np.full(6, 1.0 / 6.0), atol=1e-12)
        np.testing.assert_allclose(pooled[0], np.tanh([0.3, -0.2, 0.5]), atol=1e-12)

    def test_singleton(self):
        p = tiny_lyra()
        x = np.array([[[1.0, -2.0]]])
        weights, pooled = pool(p, x)
        np.testing.assert_allclose(weights, [[1.0]])
        np.testing.assert_allclose(pooled[0], np_gru(p.store, x[0])[0], atol=1e-14)

    def test_hand_softmax_oracle(self):
        p = tiny_lyra(attn_hidden=0)
        w = np.array([[0.4], [-0.6], [1.1]])
        p.store.set_value("attn.out.W", w)
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((2, 5, 2))
        weights, pooled = pool(p, xs)
        for b in range(2):
            h = np_gru(p.store, xs[b])
            expected_w = np_softmax((h @ w).ravel())
            np.testing.assert_allclose(weights[b], expected_w, atol=1e-12)
            np.testing.assert_allclose(pooled[b], expected_w @ h, atol=1e-12)

    def test_weights_normalized_random(self):
        p = tiny_lyra()
        p.store.set_value("attn.out.W", p.store.value("attn.out.W") * 10.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            xs = rng.standard_normal((2, rng.integers(1, 9), 2)) * 10.0
            weights, _ = pool(p, xs)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(weights >= 0.0)


class TestEmbedBatch:
    def test_label_enters(self):
        p = tiny_lyra()
        xs = np.random.default_rng(4).standard_normal((1, 5, 2))
        triples = (np.array([0, 0]), np.array([0.5, -0.5]), np.array([1, 1]))
        z, _, _ = bb.embed_batch(None, p, xs, triples)
        assert not np.allclose(z.data[0], z.data[1])

    def test_identity_mlp_exposes_concat(self):
        # with a linear embed map set to the identity, z is the raw concat
        p = bb.LyraParams.init(
            bb.LyraDims(d=2, H=2, Z=4, E=1, attn_hidden=2, mlp_hidden=0),
            w=2, year_min=2000, year_max=2003, seed=0,
        )
        p.store.set_value("embed.out.W", np.eye(4))
        p.store.set_value("embed.out.b", np.zeros(4))
        table = p.store.value("year_table").copy()
        table[2] = [0.77]
        p.store.set_value("year_table", table)
        xs = np.random.default_rng(5).standard_normal((1, 4, 2))
        z, pooled, _ = bb.embed_batch(None, p, xs, (np.array([0]), np.array([1.5]),
                                                    np.array([p.year_row(2002)])))
        _, want_pooled = np_pool(p.store, np_gru(p.store, xs[0]))
        np.testing.assert_allclose(pooled.data[0], want_pooled, atol=1e-12)
        np.testing.assert_allclose(z.data[0], [*want_pooled, 1.5, 0.77], atol=1e-12)

    def test_unknown_year_rejected(self):
        p = tiny_lyra()  # year table 2000..2006
        rng = np.random.default_rng(6)
        hist = history_records(rng)
        target = CountyYearRecord("c9", 2050, rng.standard_normal((6, 2)), 2.0)
        with pytest.raises(nc.ContractError, match="2050"):
            bb.lyra_predict(p, norm_stats(), *panel_windows((hist, target, 0.3)))


class TestCrossYearAttention:
    def oracle(self, p, pooled, labels, years, target, history):
        z = np.array([np_embed(p, pooled[i], labels[i], years[i]) for i in range(len(labels))])
        return np_cross_head(p, z[target], z[list(history)])

    def test_single_history(self):
        p = tiny_lyra()
        pooled = np.array([[0.3, 0.4, -0.1], [1.0, 0.0, 0.2]])
        pred, beta = cross(p, pooled, [0.1, 0.0], [2001, 2002], target=1, history=[0])
        np.testing.assert_allclose(beta, [1.0])
        z_h = np_embed(p, pooled[0], 0.1, 2001)
        z_t = np_embed(p, pooled[1], 0.0, 2002)
        want = float(np_mlp(p.store, z_t + z_h, "head")[0])
        np.testing.assert_allclose(pred, want, atol=1e-12)

    def test_identical_history_uniform(self):
        p = tiny_lyra()
        pooled = np.array([[0.2, 0.1, -0.3]] * 4 + [[0.5, -1.0, 0.4]])
        pred, beta = cross(p, pooled, [0.3] * 4 + [0.0], [2001] * 4 + [2005],
                           target=4, history=[0, 1, 2, 3])
        np.testing.assert_allclose(beta, np.full(4, 0.25), atol=1e-12)
        z_h = np_embed(p, pooled[0], 0.3, 2001)
        z_t = np_embed(p, pooled[4], 0.0, 2005)
        want = float(np_mlp(p.store, z_t + z_h, "head")[0])
        np.testing.assert_allclose(pred, want, atol=1e-12)

    def test_hand_softmax_oracle(self):
        p = tiny_lyra()
        rng = np.random.default_rng(4)
        pooled = rng.standard_normal((4, 3)) * 2.0
        labels = rng.standard_normal(4)
        years = [2001, 2002, 2003, 2004]
        pred, beta = cross(p, pooled, labels, years, target=3, history=[0, 1, 2])
        want_pred, want_beta = self.oracle(p, pooled, labels, years, 3, [0, 1, 2])
        np.testing.assert_allclose(beta, want_beta, atol=1e-12)
        np.testing.assert_allclose(pred, want_pred, atol=1e-12)

    def test_permutation_equivariance(self):
        p = tiny_lyra()
        rng = np.random.default_rng(5)
        pooled = rng.standard_normal((6, 3)) * 2.0
        labels = rng.standard_normal(6)
        years = [2000, 2001, 2002, 2003, 2004, 2005]
        pred, beta = cross(p, pooled, labels, years, target=5, history=[0, 1, 2, 3, 4])
        perm = [3, 0, 4, 1, 2]
        pred_p, beta_p = cross(p, pooled, labels, years, target=5, history=perm)
        np.testing.assert_allclose(beta_p, beta[perm], atol=1e-14)
        np.testing.assert_allclose(pred_p, pred, atol=1e-14)

    def test_empty_history_rejected(self):
        p = tiny_lyra()
        with pytest.raises(nc.ContractError):
            cross(p, np.zeros((1, 3)), [0.0], [2005], target=0, history=[])


def norm_stats():
    return NormStats(
        feature_mean=np.zeros(2),
        feature_std=np.ones(2),
        label_mean=2.0,
        label_std=0.5,
    )


def tiny_global(seed=9):
    return bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=seed)


def history_records(rng, n=2, T=6, d=2, first_year=2001, county="c9"):
    return [
        CountyYearRecord(county, first_year + i, rng.standard_normal((T, d)), 0.2 * i - 0.1)
        for i in range(n)
    ]


def panel_windows(*specs):
    """(ds, windows) for (hist, target, label[, extras]) specs.

    ds holds every record the specs name; each window is its target's,
    over all of hist with observed labels, then the (record, label) extras.
    """
    specs = [spec + ((),) * (4 - len(spec)) for spec in specs]
    recs = {}
    for hist, target, _, extras in specs:
        for rec in [*hist, target, *(rec for rec, _ in extras)]:
            recs[rec.county, rec.year] = rec
    ds = dataset_of(recs.values())
    return ds, row_windows(ds, [
        oracles.LyraWindow(target, label,
                           tuple((rec, oracles.label_of(rec)) for rec in hist) + tuple(extras))
        for hist, target, label, extras in specs])


def predict_one(p, stats, *spec):
    return bb.lyra_predict(p, stats, *panel_windows(spec))[0]


class TestLyraPredict:
    def test_deterministic(self):
        p = tiny_lyra()
        rng = np.random.default_rng(6)
        hist = history_records(rng)
        target = CountyYearRecord("c9", 2003, rng.standard_normal((6, 2)), 2.4)
        stats = norm_stats()
        a = predict_one(p, stats, hist, target, 0.3)
        b = predict_one(p, stats, hist, target, 0.3)
        assert a.prediction == b.prediction

    def test_compositional_oracle(self):
        """lyra_predict equals a plain-numpy composition of the whole model."""
        p = tiny_lyra()
        rng = np.random.default_rng(7)
        hist = history_records(rng)
        target = CountyYearRecord("c9", 2003, rng.standard_normal((6, 2)), 2.4)
        stats = norm_stats()
        context = [(rec, oracles.label_of(rec)) for rec in hist]
        expected, beta = np_lyra_predict(p, stats, context, target, 0.3)

        out = predict_one(p, stats, hist, target, 0.3)
        np.testing.assert_allclose(out.prediction, expected, atol=1e-12)
        np.testing.assert_allclose(out.beta, beta, atol=1e-12)
        assert out.history_years == [2001, 2002]

    def test_extra_context_follows_history(self):
        """Extra (row, label) pairs join the look-back set after the window."""
        p = tiny_lyra()
        rng = np.random.default_rng(17)
        hist = history_records(rng)
        target = CountyYearRecord("c9", 2004, rng.standard_normal((6, 2)), 2.4)
        extras = [(CountyYearRecord("c3", 2000, rng.standard_normal((6, 2)), 0.7), -0.35),
                  (CountyYearRecord("c3", 2003, rng.standard_normal((6, 2)), 0.1), 0.8)]
        stats = norm_stats()
        context = [(rec, oracles.label_of(rec)) for rec in hist] + extras
        expected, beta = np_lyra_predict(p, stats, context, target, 0.3)

        out = predict_one(p, stats, hist, target, 0.3, extras)
        assert out.history_years == [2001, 2002, 2000, 2003]
        np.testing.assert_allclose(out.prediction, expected, atol=1e-12)
        np.testing.assert_allclose(out.beta, beta, atol=1e-12)

    def test_repeated_extra_keeps_both_labels(self):
        """One season given twice as an extra, with two labels, is two triples."""
        p = tiny_lyra()
        rng = np.random.default_rng(18)
        hist = history_records(rng)
        target = CountyYearRecord("c9", 2004, rng.standard_normal((6, 2)), 2.4)
        extra = CountyYearRecord("c3", 2003, rng.standard_normal((6, 2)), 0.1)
        extras = [(extra, 0.8), (extra, -0.6)]
        stats = norm_stats()
        context = [(rec, oracles.label_of(rec)) for rec in hist] + extras

        ds, windows = panel_windows((hist, target, 0.0, extras))
        xs, (seq_rows, labels, _), (_, history, _) = bb.window_table(p, ds, windows)
        assert len(xs) == 4 and len(labels) == 5
        history = history[0]
        assert seq_rows[history[2]] == seq_rows[history[3]]
        assert [labels[i] for i in history[2:]] == [0.8, -0.6]

        expected, beta = np_lyra_predict(p, stats, context, target, 0.3)
        out = predict_one(p, stats, hist, target, 0.3, extras)
        np.testing.assert_allclose(out.prediction, expected, atol=1e-12)
        np.testing.assert_allclose(out.beta, beta, atol=1e-12)

    def test_model_label_source_uses_global_model(self):
        p = tiny_lyra()
        gp = tiny_global()
        rng = np.random.default_rng(8)
        hist = history_records(rng)
        target = CountyYearRecord("c9", 2003, rng.standard_normal((6, 2)), None)
        stats = norm_stats()
        ds = dataset_of(hist + [target])
        labels = bb.model_labels(gp, ds)
        assert [ds.key(row) for row in range(len(labels))] == \
            [("c9", 2001), ("c9", 2002), ("c9", 2003)]
        for rec in hist + [target]:
            np.testing.assert_allclose(labels[ds.row(rec.county, rec.year)],
                                       np_global(gp, rec.features), atol=1e-12)
        train, _ = split_by_test_year(ds, 2003)
        assert np.isnan(bb.model_labels(gp, train)[ds.row("c9", 2003)])
        label = labels[ds.row("c9", 2003)]
        out = predict_one(p, stats, hist, target, label)
        expected, _ = np_lyra_predict(p, stats, [(r, oracles.label_of(r)) for r in hist], target,
                                      label)
        np.testing.assert_allclose(out.prediction, expected, atol=1e-12)

    def test_empty_history_rejected(self):
        p = tiny_lyra()
        rng = np.random.default_rng(9)
        target = CountyYearRecord("c9", 2003, rng.standard_normal((6, 2)), 1.0)
        ds, windows = panel_windows(([], target, 0.3))
        with pytest.raises(nc.ContractError, match="history"):
            bb.lyra_predict(p, norm_stats(), ds, windows)
        with pytest.raises(nc.ContractError, match="no windows"):
            bb.lyra_predict(p, norm_stats(), ds, oracles.window_batch([]))

    def test_batch_matches_single_windows(self):
        """One call over windows of mixed lengths and counties equals a call per window."""
        p = tiny_lyra()
        rng = np.random.default_rng(20)
        stats = norm_stats()
        extras = [(CountyYearRecord("c3", 2002, rng.standard_normal((6, 2)), 0.4), 0.9)]
        specs = []
        for k, county in enumerate(["c1", "c2", "c4", "c5"]):
            hist = history_records(rng, n=1 + k % 3, first_year=2001, county=county)
            target = CountyYearRecord(county, 2005, rng.standard_normal((6, 2)), None)
            specs.append((hist, target, 0.1 * k - 0.2, extras if k == 2 else ()))

        ds, windows = panel_windows(*specs)
        batch = bb.lyra_predict(p, stats, ds, windows)
        assert len(batch) == len(windows)
        for spec, win, out in zip(specs, oracles.window_list(windows), batch):
            solo = predict_one(p, stats, *spec)
            np.testing.assert_allclose(out.prediction, solo.prediction, rtol=1e-15, atol=0)
            np.testing.assert_allclose(out.beta, solo.beta, rtol=1e-15, atol=1e-300)
            assert out.beta.shape == (len(win.context),)
            assert abs(out.beta.sum() - 1.0) < 1e-12
            assert out.history_years == ds.row_years[win.context].tolist()


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def label_table(ds, targets=(), labels=()):
    """A label table over ds's block: labels[i] at targets[i], 0 elsewhere."""
    table = np.zeros(len(ds.row_years))
    table[list(targets)] = labels
    return table


class TestLookbackWindow:
    @staticmethod
    def panel(rng):
        """(train, test): c9 with seasons 2000..2003 and c3 with 2001 only in
        train; the test seasons c9 2004 and c7 2004 in the same block."""
        recs = (history_records(rng, n=4, first_year=2000)
                + history_records(rng, n=1, county="c3")
                + [CountyYearRecord(c, 2004, rng.standard_normal((6, 2)), None)
                   for c in ("c9", "c7")])
        return split_by_test_year(dataset_of(recs), 2004)

    def test_window_truncation(self):
        """The last w seasons before the target, with their observed labels."""
        rng = np.random.default_rng(10)
        train, test = self.panel(rng)
        target = test.row("c9", 2004)
        # a shorter history is taken whole; seasons from the target year on are not
        targets = [target, train.row("c9", 2002)]
        win, mid = oracles.window_list(
            bb.lookback_windows(train, targets, label_table(train, targets, [0.3, 0.0]), w=2))
        assert win.target == target and win.label == 0.3
        assert [train.key(r) for r in win.context] == [("c9", 2002), ("c9", 2003)]
        assert win.context_labels.tolist() == train.labels(
            [train.row("c9", y) for y in (2002, 2003)]).tolist()
        assert train.row_years[mid.context].tolist() == [2000, 2001]

    def test_extra_follows_history(self):
        rng = np.random.default_rng(11)
        train, test = self.panel(rng)
        target = test.row("c9", 2004)
        extra_rows = [train.row("c3", 2001), train.row("c9", 2000)]
        win, plain = oracles.window_list(bb.lookback_windows(
            train, [target, target], label_table(train, [target], [0.3]), w=2,
            extras=oracles.extras_of([(extra_rows, [1.5, -0.5]), None])))
        np.testing.assert_array_equal(win.context[:2], plain.context)
        np.testing.assert_array_equal(win.context_labels[:2], plain.context_labels)
        assert win.context[2:].tolist() == extra_rows
        assert win.context_labels[2:].tolist() == [1.5, -0.5]

    def test_no_earlier_season_names_county(self):
        rng = np.random.default_rng(12)
        train, test = self.panel(rng)
        with pytest.raises(nc.ContractError, match="c3"):
            bb.lookback_windows(train, [test.row("c9", 2004), train.row("c3", 2001)],
                                label_table(train), w=3)
        with pytest.raises(nc.ContractError, match="c7"):
            bb.lookback_windows(train, [test.row("c7", 2004)], label_table(train), w=3)

    def test_window_of_zero_rejected(self):
        rng = np.random.default_rng(13)
        train, test = self.panel(rng)
        with pytest.raises(nc.ContractError, match="at least 1"):
            bb.lookback_windows(train, [test.row("c9", 2004)], label_table(train), w=0)

    @pytest.mark.parametrize("w", [1, 2, 3, 5])
    def test_batch_matches_per_target_windows(self, w):
        """Every window of one batch has the bits of the per-target oracle's,
        with and without extras, targets repeated and in any order; each
        target's label is its row's entry in the table."""
        rng = np.random.default_rng(14)
        train, test = self.panel(rng)
        targets = [test.row("c9", 2004), train.row("c9", 2003), train.row("c9", 2001),
                   test.row("c9", 2004), train.row("c9", 2002)]
        table = rng.standard_normal(len(train.row_years))
        labels = table[targets].tolist()
        extras = [([train.row("c3", 2001)], [rng.standard_normal()]), None,
                  ([train.row("c9", 2000), train.row("c3", 2001)], rng.standard_normal(2)),
                  None, ((), ())]
        for given in (None, extras):
            got = bb.lookback_windows(train, targets, table, w,
                                      None if given is None else oracles.extras_of(given))
            for i, (target, label, win) in enumerate(zip(targets, labels,
                                                         oracles.window_list(got))):
                extra = ((), ()) if given is None or given[i] is None else given[i]
                want = oracles.row_lookback_window(train, target, label, w, *extra)
                assert (win.target, win.label) == (want.target, want.label)
                assert bits(win.context) == bits(want.context)
                assert bits(win.context_labels) == bits(want.context_labels)

    def test_one_read_counts_one_violation_per_test_row(self):
        """A batch whose context holds rows of a held-out year reads them in
        one read, each of them once, as the per-target reads did."""
        rng = np.random.default_rng(15)
        train = self.panel(rng)[0]
        targets = [train.row("c9", 2003), train.row("c9", 2002), train.row("c9", 2003)]
        reads = []
        original = Dataset.labels

        def recording(self, rows=None):
            reads.append(self.row_years[self.rows if rows is None else rows])
            return original(self, rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Dataset, "labels", recording)
            bb.lookback_windows(train, targets, label_table(train), w=2)
            assert len(reads) == 1
            for target in targets:
                oracles.row_lookback_window(train, target, 0.0, w=2)
        batched, *per_target = (int(np.count_nonzero(years == 2001)) for years in reads)
        assert batched == sum(per_target) == 3  # c9 2001 is in all three windows


class TestWindows:
    """A `Windows` batch: contexts end to end, cut by offsets."""

    @staticmethod
    def batch(rng):
        """Eight windows over TestLookbackWindow's panel, some with extras."""
        train, test = TestLookbackWindow.panel(rng)
        targets = [test.row("c9", 2004), train.row("c9", 2003), train.row("c9", 2001)] * 2
        targets += [train.row("c9", 2002), test.row("c9", 2004)]
        extras = [None, ([train.row("c3", 2001)], [0.5]), None,
                  ([train.row("c9", 2000)] * 2, [1.0, -1.0]), None, None, None,
                  ([train.row("c3", 2001)], [2.0])]
        table = rng.standard_normal(len(train.row_years))
        return train, bb.lookback_windows(train, targets, table, 3, oracles.extras_of(extras))

    def test_take_of_shuffled_index_equals_slices(self):
        rng = np.random.default_rng(16)
        _, windows = self.batch(rng)
        whole = oracles.window_list(windows)
        for idx in (rng.permutation(len(windows)), [3, 3, 0], [5]):
            got = windows.take(idx)
            assert got.offsets.dtype == np.int64 and got.offsets[0] == 0
            assert got.lengths.tolist() == [len(whole[i].context) for i in idx]
            for win, i in zip(oracles.window_list(got), idx):
                want = whole[i]
                assert (win.target, win.label) == (want.target, want.label)
                assert bits(win.context) == bits(want.context)
                assert bits(win.context_labels) == bits(want.context_labels)

    def test_empty_targets_give_an_empty_batch(self):
        rng = np.random.default_rng(17)
        train, windows = self.batch(rng)
        for got in (bb.lookback_windows(train, [], label_table(train), w=2),
                    bb.lookback_windows(train, [], label_table(train), 2, oracles.extras_of([])),
                    windows.take([])):
            assert len(got) == 0 and got.offsets.tolist() == [0]
            assert got.context.dtype == np.int64 and not len(got.context)
            assert got.context_labels.dtype == np.float64 and not len(got.context_labels)


class TestWindowTable:
    def test_shared_record_tabulated_once(self):
        """A season in two windows is one sequence row and one context triple."""
        p = tiny_lyra()
        rng = np.random.default_rng(19)
        recs = history_records(rng, n=4, first_year=2001)  # 2001..2004
        pairs = [(rec, oracles.label_of(rec)) for rec in recs]
        ds = dataset_of(recs)
        windows = row_windows(ds, [oracles.LyraWindow(recs[3], 0.5, tuple(pairs[1:3])),
                                   oracles.LyraWindow(recs[2], -0.5, tuple(pairs[0:2]))])
        xs, (seq_rows, labels, year_rows), samples = bb.window_table(p, ds, windows)

        # sequences in (county, year) order, 2002 once though both windows use it
        np.testing.assert_array_equal(xs, np.stack([r.features for r in recs]))
        # sorted context triples (2001, 2002, 2003), then sorted targets (2003, 2004)
        np.testing.assert_array_equal(seq_rows, [0, 1, 2, 2, 3])
        np.testing.assert_array_equal(labels, [label for _, label in pairs[:3]] + [-0.5, 0.5])
        np.testing.assert_array_equal(year_rows, [1, 2, 3, 3, 4])
        # samples in window order, histories in context order
        target, history, length = samples
        np.testing.assert_array_equal(target, [4, 3])
        np.testing.assert_array_equal(history, [[1, 2], [0, 1]])
        np.testing.assert_array_equal(length, [2, 2])

    def test_year_outside_table_rejected(self):
        p = tiny_lyra()  # year table 2000..2006
        rng = np.random.default_rng(20)
        old = CountyYearRecord("c9", 1999, rng.standard_normal((6, 2)), 0.0)
        target = CountyYearRecord("c9", 2001, rng.standard_normal((6, 2)), 0.0)
        with pytest.raises(nc.ContractError, match="1999"):
            bb.window_table(p, *panel_windows(([old], target, 0.0)))


class TestMixedLengthBatch:
    """Windows of different history lengths run as one masked pass."""

    def windows(self, lengths, seed=30):
        # one county over 2000..2006; a window of length n targets year 2000+n
        p = tiny_lyra(seed=seed)
        recs = history_records(np.random.default_rng(seed), n=7, first_year=2000)
        pairs = [(rec, oracles.label_of(rec)) for rec in recs]
        ds = dataset_of(recs)
        return p, ds, row_windows(ds, [oracles.LyraWindow(recs[n], 0.1 * n, tuple(pairs[:n]))
                                       for n in lengths])

    def test_each_sample_matches_its_solo_run(self):
        p, ds, windows = self.windows(range(1, 6))  # lengths 1..w at the workloads' w=5
        xs, triples, (target, history, length) = bb.window_table(p, ds, windows)
        preds, betas = bb.lyra_forward(None, p, xs, triples, (target, history, length))
        for i, n in enumerate(length.tolist()):
            solo = (target[i:i + 1], history[i:i + 1, :n], length[i:i + 1])
            solo_pred, solo_betas = bb.lyra_forward(None, p, xs, triples, solo)
            assert n == i + 1 and betas.shape == (5, 5)
            np.testing.assert_array_equal(betas[i, :n], solo_betas[0])
            assert not betas[i, n:].any()  # padded slots get weight exactly 0
            np.testing.assert_allclose(preds.data[i], solo_pred.data[0], rtol=1e-12, atol=0.0)

    def test_tape_entries_do_not_grow_with_distinct_lengths(self):
        counts = []
        for lengths in ([3, 3, 3], [1, 2, 3]):
            p, ds, windows = self.windows(lengths)
            tape = nc.ComputeTape()
            bb.lyra_forward(tape, p, *bb.window_table(p, ds, windows))
            counts.append(len(tape._records))
        assert counts[0] == counts[1]


class TestGlobalGruPredict:
    def test_composition_oracle(self):
        p = bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=11)
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((2, 7, 2))
        got = bb.global_forward(None, p, xs).data
        for b in range(2):
            np.testing.assert_allclose(got[b], np_global(p, xs[b]), atol=1e-12)

    def test_deterministic(self):
        p = bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=13)
        xs = np.random.default_rng(1).standard_normal((1, 5, 2))
        a = bb.global_forward(None, p, xs).data
        b = bb.global_forward(None, p, xs).data
        assert np.array_equal(a, b)


class TestGradCheck:
    def test_single_gru_step(self):
        p = bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=15)
        rng = np.random.default_rng(16)
        xs = rng.standard_normal((2, 1, 2))
        targets = nc.Tensor(np.array([0.3, -0.4]))

        def f(tape, store):
            preds = bb.global_forward(tape, p, xs)
            return nc.mse_loss(preds, targets)

        assert nc.grad_check(f, p.store, eps=1e-5) < 1e-4

    def test_recurrent_gru(self):
        p = bb.GruParams.init(d=2, H=3, readout_hidden=0, seed=17)
        rng = np.random.default_rng(18)
        xs = rng.standard_normal((2, 4, 2))
        targets = nc.Tensor(np.array([0.1, 0.2]))

        def f(tape, store):
            preds = bb.global_forward(tape, p, xs)
            return nc.mse_loss(preds, targets)

        assert nc.grad_check(f, p.store, eps=1e-5) < 1e-4

    def test_long_sequence_batch(self):
        p = bb.GruParams.init(d=2, H=3, readout_hidden=0, seed=0)
        rng = np.random.default_rng(100)
        for gate in "ruc":
            p.store.set_value(f"gru.b_{gate}", rng.normal(0.0, 0.5, 3))
        xs = rng.standard_normal((3, 8, 2))
        targets = nc.Tensor(rng.standard_normal(3))

        def f(tape, store):
            return nc.mse_loss(bb.global_forward(tape, p, xs), targets)

        assert nc.grad_check(f, p.store, eps=1e-5) < 1e-6

    def test_fused_gru_matches_unfused_tape(self):
        p = bb.GruParams.init(d=3, H=4, readout_hidden=0, seed=23)
        rng = np.random.default_rng(24)
        for gate in "ruc":
            p.store.set_value(f"gru.b_{gate}", rng.normal(0.0, 0.5, 4))
        xs = rng.standard_normal((5, 12, 3))
        targets = nc.Tensor(rng.standard_normal(5))
        grads = []
        for forward in (bb.global_forward, unfused_global_forward):
            p.store.zero_grad()
            tape = nc.ComputeTape()
            tape.backward(nc.mse_loss(forward(tape, p, xs), targets))
            grads.append({n: p.store.grad(n).copy() for n in p.store.names()})
        for name, fused in grads[0].items():
            np.testing.assert_allclose(fused, grads[1][name], rtol=1e-12, atol=0.0)

    def test_tape_entries_do_not_grow_with_days(self):
        p = bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=25)
        rng = np.random.default_rng(26)
        counts = []
        for T in (5, 50):
            tape = nc.ComputeTape()
            bb.global_forward(tape, p, rng.standard_normal((3, T, 2)))
            counts.append(len(tape._records))
        assert counts[0] == counts[1] <= 10

    def test_gru_att_variant(self):
        p = bb.GruAttParams.init(d=2, H=3, attn_hidden=2, head_hidden=2, seed=19)
        rng = np.random.default_rng(20)
        xs = rng.standard_normal((3, 4, 2))
        targets = nc.Tensor(rng.standard_normal(3))

        def f(tape, store):
            preds = bb.gruatt_forward(tape, p, xs)
            return nc.mse_loss(preds, targets)

        assert nc.grad_check(f, p.store, eps=1e-5) < 1e-4

    def test_full_lyra_tiny_config(self):
        p = bb.LyraParams.init(
            bb.LyraDims(d=2, H=4, Z=4, E=2, attn_hidden=2, mlp_hidden=3),
            w=2, year_min=2000, year_max=2004, seed=21,
        )
        rng = np.random.default_rng(22)
        xs = rng.standard_normal((3, 8, 2))  # T=8
        triples = (
            np.array([0, 1, 2, 2]),
            np.array([0.2, -0.1, 0.4, 0.15]),
            np.array([0, 1, 2, 2]),
        )
        samples = (np.array([3, 2]), np.array([[0, 1], [1, 1]]), np.array([2, 1]))
        targets = nc.Tensor(np.array([0.25, -0.3]))

        def f(tape, store):
            preds, _ = bb.lyra_forward(tape, p, xs, triples, samples)
            return nc.mse_loss(preds, targets)

        assert nc.grad_check(f, p.store, eps=1e-5) < 1e-4


class TestCheckpoint:
    def test_roundtrip_lyra(self, tmp_path):
        p = tiny_lyra(seed=23)
        stats = norm_stats()
        path = str(tmp_path / "model.npz")
        bb.save_checkpoint(path, p, stats)
        loaded, loaded_stats = bb.load_checkpoint(path)
        assert isinstance(loaded, bb.LyraParams)
        assert loaded.dims == p.dims and loaded.w == p.w
        assert loaded.year_min == p.year_min and loaded.year_max == p.year_max
        for name in p.store.names():
            np.testing.assert_array_equal(loaded.store.value(name), p.store.value(name))
        assert loaded_stats.label_mean == stats.label_mean
        np.testing.assert_array_equal(loaded_stats.feature_std, stats.feature_std)

    def test_roundtrip_gru(self, tmp_path):
        p = bb.GruParams.init(d=3, H=4, readout_hidden=2, seed=24)
        path = str(tmp_path / "g.npz")
        bb.save_checkpoint(path, p, norm_stats())
        loaded, _ = bb.load_checkpoint(path)
        assert isinstance(loaded, bb.GruParams)
        assert (loaded.d, loaded.H) == (3, 4)

    @pytest.mark.parametrize("kind,params,meta", [
        ("gru", lambda: bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=1),
         '{"H": 3, "d": 2, "readout_hidden": 2}'),
        ("gruatt", lambda: bb.GruAttParams.init(d=2, H=3, attn_hidden=2, head_hidden=0, seed=2),
         '{"H": 3, "attn_hidden": 2, "d": 2, "head_hidden": 0}'),
        ("lyra", lambda: tiny_lyra(seed=3),
         '{"dims": {"E": 2, "H": 3, "Z": 4, "attn_hidden": 2, "d": 2, "mlp_hidden": 3}, '
         '"w": 2, "year_max": 2006, "year_min": 2000}'),
    ])
    def test_meta_header_pinned(self, tmp_path, kind, params, meta):
        p = params()
        path = str(tmp_path / f"{kind}.npz")
        bb.save_checkpoint(path, p, None)
        with np.load(path) as z:
            assert (str(z["kind"]), str(z["meta"])) == (kind, meta)
            assert [k for k in z.files if k.startswith("param:")] == [
                "param:" + name for name in p.store.names()]
        loaded, stats = bb.load_checkpoint(path)
        assert stats is None and type(loaded) is type(p)
        assert loaded.store.names() == p.store.names()
        np.testing.assert_array_equal(loaded.store.flat, p.store.flat)
        assert dataclasses.replace(loaded, store=p.store) == p

    @pytest.mark.parametrize("params,edit,message", [
        (lambda: bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=1),
         lambda meta: meta.pop("H"), "lacks GruParams field 'H'"),
        (lambda: bb.GruParams.init(d=2, H=3, readout_hidden=2, seed=1),
         lambda meta: meta.update(depth=2), "has unknown GruParams field 'depth'"),
        (lambda: tiny_lyra(seed=3),
         lambda meta: meta["dims"].pop("Z"), "lacks LyraDims field 'Z'"),
    ], ids=["missing", "unknown", "missing_dims"])
    def test_malformed_meta_names_path_and_field(self, tmp_path, params, edit, message):
        path = str(tmp_path / "m.npz")
        bb.save_checkpoint(path, params(), None)
        with np.load(path) as z:
            arrays = {key: z[key] for key in z.files}
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(nc.ContractError, match=re.escape(f"{path} {message}")):
            bb.load_checkpoint(path)

    @pytest.mark.parametrize("params", [
        lambda: bb.GruAttParams.init(d=2, H=3, attn_hidden=2, head_hidden=0, seed=2),
        lambda: tiny_lyra(seed=3),
        lambda: tiny_lyra(seed=3, attn_hidden=0),
    ], ids=["gruatt", "lyra", "lyra_linear_scores"])
    def test_old_score_bias_checkpoint_refused(self, tmp_path, params):
        """A checkpoint written while the day-attention score head still had
        an output bias is refused, naming the file and the parameter."""
        p = params()
        assert "attn.out.b" not in p.store
        path = str(tmp_path / "old.npz")
        bb.save_checkpoint(path, p, None)
        with np.load(path) as z:
            arrays = {key: z[key] for key in z.files}
        arrays["param:attn.out.b"] = np.zeros(1)
        np.savez(path, **arrays)
        with pytest.raises(nc.ContractError,
                           match=re.escape(f"checkpoint {path} has unknown parameter 'attn.out.b'")):
            bb.load_checkpoint(path)
        del arrays["param:attn.out.b"], arrays["param:attn.out.W"]
        np.savez(path, **arrays)
        with pytest.raises(nc.ContractError,
                           match=re.escape(f"checkpoint {path} lacks parameter 'attn.out.W'")):
            bb.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(str(path), junk=np.zeros(3))
        with pytest.raises(nc.ContractError):
            bb.load_checkpoint(str(path))
