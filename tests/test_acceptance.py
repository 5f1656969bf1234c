"""End-to-end acceptance checks, one per shipped guarantee.

Each test states a single verifiable claim about the pipeline: gradient
fidelity, attention normalization, similarity algebra, the bias-matrix
reconstruction identity, extrapolation against an independent solver,
the refinement error cut, the ablation ordering, integration parity,
retrieval relevance, and byte-level reproducibility without test-label
access. Fixtures in conftest.py supply the two trained synthetic runs.
"""
import time

import numpy as np

import oracles
import ratar.backbone as bb
import ratar.numcore as nc
import ratar.pipeline as pl
import ratar.refinement as rf
import ratar.retrieval as rt
from ratar.backbone import LyraDims
from ratar.data import SyntheticConfig, generate_synthetic
from ratar.training import TrainConfig


def test_c01_gradients_match_finite_differences():
    """Tape gradients agree with central differences through every model."""
    t0 = time.perf_counter()
    worst = {}

    p1 = bb.GruParams.init(d=3, H=4, readout_hidden=0, seed=101)
    rng = np.random.default_rng(102)
    xs1 = rng.standard_normal((2, 1, 3))  # T=1: a single GRU step
    t1 = nc.Tensor(rng.standard_normal(2))

    def single_step(tape, store):
        return nc.mse_loss(bb.global_forward(tape, p1, xs1), t1)

    worst["gru_step"] = nc.grad_check(single_step, p1.store, eps=1e-5)

    p2 = bb.GruAttParams.init(d=3, H=4, attn_hidden=3, head_hidden=0, seed=103)
    xs2 = rng.standard_normal((2, 5, 3))
    t2 = nc.Tensor(rng.standard_normal(2))

    def pooled(tape, store):
        return nc.mse_loss(bb.gruatt_forward(tape, p2, xs2), t2)

    worst["pooled_encoder"] = nc.grad_check(pooled, p2.store, eps=1e-5)

    p3 = bb.LyraParams.init(
        LyraDims(d=3, H=4, Z=4, E=2, attn_hidden=2, mlp_hidden=3),
        w=2, year_min=2000, year_max=2004, seed=104,
    )
    xs3 = rng.standard_normal((3, 8, 3))  # T=8
    triples = (
        np.array([0, 1, 2, 2]),
        np.array([0.2, -0.1, 0.4, 0.15]),
        np.array([0, 1, 2, 3]),
    )
    samples = (np.array([3, 2]), np.array([[0, 1], [0, 1]]), np.array([2, 2]))
    t3 = nc.Tensor(np.array([0.25, -0.3]))

    def full_model(tape, store):
        preds, _ = bb.lyra_forward(tape, p3, xs3, triples, samples)
        return nc.mse_loss(preds, t3)

    worst["full_forward"] = nc.grad_check(full_model, p3.store, eps=1e-5)

    elapsed = time.perf_counter() - t0
    print(f"c01 gradient checks: {worst} in {elapsed:.1f}s")
    assert max(worst.values()) < 1e-4
    assert elapsed < 30.0


def test_c02_attention_weights_normalized():
    """Intra-year and cross-year attention weights are distributions."""
    rng = np.random.default_rng(7)
    lp = bb.LyraParams.init(
        LyraDims(d=3, H=5, Z=4, E=2, attn_hidden=3, mlp_hidden=0),
        w=4, year_min=2000, year_max=2010, seed=8,
    )
    # sharpen both softmaxes: the encoder's states stay inside (-1, 1), so
    # scaled attention and embedding maps give the draws wide score ranges
    lp.store.set_value("attn.out.W", lp.store.value("attn.out.W") * 10.0)
    lp.store.set_value("embed.out.W", lp.store.value("embed.out.W") * 3.0)
    worst_alpha = worst_beta = 0.0
    alpha_spread, beta_score = [], []
    for _ in range(1000):
        n_hist = int(rng.integers(1, 6))
        n = n_hist + 1
        xs = rng.standard_normal((n, int(rng.integers(2, 12)), 3)) * 3.0
        triples = (np.arange(n), rng.standard_normal(n) * 2.0, rng.integers(0, 11, n))
        z_all, pooled, alpha = bb.embed_batch(None, lp, xs, triples)
        alpha = alpha.data
        assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)
        worst_alpha = max(worst_alpha, float(np.abs(alpha.sum(axis=1) - 1.0).max()))
        alpha_spread.extend(np.log(alpha.max(axis=1)) - np.log(alpha.min(axis=1)))

        sample = (np.array([n_hist]), np.arange(n_hist)[None], np.array([n_hist]))
        _, betas = bb.lyra_forward(None, lp, xs, triples, sample,
                                   pooled_const=pooled.data)
        beta = betas[0]
        assert np.all(beta >= 0.0) and np.all(beta <= 1.0)
        worst_beta = max(worst_beta, abs(float(beta.sum()) - 1.0))
        z = z_all.data
        beta_score.append(float(np.abs(z[:n_hist] @ z[n_hist]).max()))
    print(f"c02 attention sums: alpha off by {worst_alpha:.2e}, beta by {worst_beta:.2e}; "
          f"median alpha score spread {np.median(alpha_spread):.2f}, "
          f"median |beta score| {np.median(beta_score):.2f}")
    assert worst_alpha < 1e-9
    assert worst_beta < 1e-9
    # score magnitudes at least those of random [T x H] states scaled by 3
    # and random embeddings scaled by 2 (medians 1.6 and 8.2)
    assert np.median(alpha_spread) > 1.6
    assert np.median(beta_score) > 8.2


def test_c03_similarity_algebra():
    """Centered cosine: symmetric, bounded, shift-invariant, monotone."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    n_pairs = 10_000
    length = 8
    years = list(range(2000, 2000 + length))
    for i in range(n_pairs):
        a = rng.standard_normal(length)
        b = rng.standard_normal(length)
        va = rt.ResidualVector("a", years, a)
        vb = rt.ResidualVector("b", years, b)
        s_ab = rt.centered_cosine(va, vb)
        s_ba = rt.centered_cosine(vb, va)
        assert abs(s_ab - s_ba) < 1e-12
        assert abs(s_ab) <= 1.0 + 1e-12
        shift = rt.ResidualVector("a", years, a + float(rng.normal(0, 5)))
        assert abs(rt.centered_cosine(shift, vb) - s_ab) < 1e-9

    # match sets shrink monotonically as the threshold rises
    synth = SyntheticConfig(n_counties=24, n_years=8, T=12, d=8,
                            n_hidden_clusters=2, year_bias_slope=0.1,
                            year_shock_std=0.2, obs_noise_std=0.1, seed=3)
    ds, _ = generate_synthetic(synth)
    rng2 = np.random.default_rng(4)
    residuals = oracles.residual_panel({
        c: rt.ResidualVector(c, ds.years, rng2.standard_normal(len(ds.years)))
        for c in sorted(ds.counties)
    })
    for county in sorted(ds.counties)[:6]:
        prev = None
        for threshold in (0.1, 0.4, 0.7, 0.9):
            got = {
                c for c, _s in rt.retrieve(
                    county, residuals, ds, threshold=threshold
                ).matched
            }
            if prev is not None:
                assert got <= prev
            prev = got
    elapsed = time.perf_counter() - t0
    print(f"c03 similarity algebra over {n_pairs} pairs in {elapsed:.1f}s")
    assert elapsed < 10.0


def test_c04_bias_reconstruction_identity(refine_setup):
    """Every valid bias cell satisfies B[s,k] + g_s(z^k) == y^k, and holds
    the bits of y^k - g_s(z^k) computed for that cell alone."""
    s = refine_setup
    train_n, stats = s.models.train_n, s.models.stats
    checked = 0
    worst = 0.0
    bit_equal = 0
    for county, bm in s.biases.items():
        rows = train_n.county_rows(county)
        labels = dict(zip(train_n.row_years[rows].tolist(),
                          map(stats.denormalize_label, train_n.labels(rows).tolist())))
        # the embeddings' rows follow train_n.rows, in which the county's are one run
        start = int(np.searchsorted(train_n.rows, rows[0]))
        embeddings = dict(zip(train_n.row_years[rows].tolist(),
                              s.embeddings[start:start + len(rows)]))
        for si, ys in enumerate(bm.years):
            if ys not in s.regressors:
                continue
            g = s.regressors[ys]
            for ki, yk in enumerate(bm.years):
                if not bm.valid[si, ki]:
                    continue
                z = embeddings[yk]
                pred = float(g.predict(z)[0])
                err = abs(bm.B[si, ki] + pred - labels[yk])
                worst = max(worst, err)
                bit_equal += bm.B[si, ki] == labels[yk] - pred
                checked += 1
    print(f"c04 bias identity: {checked} cells, worst {worst:.2e}, "
          f"{bit_equal} bit-equal to the one-cell form")
    assert checked > 0
    assert worst < 1e-10
    assert bit_equal == checked


def test_c05_extrapolation_matches_independent_solver():
    """Line extrapolation agrees with a from-scratch normal-equations fit."""
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(1000):
        k0 = int(rng.integers(1990, 2020))
        length = int(rng.integers(3, 10))
        years = [k0 + j for j in range(length)]
        row = rng.normal(0.0, 3.0, size=length)
        B = np.zeros((length, length))
        B[0] = row
        fitted = np.zeros(length, dtype=bool)
        fitted[0] = True
        target = k0 + length + int(rng.integers(0, 4))
        got = rf.extend_rows(years, B, fitted, target)[0][0]

        # independent oracle: normal equations in centered form, so the
        # 2x2 system stays well conditioned for year values near 2000
        ks = np.asarray(years, dtype=np.float64)
        kbar, ybar = ks.mean(), row.mean()
        m = ((ks - kbar) * (row - ybar)).sum() / ((ks - kbar) ** 2).sum()
        worst = max(worst, abs(got - (ybar + m * (target - kbar))))
    assert worst < 1e-8

    worst_line = 0.0
    for _ in range(200):
        k0 = int(rng.integers(1990, 2020))
        length = int(rng.integers(3, 8))
        years = [k0 + j for j in range(length)]
        a, b = rng.normal(0, 2.0, size=2)
        row = a + b * np.asarray(years, dtype=np.float64)
        B = np.zeros((length, length))
        B[0] = row
        fitted = np.zeros(length, dtype=bool)
        fitted[0] = True
        target = k0 + length + 2
        got = rf.extend_rows(years, B, fitted, target)[0][0]
        worst_line = max(worst_line, abs(got - (a + b * target)))
    print(f"c05 extrapolation: worst vs oracle {worst:.2e}, on lines {worst_line:.2e}")
    assert worst_line < 1e-10


def test_c06_refinement_halves_stale_label_error(refine_setup):
    """Extrapolated bias correction cuts retrieved-label RMSE by half."""
    s = refine_setup
    models = s.models
    residuals = rt.compute_residuals(models.train_n, models.model_labels, models.stats)
    unrefined, refined = [], []
    counties = sorted(models.train_n.counties)
    results = [rt.retrieve(county, residuals, models.train_n, threshold=s.cfg.threshold)
               for county in counties]
    refined_set = rf.refine_labels(results, models.train_n, s.bias_table, sigma=0.0,
                                   seeds=range(len(counties)), target_year=s.test_year,
                                   stats=models.stats)
    for row, label, label_refined in zip(refined_set.entries.tolist(),
                                         refined_set.label.tolist(),
                                         refined_set.label_refined.tolist()):
        county = models.train_n.key(row)[0]
        gt = s.truth.rows[(county, s.test_year)].noiseless_yield
        unrefined.append(label - gt)
        refined.append(label_refined - gt)
    rmse_u = float(np.sqrt(np.mean(np.square(unrefined))))
    rmse_r = float(np.sqrt(np.mean(np.square(refined))))
    print(f"c06 refinement: unrefined {rmse_u:.3f}, refined {rmse_r:.3f} "
          f"({len(refined)} samples)")
    assert len(refined) > 100
    assert rmse_r <= 0.5 * rmse_u


def test_c07_ablation_ordering(ablation_setup):
    """Retrieval helps, refinement helps more, context machinery helps at all."""
    r = ablation_setup.rmse
    print(f"c07 ablation RMSEs: {({k: round(v, 3) for k, v in sorted(r.items())})} "
          f"in {ablation_setup.elapsed:.0f}s")
    slack = 1.02
    assert r["ratar"] <= slack * r["wo_refine"]
    assert r["wo_refine"] <= slack * r["lyra"]
    assert r["lyra"] <= slack * r["gruatt"]
    assert ablation_setup.elapsed < 600.0


# The c07 fixture's RMSEs to the last bit.  A change that moves them on
# purpose updates these values and says why in CHANGES.md.
C07_RMSE_BITS = {
    "ratar": 1.2160381515498873,
    "wo_refine": 1.2629488004844918,
    "lyra": 1.2813671451440867,
    "gruatt": 3.296052761784709,
    "ratar_context": 1.1532850736079638,
}


def test_c07_fixture_rmse_bits_pinned(ablation_setup):
    """Refactors keep every c07-fixture RMSE bitwise equal."""
    assert {k: v.hex() for k, v in ablation_setup.rmse.items()} == {
        k: v.hex() for k, v in C07_RMSE_BITS.items()}


def test_c08_integration_parity(ablation_setup):
    """Fine-tuning and context augmentation land within 10% of each other."""
    r = ablation_setup.rmse
    rel = abs(r["ratar"] - r["ratar_context"]) / max(r["ratar"], r["ratar_context"])
    print(f"c08 integration parity: finetune {r['ratar']:.3f} vs "
          f"context {r['ratar_context']:.3f} ({100 * rel:.1f}% apart)")
    assert rel < 0.10


def test_c09_residual_retrieval_finds_cluster_mates(ablation_setup):
    """Residual matching beats embedding and adjacency on cluster purity."""
    s = ablation_setup
    models = s.models
    top_k = 10
    _ds, adjacency, _test = pl.load(s.cfg, s.dataset)
    ctx = pl.retrieval_context(s.cfg, models, adjacency)
    residuals, mean_emb = ctx.residuals, ctx.mean_emb
    purity = {}
    for mode in ("residual", "embedding", "neighboring"):
        hits = total = 0
        for county in sorted(models.train_n.counties):
            if mode == "residual":
                res = rt.retrieve(county, residuals, models.train_n,
                                  threshold=-1.0, top_k=top_k)
            elif mode == "embedding":
                res = rt.retrieve(county, mean_emb, models.train_n,
                                  threshold=-1.0, top_k=top_k)
            else:
                res = rt.retrieve_neighboring(county, adjacency, models.train_n)
            for matched_county, _sim in res.matched:
                hits += int(s.cluster[matched_county] == s.cluster[county])
                total += 1
        purity[mode] = hits / max(total, 1)
    print(f"c09 cluster purity: {({k: round(v, 3) for k, v in purity.items()})}")
    assert purity["residual"] > purity["embedding"]
    assert purity["residual"] > purity["neighboring"]


def test_c10_reproducible_and_leak_free(tmp_path, monkeypatch):
    """Same seed and data give byte-identical reports; no test-label reads:
    every test-year label of the panel the models train on reads NaN."""
    synth = SyntheticConfig(n_counties=12, n_years=6, T=12, d=8,
                            n_hidden_clusters=2, year_bias_slope=0.2,
                            year_shock_std=0.1, obs_noise_std=0.1, seed=5)
    ds, _ = generate_synthetic(synth)
    train_models, leaked = pl.train_models, []

    def stripped(cfg, run_ds, *args, **kwargs):
        held_out = run_ds.rows[run_ds.row_years[run_ds.rows] >= cfg.test_year]
        leaked.append(int(np.count_nonzero(~np.isnan(run_ds._labels[held_out]))))
        return train_models(cfg, run_ds, *args, **kwargs)

    monkeypatch.setattr(pl, "train_models", stripped)
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = pl.ExperimentConfig(
            test_year=max(ds.years), w=3, threshold=0.4, sigma=0.05,
            integration="finetune", seeds=(0, 1),
            train=TrainConfig(lr=3e-3, batch_size=None, epochs=10, seed=0,
                              fine_tune_lr=1e-3, fine_tune_epochs=3),
            dims=LyraDims(d=8, H=6, Z=5, E=3, attn_hidden=0, mlp_hidden=0),
            global_H=6, global_readout_hidden=0, out_dir=str(out),
        )
        reports.append(pl.run_experiment(cfg, dataset=ds))
    names = ["run.json", "report.csv", "predictions.csv", "attention.csv",
             "errors.csv", "retrieval.csv", "flags.csv", "bias.csv", "refined.csv"]
    for fname in names:
        a = (tmp_path / "a" / fname).read_bytes()
        b = (tmp_path / "b" / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    violations = [rep.audit_violations for rep in reports]
    print(f"c10 reproducibility: {len(names)} artifacts byte-identical, "
          f"audit violations {violations}, test labels in training panels {sum(leaked)}, "
          f"rmse {reports[0].rmse_mean:.3f}")
    assert violations == [0, 0]
    assert len(leaked) == 4 and sum(leaked) == 0  # two runs of two seeds
