"""Row-indexed windows and samples against the record-based code they replaced.

`oracles` keeps the earlier `lookback_window`, `window_table` and
`stack_tables` verbatim.  On the pipeline tests' panel, the tables built
from row windows must equal theirs bit for bit: sequences, triples and
sample indices, for training batches, for a padded stack of fine-tune
tables, and for prediction windows with context extras.

It also keeps the record-based `collect_samples` and `refine_labels`:
retrieved block rows must name the same seasons in the same order, and
each query's part of the one-pass refined set must carry the same labels
and methods as refining its records alone, with bias corrections within
1e-12 of the oracle's `np.polyfit` lines.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from ratar import backbone as bb
from ratar import pipeline as pl
from ratar import refinement as rf
from ratar import retrieval as rt
from ratar import training as tr
from test_pipeline import base_config


def bits(a):
    a = np.asarray(a)
    return a.dtype.kind, a.shape, a.tobytes()


def assert_same_table(new, old):
    """A row-indexed table (xs, triples, samples[, counts]) equals an oracle one."""
    assert bits(new[0]) == bits(old[0])
    for got, want in zip(new[1], old[1]):
        assert bits(got) == bits(np.asarray(want, dtype=got.dtype))
    for got, want in zip(new[2], oracles.as_arrays(old[2])):
        assert bits(got) == bits(want)
    assert new[3:] == old[3:]  # stack_tables' counts


@pytest.fixture(scope="module")
def seed_run(tmp_path_factory):
    cfg = base_config(tmp_path_factory.mktemp("windows"), out_dir=None, threshold=0.9,
                      train=tr.TrainConfig(lr=3e-3, batch_size=None, epochs=3, seed=0,
                                           fine_tune_lr=1e-3, fine_tune_epochs=2))
    ds, adjacency = pl.load(cfg)
    models = pl.train_models(cfg, ds, 0)
    return cfg, models, pl.retrieval_context(cfg, models, adjacency)


def test_training_batches(seed_run):
    cfg, models, _ = seed_run
    train, labels, p = models.train_n, models.model_labels, models.lyra
    new = oracles.train_lyra_windows(train, p.w, replace(cfg.train, epochs=1), labels,
                                     dims=p.dims, year_max=cfg.test_year)
    old = [oracles.lookback_window(train, rec, labels[train.row(rec.county, rec.year)], p.w)
           for rec in train.records if oracles.county_years(train, rec.county)[0] < rec.year]
    assert len(new) == len(old) == 10 * 4
    perm = np.random.default_rng(0).permutation(len(new))
    for lo in range(0, len(new), 16):
        batch = perm[lo:lo + 16]
        assert_same_table(bb.window_table(p, train, new.take(batch)),
                          oracles.window_table(p, [old[i] for i in batch]))


def test_padded_fine_tune_stack(seed_run):
    cfg, models, ctx = seed_run
    train, labels, p = models.train_n, models.model_labels, models.lyra
    refined = pl.retrieve_refine(cfg, models, ctx)[1]
    refined = refined.select(refined.sizes > 0)
    windows, _, sizes = tr._tuning_windows(p, refined, train, labels, models.stats)
    new = [windows.take(np.arange(stop - size, stop))
           for size, stop in zip(sizes.tolist(), np.cumsum(sizes).tolist())]
    old = []
    for q in range(len(refined.queries)):
        recs = [oracles.get(train, *train.key(e.record)) for e in oracles.entries(refined, q)]
        old.append([oracles.lookback_window(train, rec, labels[train.row(rec.county, rec.year)],
                                            p.w)
                    for rec in recs if oracles.county_years(train, rec.county)[0] < rec.year])
    tables = [oracles.window_table(p, w) for w in old]
    got = bb.stack_tables(p, [bb.window_table(p, train, w) for w in new])
    want = oracles.stack_tables(p, tables)
    assert len(set(want[3])) > 1, "tables of different sample counts: some are padded"
    assert_same_table(got, want)


def test_stack_pads_history_width_and_orders_repeated_targets(seed_run):
    """Tables whose histories are 2, 3, and 3 seasons wide, the narrow one
    holding a history that does not start at its first triple; the last
    table repeats one target season with a larger label before a smaller."""
    _, models, _ = seed_run
    train, labels, p = models.train_n, models.model_labels, models.lyra
    groups = [[("c001", 2002, 0.0), ("c000", 2002, 0.0)], [("c001", 2004, 0.0)],
              [("c004", 2004, 1.0), ("c004", 2004, -1.0)]]
    # one call per window: a repeated target takes a label of its own
    new = [oracles.window_batch(
        [oracles.window_list(bb.lookback_windows(train, [train.row(c, y)], labels + shift, p.w))[0]
         for c, y, shift in keys]) for keys in groups]
    old = [[oracles.lookback_window(train, oracles.get(train, c, y),
                                    labels[train.row(c, y)] + shift, p.w)
            for c, y, shift in keys] for keys in groups]
    assert_same_table(bb.stack_tables(p, [bb.window_table(p, train, w) for w in new]),
                      oracles.stack_tables(p, [oracles.window_table(p, w) for w in old]))


def test_prediction_windows_with_context_extras(seed_run):
    cfg, models, ctx = seed_run
    train, test, stats, p = models.train_n, models.test_n, models.stats, models.lyra
    context_cfg = replace(cfg, threshold=0.5, integration="context")
    counties = models.test_counties
    labels = models.model_labels[[test.row(county, cfg.test_year) for county in counties]]
    refined = pl.retrieve_refine(context_cfg, models, ctx)[1]
    extras, old = [], []
    for q, (county, label) in enumerate(zip(counties, labels)):
        entries = oracles.entries(refined, q)
        values = [stats.normalize_label(e.label_refined) for e in entries]
        extras.append(([e.record for e in entries], values))
        extra = [(oracles.get(train, *train.key(e.record)), value)
                 for e, value in zip(entries, values)]
        old.append(oracles.lookback_window(train, oracles.get(test, county, cfg.test_year),
                                           label, p.w, extra))
    new = bb.lookback_windows(train, [test.row(county, cfg.test_year) for county in counties],
                              models.model_labels, p.w, oracles.extras_of(extras))
    assert new.lengths.max() > p.w, "some windows must carry extras"
    assert_same_table(bb.window_table(p, train, new), oracles.window_table(p, old))


def close(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


def same_refined(new, q, old, train, seed, sigma):
    """Query q's part of a refined set names the same seasons, in order,
    with the same methods and label bits as the record-based oracle, and
    bias_hat within 1e-12 of its `np.polyfit` lines; every entry's noise
    is the next of one generator's scalar draws, in entry order."""
    assert (new.queries[q], new.target_year, new.sigma) == \
        (old.query, old.target_year, old.sigma)
    got_entries = oracles.entries(new, q)
    assert len(got_entries) == len(old.entries)
    draws = np.random.default_rng(seed)
    for got, want in zip(got_entries, old.entries):
        assert train.key(got.record) == (want.record.county, want.record.year)
        assert (got.refined, got.method) == (want.refined, want.method)
        assert float(got.label).hex() == float(want.label).hex()
        assert close(got.bias_hat, want.bias_hat) and close(got.label_refined, want.label_refined)
        eps = float(draws.standard_normal()) if sigma > 0 else 0.0
        shifted = got.label + got.bias_hat + sigma * eps if got.refined else got.label
        assert float(got.label_refined).hex() == float(shifted).hex()


@pytest.mark.parametrize("mode, top_k", [("residual", None), ("residual", 1),
                                         ("embedding", None), ("neighboring", None)])
@pytest.mark.parametrize("sigma, copies", [(0.0, 1), (0.3, 2)])
def test_samples_and_refinement_match_records(seed_run, mode, top_k, sigma, copies):
    cfg, models, ctx = seed_run
    train, stats = models.train_n, models.stats
    results = []
    for county in models.test_counties:
        if mode == "neighboring":
            results.append(rt.retrieve_neighboring(county, ctx.adjacency, train))
        else:
            panel = ctx.residuals if mode == "residual" else ctx.mean_emb
            results.append(rt.retrieve(county, panel, train, threshold=0.5, top_k=top_k))
    args = dict(sigma=sigma, target_year=cfg.test_year, copies=copies, stats=stats)
    new = rf.refine_labels(results, train, ctx.bias_table, seeds=range(len(results)), **args)
    for idx, result in enumerate(results):
        old = rt.RetrievalResult(query=result.query, matched=result.matched,
                                 samples=oracles.collect_samples(result.matched, train))
        assert result.samples.dtype == np.int64
        assert [train.key(r) for r in result.samples.tolist()] == \
            [(rec.county, rec.year) for rec in old.samples]
        same_refined(new, idx, oracles.refine_labels(old, ctx.biases, seed=idx, **args), train,
                     idx, sigma)
    assert max(len(result.samples) for result in results) > 0, \
        "some county must retrieve samples"
    assert "ols" in set(new.method.tolist())
