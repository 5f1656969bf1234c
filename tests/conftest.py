"""Session fixtures shared by the acceptance tests.

Two synthetic panels get trained models here: a strongly trended one
that exercises label refinement, and a larger clustered one for the
ablation matrix, integration parity, and retrieval relevance checks.
Both are deliberately desk-scale so the whole suite stays in CI range.
"""
import time

import pytest

from ratar import pipeline as pl
from ratar.backbone import LyraDims
from ratar.data import SyntheticConfig, generate_synthetic
from ratar.training import TrainConfig


class RefineSetup:
    def __init__(self):
        self.synth = SyntheticConfig(
            n_counties=40, n_years=10, T=40, d=12, n_hidden_clusters=2,
            year_bias_slope=2.0, year_shock_std=0.05, obs_noise_std=0.1,
            seed=7,
        )
        self.dataset, self.truth = generate_synthetic(self.synth)
        self.test_year = max(self.dataset.years)
        self.cfg = pl.ExperimentConfig(
            test_year=self.test_year, w=3, threshold=0.5, sigma=0.0,
            seeds=(0,),
            train=TrainConfig(lr=3e-3, batch_size=64, epochs=20, seed=0),
            dims=LyraDims(d=12, H=12, Z=6, E=3, attn_hidden=0, mlp_hidden=0),
            global_H=12, global_readout_hidden=0, out_dir=None,
        )
        self.models = pl.train_models(self.cfg, self.dataset, 0)
        ctx = pl.retrieval_context(self.cfg, self.models, {})
        self.embeddings, self.regressors, self.biases, self.bias_table = (
            ctx.embeddings, ctx.regressors, ctx.biases, ctx.bias_table)


@pytest.fixture(scope="session")
def refine_setup():
    return RefineSetup()


class AblationSetup:
    def __init__(self):
        self.synth = SyntheticConfig(
            n_counties=60, n_years=12, T=50, d=12, n_hidden_clusters=4,
            year_bias_slope=0.6, year_shock_std=0.1, obs_noise_std=0.1,
            seed=11,
        )
        self.dataset, self.truth = generate_synthetic(self.synth)
        self.test_year = max(self.dataset.years)
        self.cfg = pl.ExperimentConfig(
            test_year=self.test_year, w=5, threshold=0.5, top_k=1,
            integration="finetune", sigma=0.0, seeds=(0, 1, 2),
            train=TrainConfig(lr=3e-3, batch_size=64, epochs=20, seed=0,
                              fine_tune_lr=1e-3, fine_tune_epochs=2,
                              freeze_encoder=True),
            dims=LyraDims(d=12, H=16, Z=8, E=4, attn_hidden=0, mlp_hidden=0),
            global_H=16, global_readout_hidden=0, out_dir=None,
        )
        t0 = time.perf_counter()
        self.reports = pl.ablate(self.cfg, dataset=self.dataset)
        self.elapsed = time.perf_counter() - t0
        self.rmse = {name: rep.rmse_mean for name, rep in self.reports.items()}
        # seed-0 models for the retrieval-relevance comparison
        self.models = self.reports["ratar"].first_seed[0]
        self.cluster = {
            county: self.truth.rows[(county, self.dataset.years[0])].cluster
            for county in self.dataset.counties
        }


@pytest.fixture(scope="session")
def ablation_setup():
    return AblationSetup()
