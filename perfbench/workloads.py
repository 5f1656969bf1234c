"""The benchmark's workloads: panel generator settings and experiment configs.

Each workload is a synthetic county-year panel, generated from the
workload seed, plus the experiment run on it through the public pipeline
API (`pipeline.ablate` or `pipeline.run_experiment`).  `smoke=True` gives
a shrunk copy with the same code paths, for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ratar.backbone import LyraDims
from ratar.data import SyntheticConfig, generate_synthetic
from ratar.pipeline import ExperimentConfig
from ratar.training import TrainConfig

# Every wrapped layer function, as (module, attribute path).  The tracer
# fails when one of these no longer exists.
LAYER_FUNCTIONS = (
    ("data", "load_dataset"),
    ("data", "split_by_test_year"),
    ("data", "zscore_apply"),
    ("numcore", "ComputeTape.backward"),
    ("backbone", "global_forward"),
    ("backbone", "lyra_forward"),
    ("backbone", "gru_encode"),
    ("backbone", "lyra_predict"),
    ("training", "train_global"),
    ("training", "train_lyra"),
    ("training", "train_gru_att"),
    ("training", "fine_tune"),
    ("training", "Adam.step"),
    ("retrieval", "compute_residuals"),
    ("retrieval", "retrieve"),
    ("retrieval", "centered_cosine"),
    ("refinement", "fit_year_regressor"),
    ("refinement", "build_bias_matrix"),
    ("refinement", "refine_labels"),
    ("pipeline", "evaluate"),
)

# Layer rows that cover several functions.  `run_experiment` never trains
# the pooled-only ablation backbone, so a row of its own would read zero
# on `retrieve_wide`; the trace file keeps every span by its function name.
ROW_GROUPS = {
    "training.train": ("training.train_global", "training.train_lyra",
                       "training.train_gru_att"),
}

MODULES = ("data", "numcore", "backbone", "training", "retrieval", "refinement",
           "pipeline")

# numcore functions that are not tensor ops (excluded from numcore.ops)
NON_OPS = frozenset({"backward", "grad_check"})

ABLATE_VARIANTS = ("ratar", "wo_refine", "lyra", "gruatt", "ratar_context")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "ablate" or "run_experiment"
    synth: dict  # SyntheticConfig fields except seed
    experiment: dict  # ExperimentConfig fields except test_year, train, dims
    train: dict  # TrainConfig fields
    dims: dict  # LyraDims fields
    smoke: dict = field(default_factory=dict)  # overrides per section

    @property
    def variants(self) -> tuple:
        return ABLATE_VARIANTS if self.entry == "ablate" else ("ratar",)

    def required_functions(self) -> tuple:
        """Layer functions that must record calls on this workload."""
        names = [f"{mod}.{attr}" for mod, attr in LAYER_FUNCTIONS]
        if self.entry != "ablate":
            names.remove("training.train_gru_att")
            if self.experiment["integration"] != "finetune":
                names.remove("training.fine_tune")
        return tuple(names)

    def shrunk(self) -> "Workload":
        s = self.smoke
        return replace(
            self,
            synth={**self.synth, **s.get("synth", {})},
            experiment={**self.experiment, **s.get("experiment", {})},
            train={**self.train, **s.get("train", {})},
            dims={**self.dims, **s.get("dims", {})},
            smoke={},
        )

    def panel(self, seed: int):
        """The generated Dataset for `seed`."""
        ds, _truth = generate_synthetic(SyntheticConfig(seed=seed, **self.synth))
        return ds

    def config(self, test_year: int):
        """The ExperimentConfig run on a panel whose last year is `test_year`."""
        return ExperimentConfig(
            test_year=test_year,
            train=TrainConfig(**self.train),
            dims=LyraDims(**self.dims),
            out_dir=None,
            **self.experiment,
        )


_PANEL = dict(n_years=12, n_hidden_clusters=4, year_bias_slope=0.6,
              year_shock_std=0.1, obs_noise_std=0.1)

# The c07 fixture's experiment, model and training settings.  Each workload
# starts from these and changes only what it is about.
_C07_EXPERIMENT = dict(w=5, threshold=0.5, top_k=1, integration="finetune",
                       sigma=0.0, seeds=(0,), global_H=16, global_readout_hidden=0)
_C07_TRAIN = dict(lr=3e-3, batch_size=64, epochs=20, seed=0, fine_tune_lr=1e-3,
                  fine_tune_epochs=2, freeze_encoder=True)
_C07_DIMS = dict(d=12, H=16, Z=8, E=4, attn_hidden=0, mlp_hidden=0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ablate_c07",
            entry="ablate",
            synth=dict(n_counties=8, T=40, d=12, **_PANEL),
            experiment=_C07_EXPERIMENT,
            train=_C07_TRAIN,
            dims=_C07_DIMS,
            smoke=dict(synth=dict(T=12), train=dict(epochs=1)),
        ),
        Workload(
            name="retrieve_wide",
            entry="run_experiment",
            synth=dict(n_counties=200, T=4, d=8, **_PANEL),
            experiment={**_C07_EXPERIMENT, "integration": "context", "global_H": 8},
            train={**_C07_TRAIN, "epochs": 2, "batch_size": 256},
            dims={**_C07_DIMS, "d": 8, "H": 8},
            smoke=dict(synth=dict(n_counties=24)),
        ),
        Workload(
            name="finetune_county",
            entry="run_experiment",
            synth=dict(n_counties=16, T=20, d=8, **_PANEL),
            experiment={**_C07_EXPERIMENT, "global_H": 8},
            # the default per-county fine-tune: 20 epochs, encoder not frozen
            train={**_C07_TRAIN, "epochs": 5, "fine_tune_lr": 1e-4,
                   "fine_tune_epochs": 20, "freeze_encoder": False},
            dims={**_C07_DIMS, "d": 8, "H": 8},
            smoke=dict(synth=dict(n_counties=6, T=8), train=dict(epochs=1, fine_tune_epochs=2)),
        ),
    )
}


def get(name: str, smoke: bool = False) -> Workload:
    wl = WORKLOADS[name]
    return wl.shrunk() if smoke else wl
