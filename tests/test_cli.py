"""Command-line interface tests: argument parsing, config-file merging,
each subcommand end to end on tiny synthetic data, and failure exit codes."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from ratar import cli
from ratar import pipeline as pl
from ratar import retrieval as rt
from ratar.backbone import GruParams, save_checkpoint
from ratar.data import load_adjacency, load_dataset
from ratar.numcore import ContractError


def tiny_config(tmp_path, **overrides):
    blob = dict(
        synthetic=dict(n_counties=8, n_years=5, T=8, d=4, n_hidden_clusters=2,
                       year_bias_slope=0.15, year_shock_std=0.2,
                       obs_noise_std=0.1, seed=0),
        test_year=2004,
        w=2,
        threshold=0.3,
        sigma=0.0,
        seeds=[0],
        train=dict(lr=3e-3, batch_size=None, epochs=8, seed=0,
                   fine_tune_lr=1e-3, fine_tune_epochs=3),
        dims=dict(d=4, H=5, Z=6, E=3, attn_hidden=0, mlp_hidden=0),
        global_H=6,
        global_readout_hidden=0,
    )
    blob.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    return str(path)


SYNTH_FLAGS = ["--counties", "8", "--years", "5", "--season-days", "8",
               "--drivers", "4", "--clusters", "2", "--slope", "0.15",
               "--shock-std", "0.2", "--noise-std", "0.1", "--seed", "0"]


class TestParsing:
    def test_seed_list(self):
        assert cli._parse_seeds("0,1,2") == (0, 1, 2)

    def test_seed_single(self):
        assert cli._parse_seeds("7") == (7,)

    def test_seed_garbage_rejected(self):
        with pytest.raises(ContractError):
            cli._parse_seeds("a,b")

    def test_values_int_axis(self):
        assert cli._parse_values("lookback", "1,3,5") == [1, 3, 5]

    def test_values_float_axis(self):
        assert cli._parse_values("threshold", "0.2,0.9") == [0.2, 0.9]

    def test_flag_overrides_config(self, tmp_path):
        cfgp = tiny_config(tmp_path)
        parser = cli._build_parser()
        args = parser.parse_args(["run", "--config", cfgp, "--threshold", "0.9",
                                  "--seed", "1,2"])
        cfg = cli._experiment_config(args)
        assert cfg.threshold == 0.9          # flag wins
        assert cfg.test_year == 2004         # from file
        assert cfg.seeds == (1, 2)           # flag wins
        assert cfg.dims.H == 5               # nested dims from file
        assert cfg.train.epochs == 8         # nested train from file

    def test_missing_test_year_rejected(self, tmp_path):
        parser = cli._build_parser()
        args = parser.parse_args(["run", "--out", str(tmp_path)])
        with pytest.raises(ContractError, match="test"):
            cli._experiment_config(args)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"test_year": 2004, "bogus_knob": 1}))
        parser = cli._build_parser()
        args = parser.parse_args(["run", "--config", str(path)])
        with pytest.raises(ContractError, match="bogus_knob"):
            cli._experiment_config(args)

    def test_label_source_flag_gone(self):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(
                ["run", "--test-year", "2004", "--label-source", "observed"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("blob, message", [
        ({"refine_label_source": "observed"}, "bad config"),
        ({"train": {"target_label_source": "observed"}}, "bad train config"),
    ])
    def test_removed_label_source_keys_rejected(self, tmp_path, capsys, blob, message):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"test_year": 2004, **blob}))
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "label_source" in err

    @pytest.mark.parametrize("blob, message", [
        ({"test_year": 2004, "seeds": 0}, "seeds must be a list of ints, got 0"),
        ([{"test_year": 2004}], "must hold a JSON object"),
        ({"test_year": 2004, "train": [1]}, "train must be a JSON object, got [1]"),
        ({"test_year": 2004, "dims": 3}, "dims must be a JSON object"),
        ({"test_year": 2004, "synthetic": "small"}, "synthetic must be a JSON object"),
        ({"test_year": 2004, "seeds": "01"}, "seeds must be a list of ints, got '01'"),
    ], ids=["seeds_int", "top_level_list", "train_list", "dims_int", "synthetic_str",
            "seeds_str"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, blob, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["run", "--mode", "psychic"])

    def test_predict_has_no_county_flag(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(
                ["predict", "--county", "c003", "--test-year", "2004"])

    def test_cli_uses_only_public_pipeline_names(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for a in node.names if a.name == "pipeline"}
        assert aliases
        private = sorted(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.value, ast.Name)
                         and node.value.id in aliases and node.attr.startswith("_"))
        assert private == []


class TestSynth:
    def test_writes_dataset(self, tmp_path):
        rc = cli.main(["synth", "--out", str(tmp_path)] + SYNTH_FLAGS)
        assert rc == 0
        ds = load_dataset(str(tmp_path / "data.csv"))
        assert len(ds.records) == 8 * 5
        assert ds.T == 8 and ds.d == 4
        adj = load_adjacency(str(tmp_path / "adjacency.csv"))
        assert adj
        assert (tmp_path / "truth.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        cli.main(["synth", "--out", str(tmp_path / "a")] + SYNTH_FLAGS)
        cli.main(["synth", "--out", str(tmp_path / "b")] + SYNTH_FLAGS)
        a = (tmp_path / "a" / "data.csv").read_bytes()
        b = (tmp_path / "b" / "data.csv").read_bytes()
        assert a == b


class TestRun:
    def test_end_to_end(self, tmp_path, capsys):
        cfgp = tiny_config(tmp_path)
        out = tmp_path / "run"
        rc = cli.main(["run", "--config", cfgp, "--out", str(out)])
        assert rc == 0
        assert (out / "report.csv").exists()
        assert (out / "predictions.csv").exists()
        assert "rmse" in capsys.readouterr().out.lower()

    def test_failure_exits_nonzero_with_stage(self, tmp_path, capsys):
        cfgp = tiny_config(tmp_path, test_year=2050)
        rc = cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "split" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "retrieve"])
    def test_top_k_zero_exits_2(self, tmp_path, capsys, command):
        cfgp = tiny_config(tmp_path)
        rc = cli.main([command, "--config", cfgp, "--top-k", "0",
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "top_k must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "retrieve"])
    def test_duplicate_seeds_exit_2(self, tmp_path, capsys, command):
        rc = cli.main([command, "--config", tiny_config(tmp_path), "--seed", "0,0,1",
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "seeds must be distinct, got [0, 0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--threshold", "nan", "threshold must be finite, got nan"),
        ("--sigma", "nan", "sigma must be finite and nonnegative, got nan"),
        ("--sigma", "inf", "sigma must be finite and nonnegative, got inf"),
        ("--lr", "nan", "lr must be finite, got nan"),
        ("--fine-tune-lr", "nan", "fine_tune_lr must be finite, got nan"),
        ("--clip-norm", "nan", "clip_norm must be finite, got nan"),
        ("--seed", "-1", "seeds must be non-negative, got [-1]"),
        ("--global-h", "0", "global_H must be at least 1, got 0"),
        ("--global-readout-hidden", "-1", "global_readout_hidden must be at least 0, got -1"),
        ("--dim-h", "0", "dims.H must be at least 1, got 0"),
        ("--dim-z", "0", "dims.Z must be at least 1, got 0"),
    ])
    def test_impossible_config_exits_2_before_load(self, tmp_path, capsys, flag, value,
                                                   message):
        rc = cli.main(["run", "--config", tiny_config(tmp_path), flag, value,
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: [config] {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["train-global", "train-lyra", "retrieve", "refine",
                                         "predict"])
    def test_piecewise_config_error_is_tagged(self, tmp_path, capsys, command):
        rc = cli.main([command, "--config", tiny_config(tmp_path), "--threshold", "nan",
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == "error: [config] threshold must be finite, got nan\n"
        assert not (tmp_path / "x").exists()

    def test_missing_data_file(self, tmp_path, capsys):
        rc = cli.main(["run", "--data", str(tmp_path / "nope.csv"),
                       "--test-year", "2004", "--out", str(tmp_path / "x")])
        assert rc != 0
        assert capsys.readouterr().err.strip()


class TestPiecewise:
    """synth -> train-global -> train-lyra -> retrieve -> refine -> predict."""

    def test_stage_chain(self, tmp_path):
        data_dir = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data_dir)] + SYNTH_FLAGS) == 0
        cfgp = tiny_config(tmp_path, synthetic=None,
                           data_path=str(data_dir / "data.csv"))
        common = ["--config", cfgp]

        gdir = tmp_path / "g"
        rc = cli.main(["train-global"] + common + ["--out", str(gdir)])
        assert rc == 0
        assert (gdir / "global.npz").exists()
        blob = json.loads((gdir / "train_global.json").read_text())
        assert np.isfinite(blob["final_loss"])

        ldir = tmp_path / "l"
        rc = cli.main(["train-lyra"] + common + [
            "--global-ckpt", str(gdir / "global.npz"), "--out", str(ldir)])
        assert rc == 0
        assert (ldir / "lyra.npz").exists()
        assert (ldir / "train_lyra.csv").read_text().startswith("epoch,loss")

        rdir = tmp_path / "r"
        rc = cli.main(["retrieve"] + common + [
            "--global-ckpt", str(gdir / "global.npz"), "--out", str(rdir)])
        assert rc == 0
        lines = (rdir / "retrieval.csv").read_text().splitlines()
        assert lines[0] == "query,matched,similarity,sample_year"

        fdir = tmp_path / "f"
        rc = cli.main(["refine"] + common + [
            "--global-ckpt", str(gdir / "global.npz"),
            "--lyra-ckpt", str(ldir / "lyra.npz"), "--out", str(fdir)])
        assert rc == 0
        assert (fdir / "bias.csv").read_text().startswith("county,source_year")
        assert (fdir / "refined.csv").read_text().startswith("query,source_county")

        pdir = tmp_path / "p"
        rc = cli.main(["predict"] + common + [
            "--global-ckpt", str(gdir / "global.npz"),
            "--lyra-ckpt", str(ldir / "lyra.npz"), "--out", str(pdir)])
        assert rc == 0
        lines = (pdir / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "county,year,prediction,fallback"
        assert len(lines) == 1 + 8  # one row per county

    def test_predict_rejects_checkpoint_of_other_window(self, tmp_path, capsys):
        """A cross-year checkpoint trained with w=2 cannot predict under --w 3."""
        data_dir = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data_dir)] + SYNTH_FLAGS) == 0
        cfgp = tiny_config(tmp_path, synthetic=None, data_path=str(data_dir / "data.csv"))
        gdir, ldir = tmp_path / "g", tmp_path / "l"
        assert cli.main(["train-global", "--config", cfgp, "--out", str(gdir)]) == 0
        assert cli.main(["train-lyra", "--config", cfgp, "--global-ckpt",
                         str(gdir / "global.npz"), "--out", str(ldir)]) == 0
        capsys.readouterr()
        rc = cli.main(["predict", "--config", cfgp, "--w", "3",
                       "--global-ckpt", str(gdir / "global.npz"),
                       "--lyra-ckpt", str(ldir / "lyra.npz"), "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "w=2" in err and "w=3" in err
        assert not (tmp_path / "p" / "predictions.csv").exists()

    def test_predict_rejects_checkpoint_of_other_test_year(self, tmp_path, capsys):
        """A cross-year model trained with 2004's labels cannot predict 2004."""
        data_dir = tmp_path / "data"
        flags = SYNTH_FLAGS.copy()
        flags[flags.index("--years") + 1] = "6"  # 2000..2005
        assert cli.main(["synth", "--out", str(data_dir)] + flags) == 0
        cfgp = tiny_config(tmp_path, synthetic=None, data_path=str(data_dir / "data.csv"))
        gdir, ldir = tmp_path / "g", tmp_path / "l"
        assert cli.main(["train-global", "--config", cfgp, "--test-year", "2005",
                         "--out", str(gdir)]) == 0
        assert cli.main(["train-lyra", "--config", cfgp, "--test-year", "2005",
                         "--global-ckpt", str(gdir / "global.npz"), "--out", str(ldir)]) == 0
        capsys.readouterr()
        rc = cli.main(["predict", "--config", cfgp, "--test-year", "2004",
                       "--global-ckpt", str(gdir / "global.npz"),
                       "--lyra-ckpt", str(ldir / "lyra.npz"), "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2005" in err and "2004" in err
        assert not (tmp_path / "p" / "predictions.csv").exists()

    def test_predict_rejects_global_checkpoint_of_other_split(self, tmp_path, capsys,
                                                               monkeypatch):
        """A global model fit on 2004's labels cannot substitute labels for 2004.

        The checkpoint is refused before any model is trained; on its own
        split it is used, and only the missing cross-year model trains.
        """
        data_dir = tmp_path / "data"
        flags = SYNTH_FLAGS.copy()
        flags[flags.index("--years") + 1] = "6"  # 2000..2005
        assert cli.main(["synth", "--out", str(data_dir)] + flags) == 0
        cfgp = tiny_config(tmp_path, synthetic=None, data_path=str(data_dir / "data.csv"))
        gdir = tmp_path / "g"
        assert cli.main(["train-global", "--config", cfgp, "--test-year", "2005",
                         "--out", str(gdir)]) == 0
        trained = []
        for name in ("train_global", "train_lyra"):
            def counting(*args, _name=name, _original=getattr(pl, name), **kwargs):
                trained.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(pl, name, counting)
        capsys.readouterr()
        rc = cli.main(["predict", "--config", cfgp, "--test-year", "2004",
                       "--global-ckpt", str(gdir / "global.npz"), "--out", str(tmp_path / "p")])
        assert rc == 2
        assert str(gdir / "global.npz") in capsys.readouterr().err
        assert not (tmp_path / "p" / "predictions.csv").exists()
        assert trained == []
        assert cli.main(["predict", "--config", cfgp, "--test-year", "2005",
                         "--global-ckpt", str(gdir / "global.npz"),
                         "--out", str(tmp_path / "p5")]) == 0
        assert trained == ["train_lyra"]

    def test_predict_rejects_checkpoint_without_stats(self, tmp_path, capsys):
        cfgp = tiny_config(tmp_path)
        path = str(tmp_path / "global.npz")
        save_checkpoint(path, GruParams.init(d=4, H=6, readout_hidden=0), None)
        rc = cli.main(["predict", "--config", cfgp, "--global-ckpt", path,
                       "--out", str(tmp_path / "p")])
        assert rc == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "p" / "predictions.csv").exists()

    def test_predict_rejects_malformed_checkpoint_meta(self, tmp_path, capsys):
        """A checkpoint whose meta lacks a field is an error, not a traceback."""
        cfgp = tiny_config(tmp_path)
        path = str(tmp_path / "global.npz")
        save_checkpoint(path, GruParams.init(d=4, H=6, readout_hidden=0), None)
        with np.load(path) as z:
            arrays = {key: z[key] for key in z.files}
        arrays["meta"] = np.array(json.dumps({"d": 4, "readout_hidden": 0}))
        np.savez(path, **arrays)
        rc = cli.main(["predict", "--config", cfgp, "--global-ckpt", path,
                       "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert path in err and "'H'" in err

    def test_predict_without_checkpoints_trains_in_place(self, tmp_path):
        cfgp = tiny_config(tmp_path, integration="none", refine=False)
        pdir = tmp_path / "p2"
        rc = cli.main(["predict", "--config", cfgp, "--out", str(pdir)])
        assert rc == 0
        lines = (pdir / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 8

    def test_predict_computes_residuals_once(self, tmp_path, monkeypatch):
        cfgp = tiny_config(tmp_path)
        calls = []
        original = rt.compute_residuals

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rt, "compute_residuals", counting)
        pdir = tmp_path / "p3"
        assert cli.main(["predict", "--config", cfgp, "--out", str(pdir)]) == 0
        assert len(calls) == 1
        # same predictions, to the last digit, as the full run's seed 0
        rdir = tmp_path / "run3"
        assert cli.main(["run", "--config", cfgp, "--out", str(rdir)]) == 0
        run_rows = (rdir / "predictions.csv").read_text().strip().splitlines()[1:]
        want = {}
        for line in run_rows:
            _seed, county, year, pred, _label, _err, fallback = line.split(",")
            want[county] = f"{county},{year},{pred},{fallback}"
        got = (pdir / "predictions.csv").read_text().strip().splitlines()[1:]
        assert got == [want[c] for c in sorted(want)]


def csv_rows(path, prefix=""):
    return [line for line in path.read_text().splitlines()[1:]
            if line.startswith(prefix)]


class TestRetrieveRefine:
    """`retrieve` and `refine` write what `run` computes for the same config."""

    def test_retrieve_trains_no_cross_year_model(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("retrieve trained the cross-year model")

        monkeypatch.setattr(pl, "train_lyra", refuse)
        cfgp = tiny_config(tmp_path)
        for mode in ("residual", "neighboring"):
            assert cli.main(["retrieve", "--config", cfgp, "--mode", mode,
                             "--out", str(tmp_path / mode)]) == 0

    @pytest.mark.parametrize("command", ["retrieve", "refine"])
    def test_unknown_county_refused_before_training(self, tmp_path, monkeypatch, capsys,
                                                     command):
        trained = []
        for name in ("train_global", "train_lyra"):
            def counting(*args, _name=name, _original=getattr(pl, name), **kwargs):
                trained.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(pl, name, counting)
        cfgp = tiny_config(tmp_path)
        assert cli.main([command, "--config", cfgp, "--county", "zz",
                         "--out", str(tmp_path / "o")]) == 2
        assert "county zz has no test-year record" in capsys.readouterr().err
        assert trained == []
        assert cli.main([command, "--config", cfgp, "--county", "c003",
                         "--out", str(tmp_path / "o")]) == 0
        assert trained

    def test_county_rows_match_run(self, tmp_path):
        cfgp = tiny_config(tmp_path, sigma=None)  # default sigma: noise on
        fdir, rdir = tmp_path / "f", tmp_path / "run"
        assert cli.main(["refine", "--config", cfgp, "--county", "c003",
                         "--out", str(fdir)]) == 0
        assert cli.main(["run", "--config", cfgp, "--out", str(rdir)]) == 0
        got = csv_rows(fdir / "refined.csv")
        assert got and all(line.startswith("c003,") for line in got)
        assert got == csv_rows(rdir / "refined.csv", "c003,")

    def test_no_refine_leaves_labels(self, tmp_path):
        cfgp = tiny_config(tmp_path, sigma=None)
        fdir = tmp_path / "f"
        assert cli.main(["refine", "--config", cfgp, "--no-refine",
                         "--out", str(fdir)]) == 0
        rows = [line.split(",") for line in csv_rows(fdir / "refined.csv")]
        assert rows
        for _query, _county, _year, label, bias_hat, label_refined, method in rows:
            assert float(bias_hat) == 0.0
            assert label_refined == label
            assert method == "missing"

    def test_embedding_mode_embeds_once(self, tmp_path, monkeypatch):
        calls = []
        original = pl.embed_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pl, "embed_batch", counting)
        cfgp = tiny_config(tmp_path)
        assert cli.main(["refine", "--config", cfgp, "--mode", "embedding",
                         "--out", str(tmp_path / "f")]) == 0
        assert len(calls) == 1


class TestSweepAblate:
    def test_sweep_writes_consolidated_csv(self, tmp_path):
        cfgp = tiny_config(tmp_path)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", cfgp, "--out", str(out),
                       "--axis", "threshold", "--values", "0.2,0.9"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "axis,value,rmse_mean,rmse_std,retrieved_total"
        assert len(lines) == 3

    def test_ablate_writes_variant_table(self, tmp_path, capsys):
        cfgp = tiny_config(tmp_path)
        out = tmp_path / "ablate"
        rc = cli.main(["ablate", "--config", cfgp, "--out", str(out)])
        assert rc == 0
        lines = (out / "ablate.csv").read_text().strip().splitlines()
        assert lines[0] == "variant,rmse_mean,rmse_std"
        assert len(lines) >= 5
        assert "ratar" in capsys.readouterr().out


class TestNoTestLabel:
    """No experiment subcommand gives its stages a test-year label."""

    @pytest.mark.filterwarnings("ignore:retrieved sample")
    @pytest.mark.parametrize("command", [
        ["train-global"], ["train-lyra"], ["retrieve"], ["refine"], ["predict"], ["run"],
        ["sweep", "--axis", "threshold", "--values", "0.3"], ["ablate"],
    ], ids=lambda command: command[0])
    def test_train_models_gets_no_test_label(self, tmp_path, monkeypatch, command):
        original, reads = pl.train_models, []

        def recording(cfg, ds, *args, **kwargs):
            reads.append(ds.labels(ds.rows[ds.row_years[ds.rows] >= cfg.test_year]))
            return original(cfg, ds, *args, **kwargs)

        monkeypatch.setattr(pl, "train_models", recording)
        assert cli.main([command[0], "--config", tiny_config(tmp_path),
                         "--out", str(tmp_path / "out"), *command[1:]]) == 0
        assert reads and all(len(labels) == 8 and np.isnan(labels).all() for labels in reads)
