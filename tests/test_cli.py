import dataclasses
import json
import os

import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad import checkpoint, flow
from flowgad.cli import load_dataset, main, parse_config_file
from flowgad.data import (Graph, GraphSet, make_anomaly_split, payload_fingerprint,
                          write_tudataset)
from flowgad.errors import ConfigError
from flowgad.pipeline import (ExperimentConfig, prepare_experiment,
                              report_from_dict, run_experiment)

BASE_CONFIG = """\
# quick synthetic run
dataset = planted
seeds = 0,1
test_fraction = 0.2
d = 8
hidden = 8
k_se = 8
s_epochs = 3
n_epochs = 3
t_epochs = 3
max_graphs = 20
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -------------------------------------------------------------------- prepare

def test_prepare_reports_stats_and_writes_json(tmp_path, hand_fixture_dir, capsys):
    out = tmp_path / "tiny.json"
    assert main(["prepare", str(hand_fixture_dir), "TINY",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "TINY: 2 graphs" in stdout
    assert "fingerprint:" in stdout
    payload = json.loads(out.read_text())
    assert payload["name"] == "TINY"
    assert len(payload["graphs"]) == 2


def test_prepare_missing_directory_exits_2(tmp_path, capsys):
    code = main(["prepare", str(tmp_path / "absent"), "NOPE",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "NOPE" in capsys.readouterr().err


# --------------------------------------------------------------------- config

def test_config_file_parsing(tmp_path):
    cfg = parse_config_file(write_config(tmp_path))
    assert cfg.dataset == "planted"
    assert cfg.seeds == (0, 1)
    assert cfg.d == 8 and cfg.max_graphs == 20


def test_config_errors_name_the_line(tmp_path):
    bad = write_config(tmp_path, "alpha = 0.7\nalpha = 0.8\n", "dup.cfg")
    with pytest.raises(ConfigError, match="dup.cfg:2"):
        parse_config_file(bad)
    bad = write_config(tmp_path, "d = eight\n", "badint.cfg")
    with pytest.raises(ConfigError, match="badint.cfg:1"):
        parse_config_file(bad)
    bad = write_config(tmp_path, "just words\n", "noeq.cfg")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(bad)


def test_every_config_field_parses_to_its_default_type(tmp_path):
    # value types come from the config's defaults, so a file spelling out
    # every default parses back to the default config, type for type
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        value = f.default
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{f.name} = {value}")
    cfg = parse_config_file(write_config(tmp_path, "\n".join(lines) + "\n"))
    assert cfg == ExperimentConfig()
    for f in dataclasses.fields(ExperimentConfig):
        assert type(getattr(cfg, f.name)) is type(f.default), f.name
    bad = write_config(tmp_path, "normalize_nf = maybe\n", "badbool.cfg")
    with pytest.raises(ConfigError, match="badbool.cfg:1"):
        parse_config_file(bad)


def test_bad_config_exits_3(tmp_path, capsys):
    bad = write_config(tmp_path, "variant = vanilla\n", "bad.cfg")
    assert main(["train", bad]) == 3
    assert "variant" in capsys.readouterr().err
    assert main(["train", str(tmp_path / "missing.cfg")]) == 3


# ------------------------------------------------------------------ end to end

def test_train_eval_plotdata_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run = str(tmp_path / "run")

    assert main(["train", cfg, "--out-dir", run]) == 0
    for seed in (0, 1):
        for name in ("encoder.ckpt", "flow.ckpt", "target.ckpt",
                     "loss_source.csv", "loss_flow.csv", "loss_target.csv"):
            assert os.path.isfile(os.path.join(run, str(seed), name)), name
    stdout = capsys.readouterr().out
    assert "seed 0: encoder trained" in stdout
    assert "seed 1: student trained" in stdout

    assert main(["eval", cfg, "--out-dir", run]) == 0
    stdout = capsys.readouterr().out
    assert "seed 0: AUC" in stdout
    assert "planted full" in stdout
    report = json.loads(open(os.path.join(run, "report.json")).read())
    assert report["dataset"] == "planted"
    assert 0.0 <= report["auc_mean"] <= 1.0
    assert len(report["per_seed"]) == 2
    scores = open(os.path.join(run, "scores.csv")).read().splitlines()
    assert scores[0] == "seed,graph,flag,score,raw"
    n_test = sum(len(p["records"]) for p in report["per_seed"])
    assert len(scores) == 1 + n_test

    assert main(["plotdata", os.path.join(run, "report.json"),
                 "--out-dir", str(tmp_path / "plots")]) == 0
    hist = open(tmp_path / "plots" / "histogram.csv").read().splitlines()
    assert hist[0] == "bin_lo,bin_hi,normal,anomalous"
    counts = np.array([[int(r.split(",")[2]), int(r.split(",")[3])]
                       for r in hist[1:]])
    assert counts.sum() == n_test
    for stage in ("source", "flow", "target"):
        emb = (tmp_path / "plots" / f"embeddings_{stage}.csv").read_text()
        header = emb.splitlines()[0].split(",")
        assert header[:2] == ["graph", "flag"] and len(header) == 2 + 8


def test_eval_report_times_setup_outside_the_digest(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out-dir", run]) == 0
    assert main(["eval", cfg, "--out-dir", run]) == 0
    with open(os.path.join(run, "report.json"), encoding="utf-8") as fh:
        written = json.load(fh)
    assert set(written["phase_seconds"]) == {"load", "setup", "scoring"}
    assert written["phase_seconds"]["setup"] >= 0.0
    assert written["phase_seconds"]["load"] >= 0.0
    report = report_from_dict(written)
    written["phase_seconds"]["setup"] += 7.0
    written["phase_seconds"]["load"] += 3.0
    assert report_from_dict(written).canonical_bytes() == report.canonical_bytes()


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    runs = []
    for name in ("a", "b"):
        run = str(tmp_path / name)
        assert main(["train", cfg, "--out-dir", run]) == 0
        assert main(["eval", cfg, "--out-dir", run]) == 0
        runs.append(run)
    for rel in (os.path.join("0", "loss_source.csv"),
                os.path.join("0", "loss_flow.csv"),
                os.path.join("0", "loss_target.csv"),
                "scores.csv"):
        a = open(os.path.join(runs[0], rel), "rb").read()
        b = open(os.path.join(runs[1], rel), "rb").read()
        assert a == b, rel


def test_variant_and_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run = str(tmp_path / "ablate")
    assert main(["train", cfg, "--out-dir", run, "--variant", "non_st",
                 "--seed-override", "7"]) == 0
    assert os.path.isfile(os.path.join(run, "7", "encoder.ckpt"))
    assert not os.path.exists(os.path.join(run, "7", "flow.ckpt"))
    assert not os.path.exists(os.path.join(run, "0"))
    capsys.readouterr()
    assert main(["eval", cfg, "--out-dir", run, "--variant", "non_st",
                 "--seed-override", "7"]) == 0
    assert "planted non_st" in capsys.readouterr().out
    report = json.loads(open(os.path.join(run, "report.json")).read())
    assert report["variant"] == "non_st"
    assert report["per_seed"][0]["seed"] == 7


@pytest.mark.parametrize("variant", ["full", "non_st", "asy_st", "non_nf"])
def test_cli_records_equal_library_records(tmp_path, variant):
    # the CLI drives the same run_seed as the library, only through
    # checkpoints, so its scores must match the in-memory run exactly
    cfg = write_config(tmp_path, BASE_CONFIG + f"variant = {variant}\n"
                       "batch_size = 3\n")
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out-dir", run]) == 0
    assert main(["eval", cfg, "--out-dir", run]) == 0
    cli_report = json.loads((tmp_path / "run" / "report.json").read_text())
    config = parse_config_file(cfg)
    report, _ = run_experiment(load_dataset(config), config)
    assert ([p["records"] for p in cli_report["per_seed"]]
            == [p["records"] for p in report.per_seed])


# ----------------------------------------------------------------- exit codes

def test_flow_phase_without_encoder_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    code = main(["train", cfg, "--out-dir", str(tmp_path / "empty"),
                 "--phase", "flow"])
    assert code == 4
    assert "missing" in capsys.readouterr().err


def test_nan_in_flow_phase_exits_5(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    config = parse_config_file(cfg)
    gs, normal, _ = prepare_experiment(load_dataset(config), config)
    n_train = len(make_anomaly_split(gs, normal, config.test_fraction, 0).train)
    real_nf_loss = flow.nf_loss
    calls = []

    def poisoned_nf_loss(*args, **kwargs):
        # batch size 1: call 2 * n_train + 1 is the first graph of epoch 2
        calls.append(None)
        loss = real_nf_loss(*args, **kwargs)
        return ad.add_scalar(loss, np.nan) if len(calls) > 2 * n_train else loss

    monkeypatch.setattr(flow, "nf_loss", poisoned_nf_loss)
    run = tmp_path / "run"
    assert main(["train", cfg, "--out-dir", str(run)]) == 5
    assert "seed 0: flow loss went non-finite (epoch 2)" in capsys.readouterr().err
    assert len(calls) == 2 * n_train + 1
    assert (run / "0" / "encoder.ckpt").is_file()
    assert not (run / "0" / "flow.ckpt").exists()


def test_truncated_checkpoint_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out-dir", run]) == 0
    path = tmp_path / "run" / "0" / "flow.ckpt"
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    capsys.readouterr()
    assert main(["eval", cfg, "--out-dir", run]) == 4
    assert "flow.ckpt" in capsys.readouterr().err


def test_corrupt_array_digit_fails_verification(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out-dir", run]) == 0
    path = tmp_path / "run" / "0" / "encoder.ckpt"
    text = path.read_text()
    # the leading digit of the first stored value: flipping it must change
    # the number, whatever its magnitude
    at = text.index('"data":[') + len('"data":[')
    at += text[at] == "-"
    digit = text[at]
    corrupt = text[:at] + ("1" if digit != "1" else "2") + text[at + 1:]
    before = json.loads(text)["arrays"]
    after = json.loads(corrupt)["arrays"]
    assert before.keys() == after.keys() and before != after
    path.write_text(corrupt)
    capsys.readouterr()
    assert main(["eval", cfg, "--out-dir", run]) == 4
    err = capsys.readouterr().err
    assert "failed verification" in err and str(path) in err


def test_checkpoint_of_unknown_model_class_exits_4(tmp_path, capsys):
    # an asy_st flow checkpoint as earlier versions wrote it: an
    # IdentityFlow without arrays, re-fingerprinted so that it verifies
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0")
                       + "variant = asy_st\n")
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out-dir", run]) == 0
    path = tmp_path / "run" / "0" / "flow.ckpt"
    payload = json.loads(path.read_text())
    del payload["fingerprint"]
    payload["meta"] = {"flow": {"class": "IdentityFlow", "args": {"d": 8}}}
    payload["arrays"] = {}
    payload["fingerprint"] = payload_fingerprint(payload)
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    capsys.readouterr()
    assert main(["eval", cfg, "--out-dir", run]) == 4
    err = capsys.readouterr().err
    assert str(path) in err and "'IdentityFlow'" in err and "retrain" in err
    assert "KeyError" not in err


def test_interrupted_output_writes_keep_previous_files(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    run = tmp_path / "run"
    assert main(["train", cfg, "--out-dir", str(run)]) == 0
    assert main(["eval", cfg, "--out-dir", str(run)]) == 0
    report, scores = run / "report.json", run / "scores.csv"
    before = report.read_bytes(), scores.read_bytes()

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"auc')
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            main(["eval", cfg, "--out-dir", str(run)])
    assert (report.read_bytes(), scores.read_bytes()) == before

    def failing_writer(fh, *args, **kwargs):
        fh.write("seed,gra")
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(checkpoint.csv, "writer", failing_writer)
        with pytest.raises(OSError, match="disk full"):
            main(["eval", cfg, "--out-dir", str(run)])
    assert scores.read_bytes() == before[1]
    assert not list(run.rglob("*.tmp"))


def test_foreign_config_checkpoint_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out-dir", run, "--phase", "source"]) == 0
    other = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0")
                         + "alpha = 0.5\n", "other.cfg")
    capsys.readouterr()
    assert main(["train", other, "--out-dir", run, "--phase", "flow"]) == 4
    assert "config" in capsys.readouterr().err


def test_eval_before_train_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["eval", cfg, "--out-dir", str(tmp_path / "void")])
    assert code == 4
    err = capsys.readouterr().err
    assert "0" in err and "1" in err and "train" in err


def test_single_class_dataset_exits_6(tmp_path, capsys):
    rng = np.random.default_rng(3)
    graphs = []
    for _ in range(8):
        n = int(rng.integers(4, 7))
        a = np.zeros((n, n))
        for i in range(n - 1):
            a[i, i + 1] = a[i + 1, i] = 1.0
        graphs.append(Graph(n=n, adjacency=a,
                            features=np.zeros((n, 0)), label=0))
    gs = GraphSet(name="MONO", graphs=graphs, label_vocabulary=(0,))
    data_dir = tmp_path / "data"
    write_tudataset(gs, str(data_dir / "MONO"))
    cfg = write_config(tmp_path, (
        "dataset = MONO\n"
        f"data_dir = {data_dir}\n"
        "seeds = 0\n"
        "test_fraction = 0.25\n"
        "d = 8\nhidden = 8\nk_se = 8\n"
        "s_epochs = 2\nn_epochs = 2\nt_epochs = 2\n"), "mono.cfg")
    run = str(tmp_path / "mono_run")
    assert main(["train", cfg, "--out-dir", run]) == 0
    code = main(["eval", cfg, "--out-dir", run])
    assert code == 6
    assert "class" in capsys.readouterr().err


def test_unreadable_dataset_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "dataset = GHOST\n"
        f"data_dir = {tmp_path}\n"
        "seeds = 0\n"), "ghost.cfg")
    assert main(["train", cfg, "--out-dir", str(tmp_path / "r")]) == 2
    assert "GHOST" in capsys.readouterr().err
