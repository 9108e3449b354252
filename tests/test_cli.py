import dataclasses
import json
import os

import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad import checkpoint, flow, pipeline
from flowgad.cli import load_dataset, main, parse_config_file
from flowgad.data import (Graph, GraphSet, dataset_fingerprint,
                          make_anomaly_split, parse_tudataset,
                          payload_fingerprint, write_tudataset)
from flowgad.errors import ConfigError
from flowgad.pipeline import (PHASES, ExperimentConfig, prepare_experiment,
                              report_from_dict, resolve_normal_class,
                              run_experiment, subsample_graphset)
from flowgad.synthetic import planted_anomaly_set

from conftest import fail_checkpoint_writes

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

def test_prepare_reports_stats_and_fingerprint(tmp_path, hand_fixture_dir,
                                               capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert main(["prepare", hand_fixture_dir, "TINY"]) == 0
    stdout = capsys.readouterr().out
    assert "TINY: 2 graphs" in stdout
    fingerprint = dataset_fingerprint(parse_tudataset(hand_fixture_dir, "TINY"))
    assert f"fingerprint: {fingerprint}\n" in stdout
    # prepare only prints; it writes no file
    assert sorted(os.listdir(tmp_path)) == before
    with pytest.raises(SystemExit) as exc:
        main(["prepare", hand_fixture_dir, "TINY", "--out", "x.json"])
    assert exc.value.code == 2


def test_prepare_missing_directory_exits_2(tmp_path, capsys):
    code = main(["prepare", str(tmp_path / "absent"), "NOPE"])
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
        lines.append(f"{f.name} = {value}")
    cfg = parse_config_file(write_config(tmp_path, "\n".join(lines) + "\n"))
    assert cfg == ExperimentConfig()
    for f in dataclasses.fields(ExperimentConfig):
        assert type(getattr(cfg, f.name)) is type(f.default), f.name


def test_bad_config_exits_3(tmp_path, capsys):
    bad = write_config(tmp_path, "variant = vanilla\n", "bad.cfg")
    assert main(["train", bad]) == 3
    assert "variant" in capsys.readouterr().err
    # a key removed from the configuration is an unknown key, named with
    # its line
    old = write_config(tmp_path, "seeds = 0\n\nreadout = max\n", "old.cfg")
    assert main(["train", old]) == 3
    assert f"{old}:3: unknown key 'readout'" in capsys.readouterr().err
    assert main(["train", str(tmp_path / "missing.cfg")]) == 3


@pytest.mark.parametrize("seeds", ["abc", "0,,1", ""])
def test_bad_seed_list_exits_3(tmp_path, capsys, seeds):
    # the option and the config key share one parser, and neither takes
    # an empty or non-integer entry; an empty option is not an absent one
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", cfg, "--out-dir", str(run),
                 "--seed-override", seeds]) == 3
    assert "--seed-override" in capsys.readouterr().err
    assert not run.exists()
    bad = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1",
                                                     f"seeds = {seeds}"),
                       "bad_seeds.cfg")
    assert main(["train", bad, "--out-dir", str(run)]) == 3
    assert "bad_seeds.cfg:3" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["-1", "0,0", "1,2,1"])
def test_negative_or_repeated_seeds_exit_3(tmp_path, capsys, seeds):
    # a negative seed cannot seed a generator, and a repeated one would
    # train into the same run directory and count twice in the AUC mean
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", cfg, "--out-dir", str(run),
                 f"--seed-override={seeds}"]) == 3
    assert "non-negative and distinct" in capsys.readouterr().err
    bad = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1",
                                                     f"seeds = {seeds}"),
                       "bad_seeds.cfg")
    assert main(["train", bad, "--out-dir", str(run)]) == 3
    assert "non-negative and distinct" in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("key, value", [("lr", "nan"), ("s_max", "inf")])
def test_non_finite_rate_or_clamp_exits_3(tmp_path, capsys, key, value):
    # caught before set-up, not as a training fault (exit 5) after it
    bad = write_config(tmp_path, BASE_CONFIG + f"{key} = {value}\n")
    run = tmp_path / "run"
    assert main(["train", bad, "--out-dir", str(run)]) == 3
    assert f"{key} must be positive and finite" in capsys.readouterr().err
    assert not run.exists()


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
    assert scores[0] == "seed,graph,flag,score"
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


def _split_sides(cfg, seeds):
    """The training and the held-out graph indices of the given seeds'
    splits, each side's union over the seeds."""
    config = parse_config_file(cfg)
    gs = subsample_graphset(load_dataset(config), config.max_graphs)
    normal = resolve_normal_class(gs, config)
    splits = [make_anomaly_split(gs, normal, config.test_fraction, seed)
              for seed in seeds]
    return (sorted({i for s in splits for i in s.train}),
            sorted({i for s in splits for i in s.test_indices()}))


def test_each_command_builds_only_the_inputs_it_uses(tmp_path, monkeypatch):
    built = []
    real = pipeline.precompute_inputs

    def spy(gs, config, indices):
        built.append(list(indices))
        return real(gs, config, indices)

    monkeypatch.setattr(pipeline, "precompute_inputs", spy)

    def run(*argv):
        built.clear()
        assert main(list(argv)) == 0
        assert len(built) == 1, argv
        return built[0]

    cfg = write_config(tmp_path)
    train, test = _split_sides(cfg, (0, 1))
    train_1, test_1 = _split_sides(cfg, (1,))
    _, test_0 = _split_sides(cfg, (0,))
    # the sides differ, so an index set shows which one a command built
    assert len({tuple(train), tuple(train_1), tuple(test), tuple(test_1),
                tuple(test_0)}) == 5
    run_dir = str(tmp_path / "run")
    for phase in PHASES:
        assert run("train", cfg, "--out-dir", run_dir, "--phase", phase) == train
    assert run("train", cfg, "--out-dir", str(tmp_path / "all")) == train
    one = str(tmp_path / "one")
    assert run("train", cfg, "--out-dir", one, "--seed-override", "1") == train_1
    assert run("eval", cfg, "--out-dir", one, "--seed-override", "1") == test_1
    assert run("eval", cfg, "--out-dir", run_dir) == test
    # plotdata embeds the first seed's held-out graphs only
    assert run("plotdata", os.path.join(run_dir, "report.json"),
               "--out-dir", str(tmp_path / "plots")) == test_0


@pytest.mark.parametrize("variant", ["full", "non_st", "asy_st", "non_nf"])
def test_cli_records_equal_library_records(tmp_path, variant):
    # the CLI drives the same train_seed and score_seed as the library,
    # only through checkpoints, so its scores must match the in-memory run
    # exactly
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

def test_phase_outside_the_variant_chain_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    for phase in ("flow", "target"):
        assert main(["train", cfg, "--out-dir", str(run), "--variant",
                     "non_st", "--phase", phase]) == 3
        err = capsys.readouterr().err
        assert f"--phase {phase}" in err and "non_st" in err
        assert "source" in err
    assert not run.exists()


def test_plotdata_refuses_run_options(tmp_path, capsys):
    # plotdata reads the variant and seeds from the report, so it takes
    # neither option
    report = str(tmp_path / "report.json")
    for option in (["--variant", "non_st"], ["--seed-override", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["plotdata", report] + option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def report_text(config, per_seed) -> str:
    """A report.json whose fingerprint matches the default config."""
    return json.dumps({
        "dataset": "planted", "variant": "full", "config": config,
        "config_fingerprint": ExperimentConfig().fingerprint(),
        "normal_class": 0, "per_seed": per_seed, "auc_mean": 0.5,
        "auc_std": 0.0})


RECORDS = [{"graph": 0, "flag": False, "score": 0.25}]


@pytest.mark.parametrize("content, missing", [
    ("[]", "list, not an object"),
    ('{"dataset": "planted", "variant": "full", "config": {}, '
     '"config_fingerprint": "", "normal_class": 0, "per_seed": [{"seed": 0}], '
     '"auc_mean": 0.5, "auc_std": 0.0}', "records"),
    (report_text(None, [{"seed": 0, "records": RECORDS}]),
     "config is a NoneType"),
    (report_text({}, [{"records": RECORDS}]), "KeyError 'seed'")])
def test_plotdata_malformed_report_exits_2(tmp_path, capsys, content, missing):
    report = tmp_path / "report.json"
    report.write_text(content)
    assert main(["plotdata", str(report)]) == 2
    err = capsys.readouterr().err
    assert "malformed report" in err and missing in err
    assert str(report) in err
    assert os.listdir(tmp_path) == ["report.json"]


def test_flow_phase_without_encoder_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    code = main(["train", cfg, "--out-dir", str(tmp_path / "empty"),
                 "--phase", "flow"])
    assert code == 4
    assert "missing" in capsys.readouterr().err


def test_nan_in_flow_phase_exits_5(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    config = parse_config_file(cfg)
    gs, normal, _ = prepare_experiment(load_dataset(config), config, "train")
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
    err = capsys.readouterr().err
    assert "seed 0: flow loss went non-finite (epoch 2)" in err
    # the fault names the op that first produced a non-finite value
    assert "'add_scalar'" in err
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


def _rewrite_checkpoint(path, edit):
    """Edits a checkpoint's payload and re-fingerprints it, so that it
    still verifies."""
    payload = json.loads(path.read_text())
    del payload["fingerprint"]
    edit(payload)
    payload["fingerprint"] = payload_fingerprint(payload)
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))


@pytest.mark.parametrize("edit", [
    lambda payload: payload.pop("arrays"),
    lambda payload: payload.update(arrays=list(payload["arrays"])),
], ids=["no-arrays", "arrays-list"])
def test_checkpoint_with_malformed_arrays_exits_4(tmp_path, capsys, edit):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out-dir", run]) == 0
    path = tmp_path / "run" / "0" / "encoder.ckpt"
    _rewrite_checkpoint(path, edit)
    capsys.readouterr()
    assert main(["eval", cfg, "--out-dir", run]) == 4
    err = capsys.readouterr().err
    assert str(path) in err and "cannot be rebuilt" in err


def test_checkpoint_of_unknown_model_class_exits_4(tmp_path, capsys):
    # an asy_st flow checkpoint as earlier versions wrote it: an
    # IdentityFlow without arrays, re-fingerprinted so that it verifies
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0")
                       + "variant = asy_st\n")
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out-dir", run]) == 0
    path = tmp_path / "run" / "0" / "flow.ckpt"
    _rewrite_checkpoint(path, lambda payload: payload.update(
        meta={"flow": {"class": "IdentityFlow", "args": {"d": 8}}}, arrays={}))
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


def test_interrupted_target_phase_reruns_or_is_rejected(tmp_path, capsys,
                                                      monkeypatch):
    # a run interrupted while the student checkpoint is written: eval
    # refuses it, rerunning the phase completes it, and a student left over
    # from before its flow was retrained is refused
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    whole, run = tmp_path / "whole", tmp_path / "run"
    assert main(["train", cfg, "--out-dir", str(whole)]) == 0
    assert main(["eval", cfg, "--out-dir", str(whole)]) == 0
    for phase in ("source", "flow"):
        assert main(["train", cfg, "--out-dir", str(run), "--phase", phase]) == 0

    with monkeypatch.context() as patch:
        fail_checkpoint_writes(patch, b'{"arrays":{"stu')
        with pytest.raises(OSError, match="disk full"):
            main(["train", cfg, "--out-dir", str(run), "--phase", "target"])
    assert not (run / "0" / "target.ckpt").exists()
    assert not list(run.rglob("*.tmp"))
    capsys.readouterr()
    assert main(["eval", cfg, "--out-dir", str(run)]) == 4
    assert "target.ckpt" in capsys.readouterr().err

    assert main(["train", cfg, "--out-dir", str(run), "--phase", "target"]) == 0
    assert main(["eval", cfg, "--out-dir", str(run)]) == 0

    def canonical(root):
        with open(root / "report.json", encoding="utf-8") as fh:
            return report_from_dict(json.load(fh)).canonical_bytes()

    assert canonical(run) == canonical(whole)
    for name in ("encoder.ckpt", "flow.ckpt", "target.ckpt", "loss_target.csv"):
        assert (run / "0" / name).read_bytes() == (whole / "0" / name).read_bytes()

    flow_before = (run / "0" / "flow.ckpt").read_bytes()
    real_nf_loss = flow.nf_loss
    with monkeypatch.context() as patch:
        patch.setattr(flow, "nf_loss",
                      lambda *args: ad.scale(real_nf_loss(*args), 2.0))
        assert main(["train", cfg, "--out-dir", str(run), "--phase", "flow"]) == 0
    assert (run / "0" / "flow.ckpt").read_bytes() != flow_before
    capsys.readouterr()
    assert main(["eval", cfg, "--out-dir", str(run)]) == 4
    err = capsys.readouterr().err
    assert "target.ckpt" in err and "retrained" in err


def _planted_on_disk(tmp_path):
    """38 planted graphs in TUDataset layout and a config that reads them."""
    data_dir = tmp_path / "data"
    write_tudataset(planted_anomaly_set(num_normal=30, num_anomalous=8),
                    str(data_dir / "PLANT"), "PLANT")
    return write_config(tmp_path, (
        "dataset = PLANT\n"
        f"data_dir = {data_dir}\n"
        "seeds = 0\n"
        "d = 8\nhidden = 8\nk_se = 8\n"
        "s_epochs = 2\nn_epochs = 2\nt_epochs = 2\n"), "plant.cfg")


def _relabel_a_training_graph(graphs, config):
    gs = GraphSet(name="PLANT", graphs=graphs)
    train = make_anomaly_split(gs, resolve_normal_class(gs, config),
                               config.test_fraction, 0).train
    graphs[train[0]].label = 1


def _flip_one_edge(graphs, config):
    a = graphs[0].adjacency
    a[0, 1] = a[1, 0] = 1.0 - a[0, 1]


@pytest.mark.parametrize("edit", [
    _relabel_a_training_graph, _flip_one_edge,
    lambda graphs, config: graphs.pop()], ids=["relabel", "edge", "drop"])
def test_data_changed_after_train_exits_4(tmp_path, capsys, edit):
    # the checkpoints record the fingerprint of the graphs they were
    # trained on, so eval and plotdata refuse edited data instead of
    # scoring graphs the models may have seen
    cfg = _planted_on_disk(tmp_path)
    config = parse_config_file(cfg)
    run = tmp_path / "run"
    assert main(["train", cfg, "--out-dir", str(run)]) == 0
    assert main(["eval", cfg, "--out-dir", str(run)]) == 0
    gs = load_dataset(config)
    report = json.loads((run / "report.json").read_text())
    assert report["data_fingerprint"] == dataset_fingerprint(gs)

    edit(gs.graphs, config)
    write_tudataset(gs, os.path.join(config.data_dir, "PLANT"))
    assert dataset_fingerprint(load_dataset(config)) != report["data_fingerprint"]
    capsys.readouterr()
    assert main(["eval", cfg, "--out-dir", str(run)]) == 4
    err = capsys.readouterr().err
    assert "encoder.ckpt" in err and "other data; re-run train" in err
    assert main(["plotdata", str(run / "report.json"),
                 "--out-dir", str(tmp_path / "plots")]) == 4
    assert "other data; re-run train" in capsys.readouterr().err

    assert main(["train", cfg, "--out-dir", str(run)]) == 0
    assert main(["eval", cfg, "--out-dir", str(run)]) == 0


def test_checkpoint_without_data_fingerprint_exits_4(tmp_path, capsys):
    # checkpoints written before they recorded the data are refused
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    run = tmp_path / "run"
    assert main(["train", cfg, "--out-dir", str(run)]) == 0
    for name in ("encoder.ckpt", "flow.ckpt", "target.ckpt"):
        _rewrite_checkpoint(run / "0" / name,
                            lambda payload: payload.pop("data_fingerprint"))
    capsys.readouterr()
    assert main(["eval", cfg, "--out-dir", str(run)]) == 4
    err = capsys.readouterr().err
    assert "encoder.ckpt records data_fingerprint None" in err


@pytest.mark.parametrize("key, value", [("seeds", 3), ("hidden", "8"),
                                        ("lr", None)])
def test_plotdata_wrongly_typed_config_exits_3(tmp_path, capsys, key, value):
    config = ExperimentConfig().to_dict()
    config[key] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps({
        "dataset": "planted", "variant": "full", "config": config,
        "config_fingerprint": "", "normal_class": 0, "auc_mean": 1.0,
        "auc_std": 0.0, "per_seed": [{"seed": 0, "records": [
            {"graph": 0, "flag": False, "score": 0.25},
            {"graph": 1, "flag": True, "score": 0.75}]}]}))
    assert main(["plotdata", str(report)]) == 3
    assert f"{key} must be" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["report.json"]


def test_plotdata_edited_report_config_exits_4(tmp_path, capsys):
    # the checkpoints beside the report were trained under the config its
    # fingerprint names, not under an edited one
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    run = tmp_path / "run"
    assert main(["train", cfg, "--out-dir", str(run)]) == 0
    assert main(["eval", cfg, "--out-dir", str(run)]) == 0
    report = json.loads((run / "report.json").read_text())
    report["config"]["k_se"] = 4
    (run / "report.json").write_text(json.dumps(report))
    plots = tmp_path / "plots"
    plots.mkdir()
    capsys.readouterr()
    assert main(["plotdata", str(run / "report.json"),
                 "--out-dir", str(plots)]) == 4
    assert "does not match its config_fingerprint" in capsys.readouterr().err
    assert os.listdir(plots) == []


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
