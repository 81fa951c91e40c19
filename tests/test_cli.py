import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from mstoplab.checkpoint import CheckpointError, read_checkpoint, save_checkpoint
from mstoplab.cli import main
from mstoplab.inference import InferConfig, infer
from mstoplab.instances import load_dataset
from mstoplab.model import DdtmConfig, DdtmParameters


def run_cli(args):
    return main(list(args))


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "gen"
    assert run_cli(["generate", "--n", "5", "--k", "2", "--t-max", "1.5",
                    "--count", "12", "--seed", "3", "--out", str(out)]) == 0
    return out


@pytest.fixture()
def trained_dir(tmp_path, dataset_dir):
    out = tmp_path / "run"
    code = run_cli(["train", "--n", "5", "--k", "2", "--t-max", "1.5",
                    "--epochs", "1", "--steps", "2", "--batch", "16",
                    "--val-size", "8", "--d", "16", "--heads", "2", "--ff-dim", "32",
                    "--enc-layers", "1", "--out", str(out)])
    assert code == 0
    return out


# --- generate -------------------------------------------------------------------

def test_generate_preset(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli(["generate", "--preset", "mstop10", "--count", "30",
                    "--seed", "7", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "count=30" in printed and "n=10" in printed and "t_max=1.5" in printed
    instances = load_dataset(out / "dataset.jsonl")
    assert len(instances) == 30 and instances[0].n == 10 and instances[0].k == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate" and manifest["config"]["seed"] == 7


def test_generate_empty_dataset(tmp_path):
    out = tmp_path / "d"
    assert run_cli(["generate", "--preset", "mstop10", "--count", "0", "--out", str(out)]) == 0
    assert load_dataset(out / "dataset.jsonl") == []


def test_generate_requires_shape_flags(tmp_path):
    assert run_cli(["generate", "--count", "3", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("command", ["generate", "train"])
@pytest.mark.parametrize("flag, value", [("--n", "20"), ("--k", "3"), ("--t-max", "2.5")])
def test_preset_with_a_shape_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    """``--preset`` fixes n, K and t_max, so giving one of them as well is
    rejected, whether both come as flags or the preset from ``--config``."""
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"[{command}]\npreset = mstop10\n")
    for n, argv in enumerate(([command, "--preset", "mstop10"], ["--config", str(cfg), command])):
        out = tmp_path / f"out{n}"
        assert run_cli(argv + [flag, value, "--out", str(out)]) == 1
        assert "--preset mstop10 fixes n, K and t_max" in capsys.readouterr().err
        assert not out.exists()


def test_generate_vehicle_beyond_t_max_is_usage_error(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli(["generate", "--n", "3", "--k", "4", "--t-max", "0.7", "--count", "2",
                    "--seed", "0", "--out", str(out)]) == 1
    assert "usage error: seed 1: vehicle 0 starts 0.92" in capsys.readouterr().err
    assert not out.exists()


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli(["generate", "--preset", "mstop20", "--count", "16",
                 "--seed", "11", "--out", str(out)])
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


# --- solve ---------------------------------------------------------------------

def test_solve_exact_and_brute(tmp_path, dataset_dir, capsys):
    for method in ("exact", "brute"):
        out = tmp_path / method
        code = run_cli(["solve", "--dataset", str(dataset_dir / "dataset.jsonl"),
                        "--method", method, "--workers", "1", "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        assert len(rows) == 12 and all(r["optimal"] for r in rows)
    exact = [json.loads(line) for line in (tmp_path / "exact" / "results.jsonl").read_text().splitlines()]
    brute = [json.loads(line) for line in (tmp_path / "brute" / "results.jsonl").read_text().splitlines()]
    assert [r["objective"] for r in exact] == [r["objective"] for r in brute]


def test_solve_tsili_with_reference_gap(tmp_path, dataset_dir, capsys):
    exact_out = tmp_path / "exact"
    run_cli(["solve", "--dataset", str(dataset_dir / "dataset.jsonl"),
             "--method", "exact", "--workers", "1", "--out", str(exact_out)])
    capsys.readouterr()
    out = tmp_path / "tsili"
    code = run_cli(["solve", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--method", "tsili", "--tsili-width", "64", "--workers", "1",
                    "--ref", str(exact_out / "results.jsonl"), "--out", str(out)])
    assert code == 0
    assert "mean_gap=" in capsys.readouterr().out


BAD_REFERENCE_LINES = {"malformed": "{not json", "string": '{"objective": "abc"}',
                       "null": '{"objective": null}', "bool": '{"objective": true}',
                       "nan": '{"objective": NaN}'}


@pytest.mark.parametrize("case", ["dataset", *BAD_REFERENCE_LINES])
def test_solve_rejects_bad_reference_file_naming_file_and_line(tmp_path, dataset_dir, capsys, case):
    """A dataset passed as ``--ref`` has no objectives, a line that is not
    JSON has no record, and an objective that is not a finite number (a
    string, null, a bool or NaN) has no gap: all are usage errors that name
    the file and the line, raised before any solving."""
    ref = dataset_dir / "dataset.jsonl"
    lineno = 1
    if case != "dataset":
        lines = [json.dumps({"instance": i, "objective": 1.0}) for i in range(12)]
        lines[4] = BAD_REFERENCE_LINES[case]
        ref, lineno = tmp_path / "results.jsonl", 5
        ref.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "tsili"
    code = run_cli(["solve", "--dataset", str(dataset_dir / "dataset.jsonl"), "--method", "tsili",
                    "--workers", "1", "--ref", str(ref), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and f"{ref}: line {lineno} " in err
    assert not out.exists()


@pytest.mark.parametrize("method, flag, value, message", [
    ("exact", "--budget", "0", "--budget must be positive"),
    ("tsili", "--tsili-width", "0", "invalid heuristic parameters"),
    ("tsili", "--tsili-r", "-1", "invalid heuristic parameters"),
    ("exact", "--workers", "-3", "--workers must be >= 0"),
], ids=["budget", "tsili-width", "tsili-r", "workers"])
def test_solve_rejects_bad_method_parameters_before_work(tmp_path, dataset_dir, capsys, monkeypatch,
                                                          method, flag, value, message):
    """The chosen method's parameters and the worker count are checked
    before the output directory is made and before a worker pool starts."""
    from mstoplab import cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started before the parameters were checked")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "solve"
    code = run_cli(["solve", "--dataset", str(dataset_dir / "dataset.jsonl"), "--method", method,
                    "--workers", "2", f"{flag}={value}", "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_solve_reports_budget_exhaustion_and_expansions(tmp_path, dataset_dir, capsys):
    out = tmp_path / "exact"
    code = run_cli(["solve", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--method", "exact", "--budget", "1", "--workers", "1", "--out", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    exhausted = sum(not r["optimal"] for r in rows)
    expansions = sum(r["expansions"] for r in rows)
    assert exhausted > 0
    assert f"budget_exhausted={exhausted} expansions={expansions} " in capsys.readouterr().out
    timings = (out / "timings.txt").read_text().splitlines()
    assert f"budget_exhausted {exhausted}" in timings and f"expansions {expansions}" in timings


def test_solve_size_limit_and_force(tmp_path):
    big = tmp_path / "big"
    run_cli(["generate", "--n", "9", "--k", "2", "--t-max", "1.2", "--count", "2",
             "--seed", "1", "--out", str(big)])
    code = run_cli(["solve", "--dataset", str(big / "dataset.jsonl"),
                    "--method", "brute", "--workers", "1", "--out", str(tmp_path / "o1")])
    assert code == 1
    code = run_cli(["solve", "--dataset", str(big / "dataset.jsonl"),
                    "--method", "brute", "--workers", "1", "--force",
                    "--out", str(tmp_path / "o2")])
    assert code == 0


def test_solve_missing_dataset(tmp_path):
    assert run_cli(["solve", "--dataset", str(tmp_path / "nope.jsonl"),
                    "--method", "exact", "--out", str(tmp_path / "o")]) == 1


def test_solve_malformed_dataset_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert run_cli(["solve", "--dataset", str(bad), "--method", "exact",
                    "--out", str(tmp_path / "o")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# --- train ----------------------------------------------------------------------

def test_train_writes_outputs_and_manifest(trained_dir):
    assert (trained_dir / "metrics.csv").exists()
    assert (trained_dir / "best.ckpt").exists() and (trained_dir / "last.ckpt").exists()
    manifest = json.loads((trained_dir / "manifest.json").read_text())
    assert manifest["config"]["train"]["alpha"] == 0.01
    assert manifest["config"]["train"]["baseline"] == "instance-aug"
    header = (trained_dir / "metrics.csv").read_text().splitlines()[0]
    assert "wall" not in header  # timing lives in timings.csv
    assert (trained_dir / "timings.csv").exists()


def test_train_alpha_echo_and_ablation_arm(tmp_path, capsys):
    out = tmp_path / "arm_a"
    code = run_cli(["train", "--n", "4", "--k", "2", "--t-max", "1.5",
                    "--epochs", "1", "--steps", "1", "--batch", "8",
                    "--baseline", "greedy-rollout", "--alpha", "0",
                    "--val-size", "4", "--d", "16", "--heads", "2", "--ff-dim", "32",
                    "--enc-layers", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "baseline=greedy-rollout" in printed and "alpha=0.0" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["k_aug"] == 1


def test_train_takes_no_seed(tmp_path, capsys):
    """Training draws only from --seed-data, --seed-model and --seed-rollout;
    a bare --seed would change nothing, so it is rejected as ambiguous."""
    out = tmp_path / "run"
    assert run_cli(["train", "--n", "5", "--k", "2", "--t-max", "1.5", "--epochs", "1",
                    "--steps", "1", "--batch", "16", "--val-size", "8", "--seed", "1",
                    "--out", str(out)]) == 1
    assert "--seed could match --seed-data, --seed-model, --seed-rollout" in capsys.readouterr().err
    assert not out.exists()


def test_train_rerun_identical_metrics(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        run_cli(["train", "--n", "4", "--k", "2", "--t-max", "1.5",
                 "--epochs", "1", "--steps", "2", "--batch", "16",
                 "--val-size", "8", "--d", "16", "--heads", "2", "--ff-dim", "32",
                 "--enc-layers", "1", "--out", str(out)])
        outs.append(out)
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    assert (outs[0] / "last.ckpt").read_bytes() == (outs[1] / "last.ckpt").read_bytes()


# --- eval ------------------------------------------------------------------------

def test_eval_strategies_table(tmp_path, dataset_dir, trained_dir, capsys):
    out = tmp_path / "eval"
    code = run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--checkpoint", str(trained_dir / "best.ckpt"),
                    "--strategies", "greedy,perm,perm-aug",
                    "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "reference: exact" in printed
    summary = (out / "summary.csv").read_text().splitlines()[1:]
    means = [float(line.split(",")[1]) for line in summary]
    assert means[0] <= means[1] <= means[2]  # greedy <= perm <= perm-aug
    gaps = [float(line.split(",")[2]) for line in summary]
    assert all(g >= -1e-9 for g in gaps)
    # timings.csv: wall time and trajectories per strategy, summed from the censuses
    counts = {}
    for line in (out / "results.csv").read_text().splitlines()[1:]:
        strategy, trajectories = line.split(",")[1], int(line.split(",")[3])
        counts[strategy] = counts.get(strategy, 0) + trajectories
    assert counts == {"greedy": 12, "perm": 24, "perm-aug": 192}
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "strategy,wall_time_s,trajectories,trajectories_per_s"
    for line in timings[1:]:
        strategy, wall, trajectories, per_s = line.split(",")
        assert int(trajectories) == counts[strategy]
        assert float(per_s) == int(trajectories) / float(wall)


def test_eval_best_reference_has_zero_gap(tmp_path, dataset_dir, trained_dir):
    out = tmp_path / "eval_best"
    run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
             "--checkpoint", str(trained_dir / "best.ckpt"),
             "--strategies", "greedy,perm", "--reference", "best",
             "--out", str(out)])
    gaps = [float(line.split(",")[2])
            for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert min(gaps) == 0.0


def test_eval_rerun_identical_results(tmp_path, dataset_dir, trained_dir):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
                 "--checkpoint", str(trained_dir / "best.ckpt"),
                 "--strategies", "greedy,perm",
                 "--out", str(out)])
        outs.append(out)
    assert (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()
    assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()


def test_eval_failed_write_keeps_previous_results(tmp_path, dataset_dir, trained_dir, monkeypatch):
    from mstoplab import cli
    out = tmp_path / "eval"
    args = ["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
            "--checkpoint", str(trained_dir / "best.ckpt"), "--strategies", "greedy", "--out", str(out)]
    assert run_cli(args) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}

    class Unwritable(float):
        def __repr__(self):
            raise OSError("no space left on device")

    real, calls = cli.infer, []

    def infer_fourth_unwritable(*args):
        sol, census = real(*args)
        calls.append(sol)
        if len(calls) == 4:   # results.csv fails after three rows
            sol = dataclasses.replace(sol, objective=Unwritable(sol.objective))
        return sol, census

    monkeypatch.setattr(cli, "infer", infer_fourth_unwritable)
    assert run_cli(args) == 2
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


@pytest.mark.parametrize("strategies, reference, message", [
    ("greedy,greedy", "auto", "twice"),
    ("perm-aug,bogus", "auto", "bogus"),
    (",", "best", "no strategy"),
])
def test_eval_rejects_bad_strategy_list_before_work(tmp_path, dataset_dir, trained_dir, capsys,
                                                    monkeypatch, strategies, reference, message):
    from mstoplab import cli

    def no_inference(*args):
        raise AssertionError("inference ran before the strategy list was checked")

    monkeypatch.setattr(cli, "infer", no_inference)
    code = run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--checkpoint", str(trained_dir / "best.ckpt"),
                    "--strategies", strategies, "--reference", reference,
                    "--out", str(tmp_path / "bad")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("case", ["dataset", "checkpoint"])
def test_eval_rejects_a_file_of_the_wrong_kind(tmp_path, dataset_dir, trained_dir, capsys, case):
    """A malformed dataset (here a metrics file) or a checkpoint that is not
    one (here the dataset) is a usage error, and nothing is written."""
    dataset, checkpoint = dataset_dir / "dataset.jsonl", trained_dir / "best.ckpt"
    if case == "dataset":
        dataset = trained_dir / "metrics.csv"
    else:
        checkpoint = dataset_dir / "dataset.jsonl"
    code = run_cli(["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                    "--out", str(tmp_path / "bad")])
    assert code == 1
    err = capsys.readouterr().err
    message = {"dataset": "malformed record at line 1", "checkpoint": "bad magic bytes"}[case]
    assert err.startswith("usage error: ") and message in err
    assert not (tmp_path / "bad").exists()


# train's model section: one rank-0 block (name length, name, rank, f64) per DdtmConfig field
MODEL_SECTION_BYTES = sum(4 + len(f.name) + 4 + 8 for f in dataclasses.fields(DdtmConfig))


@pytest.mark.parametrize("case", ["extent", "adam"])
def test_eval_rejects_a_malformed_checkpoint(tmp_path, dataset_dir, trained_dir, capsys, case):
    """A checkpoint whose first parameter extent runs past the end of the
    file, or whose optimizer state lacks its scalars, is a usage error, and
    nothing is written."""
    raw = (trained_dir / "best.ckpt").read_bytes()
    if case == "extent":
        at = 14 + MODEL_SECTION_BYTES           # the parameter count
        (name_len,) = struct.unpack("<I", raw[at + 4:at + 8])
        at += 8 + name_len + 4                  # the first parameter's first extent
        raw = raw[:at] + struct.pack("<Q", 2 ** 40) + raw[at + 8:]
    else:
        model, params, _ = read_checkpoint(trained_dir / "best.ckpt")
        save_checkpoint(tmp_path / "plain.ckpt", params, model=model)
        moment = np.zeros(1).tobytes()
        raw = ((tmp_path / "plain.ckpt").read_bytes()[:-4] + struct.pack("<I", 1)   # the optimizer count
               + struct.pack("<I", 3) + b"m:w" + struct.pack("<IQ", 1, 1) + moment)
    checkpoint = tmp_path / "bad.ckpt"
    checkpoint.write_bytes(raw)
    code = run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"), "--checkpoint", str(checkpoint),
                    "--out", str(tmp_path / "bad")])
    assert code == 1
    err = capsys.readouterr().err
    message = {"extent": "truncated checkpoint file", "adam": "optimizer state without its scalars"}[case]
    assert err.startswith("usage error: ") and message in err
    assert not (tmp_path / "bad").exists()


def test_eval_checkpoint_shape_mismatch_reports_both(tmp_path, dataset_dir, trained_dir, capsys):
    """A stored model config that disagrees with the stored arrays names both shapes."""
    model, params, _ = read_checkpoint(trained_dir / "best.ckpt")
    checkpoint = tmp_path / "wide.ckpt"
    save_checkpoint(checkpoint, params, model={**model, "d": np.array(32.0)})
    code = run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--checkpoint", str(checkpoint), "--out", str(tmp_path / "bad")])
    assert code == 1
    err = capsys.readouterr().err
    assert "(2, 16)" in err and "(2, 32)" in err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("heads", [2, 4])
def test_eval_reads_the_model_from_the_checkpoint(tmp_path, dataset_dir, heads):
    """Two models that differ only in their head count have arrays of equal
    shapes; eval, given no model flag, decodes each under its own config."""
    run, out = tmp_path / f"heads{heads}", tmp_path / f"eval{heads}"
    assert run_cli(["train", "--n", "5", "--k", "2", "--t-max", "1.5", "--epochs", "1", "--steps", "2",
                    "--batch", "16", "--val-size", "8", "--d", "16", "--heads", str(heads),
                    "--ff-dim", "32", "--enc-layers", "1", "--out", str(run)]) == 0
    assert run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--checkpoint", str(run / "best.ckpt"), "--strategies", "greedy",
                    "--out", str(out)]) == 0
    cfg = DdtmConfig(d=16, heads=heads, ff_dim=32, encoder_layers=1)
    params = DdtmParameters.from_arrays(cfg, read_checkpoint(run / "best.ckpt")[1])
    expected = [f"{i},greedy,{infer(inst, params, cfg, InferConfig(strategy='greedy'))[0].objective!r}"
                for i, inst in enumerate(load_dataset(dataset_dir / "dataset.jsonl"))]
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [",".join(row.split(",")[:3]) for row in rows] == expected
    assert json.loads((out / "manifest.json").read_text())["config"]["model"]["heads"] == heads


@pytest.mark.parametrize("case", ["missing", "partial", "non-integral", "not-a-scalar", "invalid"])
def test_eval_rejects_a_malformed_model_section(tmp_path, dataset_dir, trained_dir, capsys, case):
    """A checkpoint must name its whole model in whole numbers that make a
    valid config; anything else is a CheckpointError and exits 1."""
    model, params, _ = read_checkpoint(trained_dir / "best.ckpt")
    model = {"missing": {}, "partial": {k: v for k, v in model.items() if k != "heads"},
             "non-integral": {**model, "heads": np.array(2.5)},
             "not-a-scalar": {**model, "heads": np.array([2.0])},
             "invalid": {**model, "heads": np.array(3.0)}}[case]
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, params, model=model)
    with pytest.raises(CheckpointError):
        DdtmParameters.load(checkpoint)
    code = run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--checkpoint", str(checkpoint), "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "usage error: checkpoint model" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_eval_rejects_a_format_1_checkpoint(tmp_path, dataset_dir, trained_dir, capsys):
    """Format 1 had no model section; such a file is refused, naming its version."""
    raw = (trained_dir / "best.ckpt").read_bytes()
    checkpoint = tmp_path / "v1.ckpt"
    checkpoint.write_bytes(raw[:6] + struct.pack("<I", 1) + raw[14 + MODEL_SECTION_BYTES:])
    code = run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--checkpoint", str(checkpoint), "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "unsupported checkpoint format version 1, expected 2" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_eval_refuses_budget_truncated_exact_reference(tmp_path, dataset_dir, trained_dir,
                                                      capsys, monkeypatch):
    from mstoplab import cli
    real = cli.solve_exact

    def cut_short(inst):
        sol = real(inst)
        return dataclasses.replace(sol, optimal=False)

    monkeypatch.setattr(cli, "solve_exact", cut_short)
    code = run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--checkpoint", str(trained_dir / "best.ckpt"), "--strategies", "greedy",
                    "--out", str(tmp_path / "cut")])
    assert code == 2
    assert "instance 0" in capsys.readouterr().err
    assert not (tmp_path / "cut" / "summary.csv").exists()


def test_eval_fails_on_an_unverified_solution(tmp_path, dataset_dir, trained_dir, capsys,
                                              monkeypatch):
    from mstoplab import inference
    from mstoplab.oracle import FeasibilityReport, Violation

    def violated(inst, sol):
        return FeasibilityReport(ok=False, violations=(Violation("fuel-budget", "planted"),),
                                 objective_recomputed=sol.objective)

    monkeypatch.setattr(inference, "verify", violated)
    out = tmp_path / "unverified"
    code = run_cli(["eval", "--dataset", str(dataset_dir / "dataset.jsonl"),
                    "--checkpoint", str(trained_dir / "best.ckpt"), "--strategies", "greedy",
                    "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "InferenceError: instance 0, strategy greedy:" in err and "planted" in err
    left = os.listdir(out)
    assert "results.csv" not in left and not [name for name in left if name.endswith(".tmp")]


# --- harness plumbing ---------------------------------------------------------------

def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("[generate]\npreset = mstop10\ncount = 5\nseed = 2\n")
    out1 = tmp_path / "c1"
    assert run_cli(["--config", str(cfg), "generate", "--out", str(out1)]) == 0
    assert len(load_dataset(out1 / "dataset.jsonl")) == 5
    out2 = tmp_path / "c2"
    assert run_cli(["--config", str(cfg), "generate", "--count", "3", "--out", str(out2)]) == 0
    assert len(load_dataset(out2 / "dataset.jsonl")) == 3

    # a flag without a value takes a configparser boolean; brute force at n=9 needs --force
    gen = tmp_path / "n9"
    assert run_cli(["generate", "--n", "9", "--k", "2", "--t-max", "1.5", "--count", "1",
                    "--seed", "4", "--out", str(gen)]) == 0
    solve = ["solve", "--dataset", str(gen / "dataset.jsonl"), "--method", "brute", "--workers", "1"]
    for value, code, message in (("false", 1, "capped at n <= 8"), ("true", 0, "method=brute"),
                                 ("maybe", 1, "'force' under [solve] takes a boolean, got 'maybe'")):
        cfg.write_text(f"[solve]\nforce = {value}\n")
        out = tmp_path / f"solve_{value}"
        capsys.readouterr()
        assert run_cli(["--config", str(cfg), *solve, "--out", str(out)]) == code
        assert message in "".join(capsys.readouterr())
        assert (out / "results.jsonl").exists() == (code == 0)
    cfg.write_text("[solve]\nforce = false\n")
    assert run_cli(["--config", str(cfg), *solve, "--force", "--out", str(tmp_path / "flag")]) == 0


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MSTOPLAB_OUT_ROOT", str(tmp_path))
    assert run_cli(["generate", "--preset", "mstop10", "--count", "1",
                    "--seed", "0", "--out", "nested/run"]) == 0
    assert (tmp_path / "nested" / "run" / "dataset.jsonl").exists()


def test_unknown_flag_is_usage_error(tmp_path):
    assert run_cli(["generate", "--nope", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("flag, value", [("--lr", "0"), ("--lr", "-1e-4"), ("--clip-norm", "-1"),
                                         ("--val-size", "0"), ("--epochs", "0")])
def test_train_rejects_config_that_trains_wrong(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    assert run_cli(["train", "--n", "5", "--k", "2", "--t-max", "1.5", "--epochs", "1",
                    "--steps", "1", "--batch", "16", "--val-size", "8", f"{flag}={value}",
                    "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()
