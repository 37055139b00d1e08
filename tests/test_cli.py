"""End-to-end tests for the command line interface."""

import json

import pytest

from nestlab.cli import main


def test_full_pipeline_through_files(tmp_path, capsys):
    """design -> simulate -> identify -> recover -> evaluate, all via files."""
    design = tmp_path / "design.json"
    counts = tmp_path / "counts.csv"
    truth = tmp_path / "true.json"
    part = tmp_path / "partition.json"
    edges = tmp_path / "edges.csv"
    est = tmp_path / "est.json"

    assert main(["design", "--n", "8", "--base", "2", "--out", str(design)]) == 0
    assert "6 experiments" in capsys.readouterr().out

    assert main([
        "simulate", "--design", str(design),
        "--generate-seed", "0", "--save-model", str(truth),
        "--customers", "700000", "--seed", "1", "--out", str(counts),
    ]) == 0

    assert main([
        "identify", "--counts", str(counts), "--design", str(design),
        "--out-partition", str(part), "--out-edges", str(edges),
    ]) == 0
    nests = json.loads(part.read_text())["nests"]
    assert sorted(i for nest in nests for i in nest) == list(range(1, 9))
    assert len(edges.read_text().splitlines()) == 9  # header plus one row per item

    assert main([
        "recover", "--counts", str(counts), "--design", str(design),
        "--partition", str(part), "--out", str(est),
    ]) == 0
    capsys.readouterr()

    assert main([
        "evaluate", "--true", str(truth), "--est", str(est),
        "--design", str(design),
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rand_index"] == 1.0
    assert report["rmse_soft"] < 0.02
    assert report["rmse_soft_restricted"] < 0.02


def test_evaluate_without_design_skips_restricted_score(tmp_path, capsys):
    from nestlab.model import generate_ground_truth, save_model
    import numpy as np

    truth = generate_ground_truth(5, np.random.default_rng(2))
    save_model(truth, tmp_path / "m.json")
    assert main([
        "evaluate", "--true", str(tmp_path / "m.json"), "--est", str(tmp_path / "m.json"),
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rand_index"] == 1.0
    assert report["rmse_soft"] == 0.0
    assert "rmse_soft_restricted" not in report


def test_identify_ztheorem_prints_threshold(tmp_path, capsys):
    design = tmp_path / "design.json"
    counts = tmp_path / "counts.csv"
    main(["design", "--n", "6", "--out", str(design)])
    main([
        "simulate", "--design", str(design), "--customers", "70000",
        "--out", str(counts),
    ])
    capsys.readouterr()
    assert main([
        "identify", "--counts", str(counts), "--design", str(design),
        "--mode", "ztheorem", "--out-partition", str(tmp_path / "p.json"),
    ]) == 0
    captured = capsys.readouterr()
    assert "z threshold" in captured.err


def test_design_warns_when_pairs_are_unseparated(tmp_path, capsys):
    assert main([
        "design", "--n", "8", "--scheme", "random", "--num-assortments", "2",
        "--seed", "0", "--out", str(tmp_path / "d.json"),
    ]) == 0
    assert "unseparated" in capsys.readouterr().err


def test_compare_writes_reports_and_exits_zero(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": 8,
        "schemes": ["slice", "default_two_nest"],
        "T_list": [6000],
        "instances": 2,
        "seed": 5,
    }))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config), "--output-dir", str(out)]) == 0
    assert (out / "summary.json").exists()
    assert (out / "results_T6000.csv").exists()


def test_compare_without_output_dir_prints_summary(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 8, "T_list": [6000], "instances": 1, "seed": 5}))
    assert main(["compare", "--config", str(config)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["config"]["n"] == 8
    assert len(summary["cells"]) == 3  # default schemes, one budget


def test_compare_flags_assumption_violations_with_exit_2(tmp_path, capsys, monkeypatch):
    import nestlab.harness

    monkeypatch.setattr(
        nestlab.harness, "check_general_position",
        lambda truth, design, tol=1e-9: [("S(1,-0)", 1, 2)],
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": 8, "schemes": ["slice"], "T_list": [6000], "instances": 1, "seed": 5,
    }))
    assert main(["compare", "--config", str(config)]) == 2
    assert "assumption violation" in capsys.readouterr().err


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


CONTRADICTORY_COUNTS = """assortment_label,item_id,count,sample_size
control,0,200000,1000000
control,1,200000,1000000
control,2,200000,1000000
control,3,200000,1000000
control,4,200000,1000000
A,0,200000,1000000
A,1,300000,1000000
A,2,300000,1000000
A,3,200000,1000000
B,0,200000,1000000
B,1,240000,1000000
B,2,360000,1000000
B,4,200000,1000000
"""


def write_two_experiment_design(path):
    path.write_text(json.dumps({
        "n": 4, "control": [1, 2, 3, 4],
        "experiments": [{"label": "A", "items": [1, 2, 3]}, {"label": "B", "items": [1, 2, 4]}],
    }))


@pytest.mark.parametrize("mode", ["exact", "ztheorem"])
def test_identify_reports_contradictory_deductions(tmp_path, capsys, mode):
    """A joins items 1 and 2 (same boost above the outside's), B splits them"""
    design = tmp_path / "design.json"
    write_two_experiment_design(design)
    contradictory = tmp_path / "contradictory.csv"
    contradictory.write_text(CONTRADICTORY_COUNTS)
    # B with items 1 and 2 at the same boost as in A: nothing contradicts
    clean = tmp_path / "clean.csv"
    clean.write_text(CONTRADICTORY_COUNTS.replace("B,1,240000", "B,1,300000").replace(
        "B,2,360000", "B,2,300000"))
    args = ["identify", "--design", str(design), "--mode", mode,
            *(["--threshold", "3"] if mode == "ztheorem" else []),
            "--out-partition", str(tmp_path / "p.json")]
    assert main([*args, "--counts", str(contradictory)]) == 0
    assert "note: 1 contradictory deductions" in capsys.readouterr().err
    assert main([*args, "--counts", str(clean)]) == 0
    assert "contradictory" not in capsys.readouterr().err


@pytest.mark.parametrize("mode, flag", [
    ("exact", "--threshold"), ("exact", "--alpha"), ("exact", "--beta"), ("exact", "--delta"),
    ("noisy", "--tol"), ("noisy", "--threshold"), ("noisy", "--delta"),
    ("ztheorem", "--tol"), ("ztheorem", "--alpha"), ("ztheorem", "--beta"),
    ("ztheorem", "--threshold 3 --delta"),  # an explicit cutoff leaves delta unread
])
def test_identify_rejects_flags_its_mode_ignores(tmp_path, capsys, mode, flag):
    design = tmp_path / "design.json"
    write_two_experiment_design(design)
    counts = tmp_path / "counts.csv"
    counts.write_text(CONTRADICTORY_COUNTS)
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--design", str(design), "--counts", str(counts), "--mode", mode,
              *flag.split(), "0.5", "--out-partition", str(tmp_path / "p.json")])
    assert exc.value.code == 2
    assert f"{flag.split()[-1]} has no effect in {mode} mode" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()
