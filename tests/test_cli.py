"""End-to-end tests for the command line interface."""

import json
import math

import numpy as np
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


def test_evaluate_reads_each_lambda_with_its_nest(tmp_path, thin_counts, capsys):
    """A model file listing its nests and their lambdas in reverse order is the same model"""
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert len(set(truth["lambda"])) > 1
    rev = {**truth, "nests": truth["nests"][::-1], "lambda": truth["lambda"][::-1]}
    (tmp_path / "rev.json").write_text(json.dumps(rev))
    assert main(["evaluate", "--true", str(tmp_path / "truth.json"),
                 "--est", str(tmp_path / "rev.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rand_index"] == 1.0
    assert report["rmse_soft"] == 0.0


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
        lambda truth, design: [("S(1,-0)", 1, 2)],
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


@pytest.mark.parametrize("flag", [
    "--threshold nan", "--delta nan", "--delta 5", "--delta -0.1", "--delta 0", "--delta 1",
])
def test_identify_refuses_a_cutoff_that_is_no_positive_number(tmp_path, capsys, flag):
    """A delta outside (0, 1) gives no valid cutoff: 5 once gave 30.47, -0.1 a math domain
    error, 0 a ZeroDivisionError traceback, and nan a cutoff line before the refusal"""
    design = tmp_path / "design.json"
    write_two_experiment_design(design)
    counts = tmp_path / "counts.csv"
    counts.write_text(CONTRADICTORY_COUNTS)
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--design", str(design), "--counts", str(counts), "--mode", "ztheorem",
              *flag.split(), "--out-partition", str(tmp_path / "p.json")])
    name, value = flag.split()
    message = ("z_threshold must be a positive finite number" if name == "--threshold"
               else f"delta must lie in (0, 1), got {float(value)}")
    assert exc.value.code == f"nestlab identify: {message}"
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "p.json").exists()


@pytest.fixture
def slice_design_with_loo_counts(tmp_path, capsys):
    """An n = 8 slice design and counts taken on the leave-one-out design."""
    design = tmp_path / "design.json"
    loo = tmp_path / "loo.json"
    counts = tmp_path / "counts.csv"
    partition = tmp_path / "partition.json"
    assert main(["design", "--n", "8", "--out", str(design)]) == 0
    assert main(["design", "--n", "8", "--scheme", "loo", "--out", str(loo)]) == 0
    assert main([
        "simulate", "--design", str(loo), "--customers", "90000", "--out", str(counts),
    ]) == 0
    partition.write_text(json.dumps({"n": 8, "nests": [[1, 2, 3, 4], [5, 6, 7, 8]]}))
    capsys.readouterr()
    return design, counts, partition


@pytest.mark.parametrize("command", [
    ["identify"], ["identify", "--mode", "ztheorem"], ["recover"], ["recover", "--exact"],
])
def test_counts_from_another_design_are_rejected(tmp_path, slice_design_with_loo_counts, command):
    design, counts, partition = slice_design_with_loo_counts
    out = tmp_path / "out.json"
    extra = ["--partition", str(partition), "--out", str(out)] if command[0] == "recover" else [
        "--out-partition", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*command, "--design", str(design), "--counts", str(counts), *extra])
    assert exc.value.code == (
        f"nestlab {command[0]}: counts do not match the design at row 1:"
        " the design's S(1,-0) and the counts' LOO(1) offer different items"
    )
    assert not out.exists()


def test_counts_must_cover_every_design_row(tmp_path, capsys):
    design = tmp_path / "design.json"
    counts = tmp_path / "counts.csv"
    main(["design", "--n", "6", "--out", str(design)])
    main(["simulate", "--design", str(design), "--customers", "70000", "--out", str(counts)])
    data = json.loads(design.read_text())
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps({
        **data, "experiments": [*data["experiments"], {"label": "X", "items": [1, 2]}],
    }))
    shorter = tmp_path / "shorter.json"
    shorter.write_text(json.dumps({**data, "experiments": data["experiments"][:-1]}))
    last = data["experiments"][-1]["label"]
    rows = len(data["experiments"])
    for path, detail in [
        (longer, f"row {rows + 1}: the counts end before the design's X"),
        (shorter, f"row {rows}: the design ends before the counts' {last}"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["identify", "--design", str(path), "--counts", str(counts),
                  "--out-partition", str(tmp_path / "p.json")])
        assert exc.value.code == f"nestlab identify: counts do not match the design at {detail}"
    assert main(["identify", "--design", str(design), "--counts", str(counts),
                 "--out-partition", str(tmp_path / "p.json")]) == 0


@pytest.fixture
def thin_counts(tmp_path, capsys):
    """An n = 8 slice design, 70 simulated customers and the truth's partition."""
    design = tmp_path / "design.json"
    counts = tmp_path / "counts.csv"
    truth = tmp_path / "truth.json"
    partition = tmp_path / "partition.json"
    assert main(["design", "--n", "8", "--out", str(design)]) == 0
    assert main([
        "simulate", "--design", str(design), "--generate-seed", "1", "--customers", "70",
        "--seed", "1", "--save-model", str(truth), "--out", str(counts),
    ]) == 0
    nests = json.loads(truth.read_text())["nests"]
    partition.write_text(json.dumps({"n": 8, "nests": nests}))
    capsys.readouterr()
    return design, counts, partition


def test_data_errors_end_in_one_line(tmp_path, thin_counts):
    """Items no control customer chose stop exact recovery and identification, without a traceback"""
    design, counts, partition = thin_counts
    out = tmp_path / "out.json"
    files = ["--design", str(design), "--counts", str(counts)]
    with pytest.raises(SystemExit) as exc:
        main(["recover", *files, "--partition", str(partition), "--exact", "--out", str(out)])
    assert exc.value.code.startswith("nestlab recover: zero control probability for items [")
    assert "\n" not in exc.value.code
    with pytest.raises(SystemExit) as exc:
        main(["identify", *files, "--mode", "exact", "--out-partition", str(out)])
    assert exc.value.code.startswith("nestlab identify: zero control probability for items [")
    assert "\n" not in exc.value.code
    assert not out.exists()


def test_both_recoveries_refuse_a_partition_of_other_items(tmp_path, thin_counts):
    """Least squares and --exact each refuse a 4-item partition of 8-item counts in the library"""
    design, counts, partition = thin_counts
    partition.write_text(json.dumps({"nests": [[1, 2], [3, 4]]}))
    out = tmp_path / "out.json"
    for exact in ([], ["--exact"]):
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--design", str(design), "--counts", str(counts),
                  "--partition", str(partition), *exact, "--out", str(out)])
        assert exc.value.code == (
            "nestlab recover: control row offers items 1..8, partition covers items 1..4"
        )
    assert not out.exists()


def test_recovery_errors_end_in_one_line(tmp_path, capsys):
    """A partition exact recovery cannot fit exits 1 with the RecoveryError's message"""
    design = tmp_path / "design.json"
    counts = tmp_path / "counts.csv"
    partition = tmp_path / "partition.json"
    out = tmp_path / "out.json"
    main(["design", "--n", "8", "--out", str(design)])
    main(["simulate", "--design", str(design), "--generate-seed", "1", "--customers", "700000",
          "--seed", "1", "--out", str(counts)])
    partition.write_text(json.dumps({"n": 8, "nests": [[1, 2], [3, 4], [5, 6], [7, 8]]}))
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--design", str(design), "--counts", str(counts),
              "--partition", str(partition), "--exact", "--out", str(out)])
    assert exc.value.code.startswith("nestlab recover: nest 1: lambda = ")
    assert exc.value.code.endswith(" outside [0, 1]")
    assert not out.exists()


@pytest.mark.parametrize("command", [["identify"], ["recover"], ["recover", "--exact"]])
def test_malformed_counts_end_in_one_line(tmp_path, thin_counts, command):
    """A negative count in the file stops every data command at load time"""
    design, counts, partition = thin_counts
    header, first, *rest = counts.read_text().splitlines()
    label, item, _, size = first.split(",")
    counts.write_text("\n".join([header, f"{label},{item},-5,{size}", *rest]) + "\n")
    out = tmp_path / "out.json"
    extra = ["--partition", str(partition), "--out", str(out)] if command[0] == "recover" else [
        "--out-partition", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*command, "--design", str(design), "--counts", str(counts), *extra])
    assert exc.value.code == f"nestlab {command[0]}: negative count -5 for item {item} in control"
    assert not out.exists()


def test_design_errors_end_in_one_line(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--n", "0", "--out", str(tmp_path / "design.json")])
    assert exc.value.code == "nestlab design: number of items must be at least 1, got 0"
    with pytest.raises(SystemExit) as exc:  # once read as the default count of 6
        main(["design", "--n", "8", "--scheme", "random", "--num-assortments", "0",
              "--out", str(tmp_path / "design.json")])
    assert exc.value.code == (
        "nestlab design: config field num_random_assortments must be at least 1, got 0"
    )
    with pytest.raises(SystemExit) as exc:  # once numpy's "expected non-negative integer"
        main(["design", "--n", "8", "--seed", "-1", "--out", str(tmp_path / "design.json")])
    assert exc.value.code == "nestlab design: seed must be at least 0, got -1"
    assert not (tmp_path / "design.json").exists()


def test_simulate_errors_end_in_one_line(tmp_path, capsys):
    """A budget below one customer per assortment exits 1 with allocate_customers' message"""
    design = tmp_path / "design.json"
    counts = tmp_path / "counts.csv"
    assert main(["design", "--n", "8", "--out", str(design)]) == 0  # control plus 6 experiments
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--design", str(design), "--customers", "5", "--out", str(counts)])
    assert exc.value.code == (
        "nestlab simulate: budget 5 cannot give each of 7 assortments a customer"
    )
    for flag, name in (("--seed", "seed"), ("--generate-seed", "generate seed")):
        with pytest.raises(SystemExit) as exc:  # once numpy's "expected non-negative integer"
            main(["simulate", "--design", str(design), "--customers", "7000", flag, "-1",
                  "--save-model", str(tmp_path / "truth.json"), "--out", str(counts)])
        assert exc.value.code == f"nestlab simulate: {name} must be at least 0, got -1"
    assert not counts.exists() and not (tmp_path / "truth.json").exists()


@pytest.mark.parametrize("text, message", [
    (json.dumps({"n": 8, "schemes": ["nope"]}), "unknown schemes ['nope']; expected one of ["),
    ('{"n": 8,', "Expecting property name enclosed in double quotes: line 1 column 9"),
])
def test_compare_config_errors_end_in_one_line(tmp_path, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", str(config), "--output-dir", str(tmp_path / "out")])
    assert exc.value.code.startswith(f"nestlab compare: {message}")
    assert "\n" not in exc.value.code
    assert not (tmp_path / "out").exists()


def test_missing_files_end_in_one_line(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--counts", str(tmp_path / "nope.csv"), "--design",
              str(tmp_path / "nope.json"), "--out-partition", str(tmp_path / "p.json")])
    assert exc.value.code == (
        f"nestlab identify: [Errno 2] No such file or directory: '{tmp_path / 'nope.json'}'"
    )


def test_model_without_nests_ends_in_one_line(tmp_path):
    from nestlab.model import generate_ground_truth, model_to_dict

    data = model_to_dict(generate_ground_truth(5, np.random.default_rng(2)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(data))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({k: v for k, v in data.items() if k != "nests"}))
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--true", str(good), "--est", str(bad)])
    assert exc.value.code == "nestlab evaluate: model has no 'nests' key"


def test_partition_without_nests_ends_in_one_line(tmp_path, thin_counts):
    design, counts, partition = thin_counts
    partition.write_text(json.dumps({"n": 8, "groups": [[1, 2, 3, 4], [5, 6, 7, 8]]}))
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--design", str(design), "--counts", str(counts),
              "--partition", str(partition), "--out", str(out)])
    assert exc.value.code == "nestlab recover: partition has no 'nests' key"
    assert not out.exists()


@pytest.fixture
def four_item_design_and_eight_item_models(tmp_path):
    from nestlab.model import generate_ground_truth, save_model

    design = tmp_path / "design.json"
    assert main(["design", "--n", "4", "--out", str(design)]) == 0
    truth, estimate = tmp_path / "truth.json", tmp_path / "est.json"
    save_model(generate_ground_truth(8, np.random.default_rng(1)), truth)
    save_model(generate_ground_truth(8, np.random.default_rng(2)), estimate)
    return design, truth, estimate


def test_simulate_rejects_a_model_of_other_items(tmp_path, four_item_design_and_eight_item_models):
    design, truth, _ = four_item_design_and_eight_item_models
    counts = tmp_path / "c4.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--design", str(design), "--model", str(truth),
              "--customers", "700", "--out", str(counts)])
    assert exc.value.code == "nestlab simulate: design has 4 items, model has 8"
    assert not counts.exists()


def test_evaluate_rejects_a_design_of_other_items(four_item_design_and_eight_item_models):
    design, truth, estimate = four_item_design_and_eight_item_models
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--true", str(truth), "--est", str(estimate), "--design", str(design)])
    assert exc.value.code == "nestlab evaluate: design has 4 items, model has 8"


@pytest.fixture
def counts_without_outside(tmp_path, capsys):
    """An n = 8 slice design and 400,000 customers of a model without outside option."""
    design = tmp_path / "design.json"
    counts = tmp_path / "counts.csv"
    truth = tmp_path / "truth.json"
    assert main(["design", "--n", "8", "--out", str(design)]) == 0
    assert main([
        "simulate", "--design", str(design), "--generate-seed", "3", "--no-outside",
        "--save-model", str(truth), "--customers", "400000", "--seed", "4", "--out", str(counts),
    ]) == 0
    capsys.readouterr()
    return design, counts, truth


@pytest.mark.parametrize("mode", ["exact", "noisy", "ztheorem"])
def test_identify_without_outside_matches_the_library(tmp_path, counts_without_outside, mode):
    from nestlab import designs, identify, sampling

    design_path, counts_path, _ = counts_without_outside
    out = tmp_path / "p.json"
    assert main(["identify", "--counts", str(counts_path), "--design", str(design_path),
                 "--mode", mode, "--out-partition", str(out)]) == 0
    design = designs.load_design(design_path)
    table = sampling.load_counts(counts_path, design.n)
    assert not table.outside
    if mode == "exact":
        bf = identify.boost_factors_from_counts(table)
        _, partition = identify.exact_identify_without_outside(bf, design)
    else:
        threshold = None
        if mode == "ztheorem":
            pairs = identify.theorem_pair_count(design.n, design.num_experiments)
            threshold = identify.theorem_z_threshold(pairs, 0.1)
        config = identify.TestConfig(z_threshold=threshold)
        _, partition = identify.noisy_identify_without_outside(table, design, config)
    assert json.loads(out.read_text())["nests"] == [list(nest) for nest in partition.nests]


@pytest.mark.parametrize("exact", [False, True])
def test_recover_without_outside_matches_the_library(tmp_path, counts_without_outside, exact):
    from nestlab import designs, model, recovery, sampling

    design_path, counts_path, truth_path = counts_without_outside
    truth = model.load_model(truth_path)
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps({"n": 8, "nests": [list(n) for n in truth.partition.nests]}))
    out = tmp_path / "est.json"
    assert main(["recover", "--counts", str(counts_path), "--design", str(design_path),
                 "--partition", str(partition), *(["--exact"] if exact else []),
                 "--out", str(out)]) == 0
    design = designs.load_design(design_path)
    table = sampling.load_counts(counts_path, design.n)
    if exact:
        want = recovery.recover_all(sampling.empirical_probabilities(table), truth.partition, design)
    else:
        want = recovery.recover_least_squares(table, truth.partition, design).model
    assert model.load_model(out) == want
    assert not want.outside


def test_failed_simulate_leaves_no_model_file(tmp_path, capsys):
    """The generated model is written only once the counts are drawn, and is reported first"""
    design, truth, counts = tmp_path / "design.json", tmp_path / "t.json", tmp_path / "c.csv"
    assert main(["design", "--n", "8", "--out", str(design)]) == 0
    files = ["--design", str(design), "--save-model", str(truth), "--out", str(counts)]
    with pytest.raises(SystemExit):
        main(["simulate", *files, "--customers", "5"])
    assert not truth.exists() and not counts.exists()
    capsys.readouterr()
    assert main(["simulate", *files, "--customers", "700"]) == 0
    assert capsys.readouterr().out == f"wrote {truth}\nwrote {counts} (700 customers)\n"


@pytest.mark.parametrize("command, flag, rewrite, message", [
    ("identify", "--design", lambda d: [1, 2], "design file must hold a JSON object"),
    ("identify", "--design", lambda d: {**d, "experiments": [5]},
     "design has a field of the wrong type: argument of type 'int' is not iterable"),
    ("identify", "--design", lambda d: {**d, "control": [1, 2]},
     "design control must list every item 1..8"),
    ("simulate", "--design", lambda d: {**d, "control": [1, 2]},
     "design control must list every item 1..8"),
    ("recover", "--partition", lambda d: [1, 2], "partition file must hold a JSON object"),
    ("recover", "--partition", lambda d: {**d, "nests": 5},
     "partition has a field of the wrong type: 'int' object is not iterable"),
    ("recover", "--partition", lambda d: {**d, "nests": [[1, 2.9], *d["nests"][1:]]},
     "partition has a field of the wrong type: 'float' object cannot be interpreted as an integer"),
    ("recover", "--partition", lambda d: {**d, "n": 12},
     "partition n is 12 but its nests cover items 1..8"),
    ("recover", "--partition", lambda d: {"nests": [[1, 2], [3, 4]]},
     "control row offers items 1..8, partition covers items 1..4"),
    ("identify", "--design", lambda d: {**d, "experiments": [{"label": "A", "items": [1.7, 3]}]},
     "design has a field of the wrong type: 'float' object cannot be interpreted as an integer"),
    ("evaluate", "--est", lambda d: [1, 2], "model file must hold a JSON object"),
    ("evaluate", "--est", lambda d: {**d, "nests": 5},
     "model has a field of the wrong type: 'int' object is not iterable"),
    ("evaluate", "--est", lambda d: {**d, "lambda": None},
     "model has a field of the wrong type: 'NoneType' object is not iterable"),
    ("evaluate", "--est", lambda d: {**d, "v": [math.nan, *d["v"][1:]]},
     "item weights must be positive and finite"),
    ("evaluate", "--true", lambda d: {**d, "v": [*d["v"][:-1], math.inf]},
     "item weights must be positive and finite"),
    ("compare", "--config", lambda d: [1, 2], "config file must hold a JSON object"),
    ("compare", "--config", lambda d: {**d, "T_list": [9000.5]},
     "config field T_list entry must be an integer, got 9000.5"),
    ("compare", "--config", lambda d: {**d, "instances": 1.0},
     "config field instances must be an integer, got 1.0"),
    ("compare", "--config", lambda d: {**d, "alpha": 1.5}, "alpha must lie in [0, 1]"),
    ("compare", "--config", lambda d: {**d, "beta": -1}, "beta must lie in [0, 1]"),
    ("compare", "--config", lambda d: {**d, "n": 1}, "config field n must be at least 2, got 1"),
    ("compare", "--config", lambda d: {**d, "b": 1}, "config field b must be at least 2, got 1"),
    *(("compare", "--config", lambda d, k=k: {**d, "instances": k},
       f"config field instances must be at least 1, got {k}") for k in (0, -2)),
    ("compare", "--config", lambda d: {**d, "seed": -1},
     "config field seed must be at least 0, got -1"),
    *(("compare", "--config", lambda d, T=T: {**d, "T_list": [T]},
       f"config field T_list entry must be at least 1, got {T}") for T in (0, -5)),
])
def test_malformed_input_files_end_in_one_line(tmp_path, thin_counts, command, flag, rewrite,
                                               message):
    design, counts, partition = thin_counts
    est, config, out = tmp_path / "est.json", tmp_path / "config.json", tmp_path / "out"
    est.write_text((tmp_path / "truth.json").read_text())
    config.write_text(json.dumps({"n": 8, "T_list": [6000], "instances": 1}))
    args = {
        "identify": ["--design", design, "--counts", counts, "--out-partition", out],
        "simulate": ["--design", design, "--customers", "700", "--out", out],
        "recover": ["--design", design, "--counts", counts, "--partition", partition, "--out", out],
        "evaluate": ["--true", tmp_path / "truth.json", "--est", est],
        "compare": ["--config", config, "--output-dir", out],
    }[command]
    path = args[args.index(flag) + 1]
    path.write_text(json.dumps(rewrite(json.loads(path.read_text()))))
    with pytest.raises(SystemExit) as exc:
        main([command, *map(str, args)])
    assert exc.value.code == f"nestlab {command}: {message}"
    assert not out.exists()


def test_count_row_with_too_few_fields_ends_in_one_line(tmp_path, thin_counts):
    design, counts, _ = thin_counts
    header, first, *rest = counts.read_text().splitlines()
    counts.write_text("\n".join([header, first, "control,1", *rest]) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--design", str(design), "--counts", str(counts),
              "--out-partition", str(tmp_path / "p.json")])
    assert exc.value.code == "nestlab identify: count file line 3 has 2 fields, not 4"


def test_negative_sample_size_ends_in_one_line(tmp_path):
    """A listed sample size is checked against its counts' sum, naming the label"""
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"n": 1, "control": [1], "experiments": [
        {"label": "S", "items": [1]}]}))
    counts = tmp_path / "counts.csv"
    counts.write_text(
        "assortment_label,item_id,count,sample_size\n"
        "control,0,2,-5\ncontrol,1,3,-5\nS,0,1,4\nS,1,3,4\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--design", str(design), "--counts", str(counts),
              "--out-partition", str(tmp_path / "p.json")])
    assert exc.value.code == "nestlab identify: control lists sample size -5 but its counts sum to 5"
    assert not (tmp_path / "p.json").exists()


def test_count_field_that_is_not_an_integer_ends_in_one_line(tmp_path, thin_counts):
    """A row split by an unquoted comma in its label names the line and the field"""
    design, counts, _ = thin_counts
    header, first, *rest = counts.read_text().splitlines()
    counts.write_text("\n".join([header, first, "S(1,-0),1,5,10", *rest]) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--design", str(design), "--counts", str(counts),
              "--out-partition", str(tmp_path / "p.json")])
    assert exc.value.code == "nestlab identify: count file line 3: item_id '-0)' is not an integer"


def test_recover_prints_least_squares_flags(tmp_path, capsys, counts_without_outside):
    """One nest without an outside option fits as a multinomial logit, which recover notes"""
    design, counts, _ = counts_without_outside
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps({"n": 8, "nests": [list(range(1, 9))]}))
    assert main(["recover", "--design", str(design), "--counts", str(counts),
                 "--partition", str(partition), "--out", str(tmp_path / "m.json")]) == 0
    assert capsys.readouterr().err == "note: single-nest-mnl\n"
