"""End-to-end tests of the command-line interface."""

import argparse
import json
import math
import pathlib
import shlex
import shutil
import subprocess
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest

from interferlab import (
    InfeasibleError,
    ValidationError,
    cli,
    complex_matrix_to_dict,
    load_schema,
)
from interferlab.cli import SEED_ENV_VAR, main
from interferlab.interference import SorkinReport, SorkinSample

PI_LITERAL = format(math.pi, ".17g")

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# the options each command reads: its flags and its config-file keys
SHARED_KEYS = {"out", "config"}
COMMAND_KEYS = {
    "mz-sweep": SHARED_KEYS | {"grid_points", "angle_min", "angle_max", "format"},
    "sorkin": SHARED_KEYS | {"order", "trials", "seed", "theory", "format"},
    "kickback": SHARED_KEYS | {"unitaries", "seed"},
    "deutsch": SHARED_KEYS | {"function"},
    "exchange": SHARED_KEYS | {"state", "seed", "dim"},
    "phase-order": SHARED_KEYS | {"angles"},
}
# values every JSON output's metadata.config holds, read or derived
DERIVED_KEYS = {"theory", "dim", "paths", "format"}

# options that once were accepted but that could not change the command's output
REMOVED_OPTIONS = (
    [(command, "eps_eq") for command in COMMAND_KEYS]
    + [
        (command, "trials")
        for command in ("mz-sweep", "kickback", "deutsch", "exchange", "phase-order")
    ]
    + [(command, "seed") for command in ("mz-sweep", "deutsch", "phase-order")]
    + [
        (command, key)
        for command in COMMAND_KEYS
        for key in ("paths", "dim", "theory", "format")
        if key not in COMMAND_KEYS[command]
    ]
)


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def run_to_file(tmp_path, args, name="run.out"):
    """Run the CLI writing to a temp file; returns (exit code, text)."""
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def run_json(tmp_path, args, name="run.json"):
    code, text = run_to_file(tmp_path, args, name)
    return code, json.loads(text) if text else {}


def validated(command, document):
    jsonschema.validate(instance=document, schema=load_schema(command))
    return document


def test_mz_sweep_three_point_csv(tmp_path):
    code, text = run_to_file(
        tmp_path, ["mz-sweep", "--grid-points", "3"], "sweep.csv"
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "delta_phi,probability"
    assert len(lines) == 4
    assert PI_LITERAL in lines[3]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    for (delta, prob) in rows:
        assert abs(prob - math.cos(delta / 2.0) ** 2) < 1e-12
    assert [r[0] for r in rows] == [0.0, math.pi / 2.0, math.pi]
    assert text.endswith("\n")


def test_mz_sweep_prints_no_probability_below_zero(tmp_path):
    # the pattern at pi is 0 up to rounding; the sweep clips it into [0, 1]
    code, text = run_to_file(tmp_path, ["mz-sweep", "--grid-points", "3"])
    assert code == 0
    assert text.splitlines()[3] == f"{PI_LITERAL},0"


def test_mz_sweep_json_matches_schema_and_echoes_config(tmp_path):
    code, doc = run_json(
        tmp_path, ["mz-sweep", "--format", "json", "--grid-points", "5"]
    )
    assert code == 0
    validated("mz-sweep", doc)
    config = doc["metadata"]["config"]
    assert doc["metadata"]["command"] == "mz-sweep"
    assert config["grid_points"] == 5
    assert config["theory"] == "quantum"
    assert config["dim"] == 2
    assert config["paths"] == 2
    assert len(doc["rows"]) == 5
    for row in doc["rows"]:
        want = math.cos(row["delta_phi"] / 2.0) ** 2
        assert abs(row["probability"] - want) < 1e-12


def test_mz_sweep_has_no_classical_variant(tmp_path, capsys):
    # the classical backend has no nontrivial phase group to sweep
    code = main(["mz-sweep", "--theory", "classical"])
    assert code == 2
    assert "unrecognized arguments: --theory classical" in capsys.readouterr().err


def test_mz_sweep_rejects_dimension_conflicts(tmp_path):
    assert main(["mz-sweep", "--dim", "3"]) == 2
    assert main(["mz-sweep", "--grid-points", "0"]) == 2


def test_sorkin_second_order_quantum_reports_presence(tmp_path):
    code, doc = run_json(tmp_path, ["sorkin", "--order", "2", "--seed", "7"])
    assert code == 0
    validated("sorkin", doc)
    assert doc["verdict"] == "present"
    assert abs(doc["max_abs_residual"] - 0.5) < 1e-6
    assert doc["order"] == 2
    assert doc["metadata"]["config"]["trials"] == 256
    assert doc["witness"] is not None


def test_sorkin_quantum_requires_a_seed(capsys):
    assert main(["sorkin", "--order", "2"]) == 2
    assert SEED_ENV_VAR in capsys.readouterr().err


def test_sorkin_classical_second_order_is_exactly_zero(tmp_path):
    code, doc = run_json(tmp_path, ["sorkin", "--order", "2", "--theory", "classical"])
    assert code == 0
    validated("sorkin", doc)
    assert doc["verdict"] == "absent"
    assert doc["max_abs_residual"] == 0.0
    assert doc["witness"] is None


def test_sorkin_third_order_vanishes(tmp_path):
    code, doc = run_json(
        tmp_path, ["sorkin", "--order", "3", "--seed", "11", "--trials", "60"]
    )
    assert code == 0
    validated("sorkin", doc)
    assert doc["verdict"] == "absent"
    assert doc["max_abs_residual"] < 1e-9
    assert doc["metadata"]["config"]["dim"] == 3


def test_sorkin_third_order_is_quantum_only(capsys):
    assert main(["sorkin", "--order", "3", "--theory", "classical"]) == 2
    assert "quantum backend only" in capsys.readouterr().err


def test_sorkin_rejects_other_orders():
    assert main(["sorkin", "--order", "4", "--seed", "1"]) == 2


def test_sorkin_csv_lists_sampled_angle_rows(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["sorkin", "--order", "3", "--seed", "3", "--trials", "5", "--format", "csv"],
        "scan.csv",
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "theta_0,theta_1,theta_2,lhs,rhs,residual"
    assert len(lines) == 6
    for line in lines[1:]:
        assert abs(float(line.split(",")[5])) < 1e-9


@pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
def test_deutsch_reads_parity_in_one_query(tmp_path, bits):
    code, doc = run_json(tmp_path, ["deutsch", "--function", bits], f"{bits}.json")
    assert code == 0
    validated("deutsch", doc)
    assert doc["parity"] == int(bits[0]) ^ int(bits[1])
    assert doc["queries"] == 1
    assert abs(doc["prob"] - 1.0) < 1e-12


def test_deutsch_console_script_runs(tmp_path):
    exe = shutil.which("interferlab")
    assert exe is not None, "console script not installed"
    proc = subprocess.run(
        [exe, "deutsch", "--function", "01"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["parity"] == 1


def test_deutsch_input_guards():
    assert main(["deutsch"]) == 2
    assert main(["deutsch", "--function", "012"]) == 2
    assert main(["deutsch", "--function", "0"]) == 2
    assert main(["deutsch", "--function", "01", "--format", "csv"]) == 2
    assert main(["deutsch", "--function", "01", "--theory", "classical"]) == 2


@pytest.mark.parametrize(
    "spec, kind, theta",
    [
        ("sym", "Boson", 0.0),
        ("antisym", "Fermion", math.pi),
        ("anyon:2.2", "Anyon", 2.2),
    ],
)
def test_exchange_classifies_the_three_families(tmp_path, spec, kind, theta):
    code, doc = run_json(
        tmp_path, ["exchange", "--state", spec, "--seed", "0"], "exchange.json"
    )
    assert code == 0
    validated("exchange", doc)
    assert doc["class"] == kind
    assert abs(doc["theta"] - theta) < 1e-9


def test_exchange_on_larger_factors(tmp_path):
    code, doc = run_json(
        tmp_path, ["exchange", "--state", "antisym", "--seed", "0", "--dim", "3"]
    )
    assert code == 0
    assert doc["class"] == "Fermion"
    assert doc["metadata"]["config"]["dim"] == 3


def test_exchange_input_guards(capsys):
    assert main(["exchange", "--seed", "0"]) == 2
    assert main(["exchange", "--state", "photon", "--seed", "0"]) == 2
    assert main(["exchange", "--state", "anyon:fast", "--seed", "0"]) == 2
    assert main(["exchange", "--state", "sym"]) == 2


@pytest.mark.parametrize(
    "angles, order",
    [("0,0,0", None), ("0,3.1,1.0", 2), ("0,0.7", 2)],
)
def test_phase_order_reports_detectability(tmp_path, angles, order):
    code, doc = run_json(
        tmp_path, ["phase-order", "--angles", angles], "order.json"
    )
    assert code == 0
    validated("phase-order", doc)
    assert doc["order"] == order
    assert doc["metadata"]["config"]["dim"] == len(angles.split(","))


def test_phase_order_input_guards():
    assert main(["phase-order"]) == 2
    assert main(["phase-order", "--angles", "1.0"]) == 2
    assert main(["phase-order", "--angles", "a,b"]) == 2
    assert main(["phase-order", "--angles", "0,1", "--dim", "3"]) == 2
    assert main(["phase-order", "--angles", "--format", "json"]) == 2


def test_phase_order_names_the_angle_count(capsys):
    assert main(["phase-order", "--angles", "0"]) == 2
    assert capsys.readouterr().err == "interferlab: error: angle count must be >= 2, got 1\n"


def unitaries_file(tmp_path, mats, fixed_amplitudes=None, name="unitaries.json"):
    doc = {"unitaries": [complex_matrix_to_dict(m) for m in mats]}
    if fixed_amplitudes is not None:
        doc["fixed_state"] = {
            "system": {"theory": "quantum", "dim": len(fixed_amplitudes)},
            "form": "amplitude",
            "amplitudes": [[float(a), 0.0] for a in fixed_amplitudes],
        }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_kickback_extracts_the_sign_flip_angle(tmp_path):
    spec = unitaries_file(
        tmp_path, [np.eye(2), np.diag([1.0, -1.0])], fixed_amplitudes=[0.0, 1.0]
    )
    code, doc = run_json(
        tmp_path, ["kickback", "--unitaries", spec, "--seed", "1"], "kick.json"
    )
    assert code == 0
    validated("kickback", doc)
    assert abs(doc["angles"][0]) < 1e-12
    assert abs(doc["angles"][1] - math.pi) < 1e-9
    assert doc["kickback_residual"] < 1e-9
    assert doc["phase_residual"] < 1e-9
    assert doc["metadata"]["config"]["dim"] == 2
    assert doc["metadata"]["config"]["paths"] == 2


def test_kickback_defaults_to_the_computed_fixed_state(tmp_path):
    spec = unitaries_file(tmp_path, [np.eye(2), np.diag([1.0, -1.0])])
    code, doc = run_json(tmp_path, ["kickback", "--unitaries", spec, "--seed", "1"])
    assert code == 0
    assert doc["angles"] == [0.0, 0.0]


def test_kickback_without_a_common_fixed_state_is_infeasible(tmp_path, capsys):
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = unitaries_file(tmp_path, [z, x])
    assert main(["kickback", "--unitaries", spec, "--seed", "1"]) == 2
    assert "fixed state" in capsys.readouterr().err


def test_kickback_file_guards(tmp_path):
    assert main(["kickback", "--seed", "1"]) == 2
    assert main(["kickback", "--unitaries", str(tmp_path / "nope.json"), "--seed", "1"]) == 2
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    assert main(["kickback", "--unitaries", str(bad), "--seed", "1"]) == 2
    single = unitaries_file(tmp_path, [np.eye(2)], name="single.json")
    assert main(["kickback", "--unitaries", single, "--seed", "1"]) == 2
    uneven = unitaries_file(tmp_path, [np.eye(2), np.eye(3)], name="uneven.json")
    assert main(["kickback", "--unitaries", uneven, "--seed", "1"]) == 2
    spec = unitaries_file(tmp_path, [np.eye(2), np.diag([1.0, -1.0])])
    assert main(["kickback", "--unitaries", spec]) == 2


@pytest.mark.parametrize("count", [0, 1])
def test_kickback_needs_two_branch_unitaries(tmp_path, capsys, count):
    spec = unitaries_file(tmp_path, [np.eye(2)] * count)
    assert main(["kickback", "--unitaries", spec, "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        f"interferlab: error: branch unitary count must be >= 2, got {count}\n")


def malformed(doc, path, value):
    """doc with the entry at the key path replaced, or deleted when value is None."""
    *keys, last = path
    for key in keys:
        doc = doc[key]
    if value is None:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize(
    "path,value",
    [
        (("fixed_state", "system"), None),
        (("fixed_state", "amplitudes"), None),
        (("unitaries", 0, "entries", 0), [1]),
        (("unitaries",), 5),
        (("fixed_state", "system", "dim"), "x"),
        (("unitaries", 1, "entries", 0), ["a", 0]),
        (("fixed_state",), "amplitude"),
        (("unitaries", 0, "shape"), [-2, -2]),
        (("unitaries", 0, "shape"), [4]),
        (("fixed_state", "system", "dim"), 2.9),
        (("unitaries", 1, "shape"), [2.9, 2]),
        (("fixed_state", "system", "dim"), True),
    ],
)
def test_malformed_descriptor_files_exit_2_without_a_traceback(tmp_path, capsys, path, value):
    spec = unitaries_file(tmp_path, [np.eye(2), np.diag([1.0, -1.0])], fixed_amplitudes=[0, 1])
    with open(spec, encoding="utf-8") as fh:
        doc = json.load(fh)
    malformed(doc, path, value)
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["kickback", "--unitaries", spec, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("interferlab: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "message",
    ["Unable to allocate 745. GiB for an array with shape (100000000000,)", ""],
)
def test_running_out_of_memory_exits_2_without_a_traceback(monkeypatch, capsys, message):
    def exhausted(cfg):
        raise MemoryError(message)

    monkeypatch.setitem(cli._RUNNERS, "mz-sweep", exhausted)
    assert main(["mz-sweep"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("interferlab: error: not enough memory")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args, what",
    [
        (["exchange", "--state", "antisym", "--dim", "30", "--seed", "0"],
         "the controlled exchange channel matrix needs 83,980,800,000,000 bytes"),
        (["mz-sweep", "--grid-points", "100000000000"],
         "the phase grid needs 102,400,000,000,000 bytes"),
        (["sorkin", "--order", "2", "--trials", "10000000", "--seed", "1"],
         "the trial stack needs 20,480,000,000 bytes"),
    ],
    ids=["exchange-dim-30", "mz-sweep-1e11-points", "sorkin-quantum-1e7-trials"],
)
def test_oversized_inputs_exit_2_before_allocating(capsys, args, what):
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert what in err
    assert f"over the size cap of {cli.SIZE_CAP_BYTES:,} bytes" in err
    assert peak < 4 * 2**20



def test_classical_sorkin_ignores_the_trial_count(capsys):
    # the classical scan enumerates its phases; --trials sizes nothing there
    docs = []
    for trials, seed in (("5", "1"), ("9999", "3"), ("10000000", "1")):
        argv = ["sorkin", "--order", "2", "--theory", "classical", "--format", "csv"]
        assert main([*argv, "--trials", trials, "--seed", seed]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1] == docs[2]

@pytest.mark.parametrize("residual, code", [(0.5, 3), (1e-7, 4)], ids=["present", "dead-band"])
def test_third_order_verdicts_other_than_absent_exit_3_or_4(monkeypatch, capsys, residual, code):
    def scan(experiment, trials, seed):
        return SorkinReport(3, (SorkinSample((0.0, 1.0, 2.0), residual, 0.0, residual),), None)

    monkeypatch.setattr(cli, "third_order_scan_quantum", scan)
    assert main(["sorkin", "--order", "3", "--seed", "1"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_abs_residual"] == residual


@pytest.mark.parametrize("error, code", [(ValidationError, 4), (InfeasibleError, 2)])
@pytest.mark.parametrize(
    "name, args",
    [
        ("extract_kickback", ["kickback", "--unitaries", "UNITARIES", "--seed", "1"]),
        ("exchange_experiment", ["exchange", "--state", "sym", "--seed", "0"]),
    ],
    ids=["kickback", "exchange"],
)
def test_failed_verifications_exit_4_and_infeasible_inputs_exit_2(
    tmp_path, monkeypatch, capsys, name, args, error, code
):
    def failing(*args, **kwargs):
        raise error("the check failed (deviation 0.25)")

    monkeypatch.setattr(cli, name, failing)
    spec = unitaries_file(tmp_path, [np.eye(2), np.diag([1.0, -1.0])])
    assert main([spec if a == "UNITARIES" else a for a in args]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "interferlab: error: the check failed (deviation 0.25)\n"


def test_an_unwritable_output_file_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "parity.json"
    assert main(["deutsch", "--function", "01", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("interferlab: error: cannot write output file:")
    assert not out.exists()


def test_library_errors_escaping_a_runner_exit_2_without_a_traceback(monkeypatch, capsys):
    def failing(cfg):
        raise ValidationError("state is not normalized: unit pairing 1.5")

    monkeypatch.setitem(cli._RUNNERS, "deutsch", failing)
    assert main(["deutsch", "--function", "01"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "interferlab: error: state is not normalized: unit pairing 1.5\n"


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "repeat.json"
    args = ["sorkin", "--order", "2", "--seed", "5", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    out_csv = tmp_path / "repeat.csv"
    args = ["mz-sweep", "--grid-points", "7", "--out", str(out_csv)]
    assert main(args) == 0
    first = out_csv.read_bytes()
    assert main(args) == 0
    assert out_csv.read_bytes() == first


def test_flags_override_config_file_values(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"grid_points": 4, "angle_max": 1.0, "format": "json"}),
        encoding="utf-8",
    )
    code, doc = run_json(
        tmp_path,
        ["mz-sweep", "--config", str(config), "--grid-points", "3"],
    )
    assert code == 0
    resolved = doc["metadata"]["config"]
    assert resolved["grid_points"] == 3
    assert resolved["angle_max"] == 1.0
    assert resolved["config"] == str(config)
    assert len(doc["rows"]) == 3
    assert abs(doc["rows"][-1]["delta_phi"] - 1.0) < 1e-15


def test_config_file_guards(tmp_path):
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"gird_points": 4}), encoding="utf-8")
    assert main(["mz-sweep", "--config", str(unknown)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert main(["mz-sweep", "--config", str(broken)]) == 2
    array = tmp_path / "array.json"
    array.write_text("[]", encoding="utf-8")
    assert main(["mz-sweep", "--config", str(array)]) == 2
    assert main(["mz-sweep", "--config", str(tmp_path / "absent.json")]) == 2


def test_environment_seed_is_used_and_echoed(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "9")
    out = tmp_path / "env.json"
    assert main(["sorkin", "--order", "2", "--out", str(out)]) == 0
    env_bytes = out.read_bytes()
    doc = json.loads(env_bytes)
    assert doc["metadata"]["config"]["seed"] == 9
    monkeypatch.delenv(SEED_ENV_VAR)
    assert main(["sorkin", "--order", "2", "--seed", "9", "--out", str(out)]) == 0
    assert out.read_bytes() == env_bytes


@pytest.mark.parametrize("source", ["flag", "config", "environment"])
@pytest.mark.parametrize("command", [["exchange", "--state", "sym"], ["sorkin", "--order", "2"]])
def test_negative_seeds_are_usage_errors(tmp_path, monkeypatch, capsys, source, command):
    args = list(command)
    if source == "flag":
        args += ["--seed", "-1"]
    elif source == "config":
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"seed": -1}), encoding="utf-8")
        args += ["--config", str(config)]
    else:
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
    assert main(args) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, value",
    [
        (["phase-order"], "--angles", "-1,2"),
        (["phase-order"], "--angles", "-1,-2,-3"),
        (["mz-sweep", "--grid-points", "5"], "--angle-min", "-1e-3"),
        (["mz-sweep", "--format", "json"], "--angle-max", "-.5"),
    ],
)
def test_negative_option_values_read_like_the_equals_form(capsys, command, option, value):
    assert main(command + [f"{option}={value}"]) == 0
    joined = capsys.readouterr().out
    assert main(command + [option, value]) == 0
    assert capsys.readouterr().out == joined


@pytest.mark.parametrize(
    "args, key, value",
    [
        (["mz-sweep"], "grid_points", 3.7),
        (["mz-sweep"], "grid_points", True),
        (["mz-sweep"], "angle_max", True),
        (["mz-sweep"], "angle_max", "1.0"),
        (["sorkin", "--order", "2"], "seed", "5"),
        (["sorkin", "--seed", "1"], "order", 2.0),
        (["deutsch"], "function", 10),
        (["exchange", "--seed", "0"], "state", ["sym"]),
    ],
)
def test_config_values_must_have_the_option_json_type(tmp_path, capsys, args, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    assert main(args + ["--config", str(config)]) == 2
    assert f"config key {key!r} must be a JSON" in capsys.readouterr().err


def test_float_options_take_json_integers(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"angle_min": 0, "angle_max": 1}), encoding="utf-8")
    code, doc = run_json(tmp_path, ["mz-sweep", "--config", str(config), "--format", "json"])
    assert code == 0
    assert doc["metadata"]["config"]["angle_max"] == 1.0
    assert isinstance(doc["metadata"]["config"]["angle_max"], float)


@pytest.mark.parametrize(
    "args, config, option",
    [
        (["mz-sweep", "--grid-points", "3", "--angle-max", "inf"], None, "angle-max"),
        (["mz-sweep", "--angle-min=nan"], None, "angle-min"),
        (["mz-sweep"], '{"angle_max": NaN}', "angle-max"),
        (["mz-sweep"], '{"angle_min": -Infinity}', "angle-min"),
        (["phase-order", "--angles", "0,nan,1"], None, "angles"),
        (["phase-order", "--angles", "0,inf"], None, "angles"),
        (["exchange", "--state", "anyon:nan", "--seed", "1"], None, "state"),
        (["exchange", "--state", "anyon:-inf", "--seed", "1"], None, "state"),
    ],
    ids=[
        "angle-max-flag", "angle-min-flag", "angle-max-config", "angle-min-config",
        "angles-nan", "angles-inf", "anyon-nan", "anyon-inf",
    ],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, args, config, option):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        args = args + ["--config", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    # one error line naming the option: no traceback, no numpy warning
    assert err.startswith(f"interferlab: error: {option} ") and err.count("\n") == 1
    assert "finite" in err
    assert not caught


def test_bad_environment_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "lots")
    assert main(["sorkin", "--order", "2"]) == 2
    assert SEED_ENV_VAR in capsys.readouterr().err


def test_output_files_use_bare_line_feeds(tmp_path):
    out = tmp_path / "lines.csv"
    assert main(["mz-sweep", "--grid-points", "3", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_common_option_validation(capsys):
    assert main(["sorkin", "--order", "2", "--theory", "thermal"]) == 2
    assert "unknown theory 'thermal'" in capsys.readouterr().err
    assert main(["exchange", "--state", "sym", "--seed", "0", "--dim", "1"]) == 2
    assert "dim must be >= 2, got 1" in capsys.readouterr().err
    assert main(["mz-sweep", "--eps-eq", "0"]) == 2
    assert main(["sorkin", "--order", "2", "--seed", "1", "--trials", "0"]) == 2
    assert main(["mz-sweep", "--format", "yaml"]) == 2


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["teleport"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def valid_args(tmp_path, command):
    """Arguments on which `command` succeeds."""
    if command == "kickback":
        spec = unitaries_file(tmp_path, [np.eye(2), np.diag([1.0, -1.0])])
        return ["kickback", "--unitaries", spec, "--seed", "1"]
    return {
        "mz-sweep": ["mz-sweep", "--grid-points", "3"],
        "sorkin": ["sorkin", "--order", "2", "--seed", "1"],
        "deutsch": ["deutsch", "--function", "01"],
        "exchange": ["exchange", "--state", "sym", "--seed", "0"],
        "phase-order": ["phase-order", "--angles", "0,1"],
    }[command]


@pytest.mark.parametrize("command, key", REMOVED_OPTIONS)
def test_options_a_command_does_not_read_are_rejected(tmp_path, capsys, command, key):
    args = valid_args(tmp_path, command)
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--" + key.replace("_", "-"), "1"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 1}), encoding="utf-8")
    assert main(args + ["--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["deutsch", "--function", "01"],
        ["phase-order", "--angles", "0,3.1,1.0"],
        ["mz-sweep", "--format", "json"],
    ],
)
def test_unseeded_commands_ignore_the_seed_variable(monkeypatch, capsys, args):
    assert main(args) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv(SEED_ENV_VAR, "9")
    assert main(args) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_metadata_echoes_exactly_the_options_a_command_reads(tmp_path, command):
    args = valid_args(tmp_path, command)
    if "format" in COMMAND_KEYS[command]:
        args += ["--format", "json"]
    code, doc = run_json(tmp_path, args)
    assert code == 0
    assert set(doc["metadata"]["config"]) == COMMAND_KEYS[command] | DERIVED_KEYS


def readme_block(language):
    """The first fenced block of `language` in the README's command-line section."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


README_COMMANDS = [
    shlex.split(line.partition("#")[0])[1:]
    for line in readme_block("sh").splitlines()
    if line.startswith("interferlab ")
]


def readme_flag_table():
    """command -> the flags the README's table lists for it."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    return {
        command.strip().strip("`"): {flag.strip().strip("`") for flag in flags.split(",")}
        for command, flags in rows
    }


def test_readme_flag_table_matches_the_parser():
    (subparsers,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    accepted = {
        command: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for command, parser in subparsers.choices.items()
    }
    documented = readme_flag_table()
    assert accepted == {
        command: flags | {"--out", "--config"} for command, flags in documented.items()
    }
    assert accepted == {
        command: {"--" + key.replace("_", "-") for key in keys}
        for command, keys in COMMAND_KEYS.items()
    }


def test_readme_shows_every_command():
    assert {argv[0] for argv in README_COMMANDS} == set(COMMAND_KEYS)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_commands_run(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "branches.json").write_text(readme_block("json"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
