import json
import os
import time

import pytest

from tsa.cli import main
from tsa.instances import (MNL, Instance, UniformNoOutside, generate_random_instance, load_instance,
                           save_instance, tight_instance)


def run(args):
    return main(args)


def test_generate_and_solve(tmp_path, capsys):
    assert run(["generate", "--sizes", "2", "--seeds", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "n2m2_s0.json"
    assert path.exists()
    inst = load_instance(path)
    assert (inst.n, inst.m) == (2, 2)
    capsys.readouterr()
    assert run(["solve", "--instance", str(path), "--what", "fs,os,oa,fa"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["OPT_FS"] <= out["OPT_OS"] + 1e-9 <= out["OPT_OA"] + 2e-9 <= out["OPT_FA"] + 3e-9


def test_generate_tight_kind(tmp_path, capsys):
    assert run(["generate", "--kind", "prop1", "--n", "3", "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    inst = load_instance(path)
    assert (inst.n, inst.m) == (3, 1)


def test_generate_tight_kind_below_2_exits_2(tmp_path):
    for n in ("0", "1"):
        assert run(["generate", "--kind", "prop1", "--n", n, "--out", str(tmp_path)]) == 2
    assert not os.listdir(tmp_path)


def test_generate_n_needs_kind(tmp_path, capsys):
    """--n sizes a hard construction only: without --kind it exits 2 and
    writes nothing; --kind alone means n = 2."""
    out_dir = tmp_path / "random"
    assert run(["generate", "--sizes", "2", "--seeds", "1", "--n", "5", "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert run(["generate", "--kind", "lemma6", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "lemma6_n2.json")
    assert run(["generate", "--kind", "lemma6", "--n", "0", "--out", str(tmp_path / "zero")]) == 2


def test_generate_rejects_run_flags(tmp_path):
    """generate runs no solver, so --time-limit and --jobs are unknown flags."""
    for flag, value in (("--time-limit", "0.000001"), ("--jobs", "2")):
        assert run(["generate", "--sizes", "2", "--seeds", "1", flag, value,
                    "--out", str(tmp_path)]) == 2
    assert not os.listdir(tmp_path)


def test_generate_rejects_run_fields_in_config(tmp_path):
    """The config-file fields of --time-limit and --jobs are refused like the flags."""
    for field, value in (("time_limit", 60.0), ("jobs", 1)):
        cfg_path = tmp_path / f"{field}.json"
        cfg_path.write_text(json.dumps({"sizes": [[2, 2]], "seeds": 1, field: value}))
        out_dir = tmp_path / f"out_{field}"
        assert run(["generate", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        assert not out_dir.exists()
        assert run(["gaps", "--config", str(cfg_path), "--out", str(out_dir)]) == 0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"sizes": [[2, 2]], "seeds": 3, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert run(["generate", "--config", str(cfg_path), "--seeds", "2",
                "--out", str(out_dir)]) == 0
    files = sorted(os.listdir(out_dir))
    assert files == ["n2m2_s5.json", "n2m2_s6.json"]


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sizes": []}')
    assert run(["generate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"frobnicate": 1}')
    assert run(["generate", "--config", str(unknown), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("field", [
    {"seeds": "3"}, {"seed": "a"}, {"jobs": "2"}, {"jobs": 1.5}, {"time_limit": "5"},
    {"out": 5}, {"sizes": [[2, 2.5]]}, {"seeds": True}, {"time_limit": True}, [],
])
def test_config_field_of_wrong_type_exits_2(tmp_path, monkeypatch, field):
    """A config field is checked like an instance file's: a string, float or
    boolean where another type belongs is refused, not passed to the run."""
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(field if isinstance(field, list) else {"sizes": [[2, 2]], **field}))
    assert run(["tables", "--config", str(cfg_path)]) == 2
    assert os.listdir(tmp_path) == ["c.json"]


def test_size_refusal_exit_code(tmp_path):
    path = tmp_path / "big.json"
    save_instance(generate_random_instance(1, 16, seed=0), path)  # 4.4e7 states > 2^24
    assert run(["solve", "--instance", str(path), "--what", "fa"]) == 3
    # No flag sets a solver's size limit.
    for flag in ("--fa-cap", "--oa-cap", "--os-cap", "--fs-cap"):
        assert run(["solve", "--instance", str(path), "--what", "fa", flag, "9"]) == 2


@pytest.mark.parametrize("limit", [-1.0, float("nan")])
def test_time_limit_below_zero_or_nan_is_a_config_error(tmp_path, limit):
    """Each command refuses the limit before it solves or writes anything; a
    config file may hold NaN, which JSON readers accept."""
    path = tmp_path / "inst.json"
    save_instance(generate_random_instance(2, 2, seed=0), path)
    out = tmp_path / "out"
    assert run(["solve", "--instance", str(path), "--what", "fa", "--time-limit", str(limit)]) == 2
    assert run(["simulate", "--instance", str(path), "--time-limit", str(limit)]) == 2
    for command in ("gaps", "tables"):
        assert run([command, "--sizes", "2", "--seeds", "1", "--time-limit", str(limit),
                    "--out", str(out)]) == 2
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sizes": [[2, 2]], "seeds": 1, "time_limit": limit,
                                   "out": str(out)}))
        assert run([command, "--config", str(cfg)]) == 2
    assert not out.exists()


def test_refusals_exit_3(tmp_path, capsys):
    """A quantity the choice models do not support and a table past its size
    limit are both refusals."""
    uniform = tmp_path / "uniform.json"
    save_instance(Instance(1, 17, (UniformNoOutside(17),), (MNL((1.0,)),) * 17), uniform)
    wide = tmp_path / "wide.json"
    save_instance(generate_random_instance(21, 1, seed=0), wide)
    for path, args, message in ((uniform, ["--what", "ub_oa"], "unsupported:"),
                                (uniform, ["--what", "alg_fs"], "unsupported:"),
                                (uniform, ["--what", "os"], "size refusal: prob_table"),
                                (wide, ["--what", "os"], "size refusal: demand_table")):
        assert run(["solve", "--instance", str(path), *args]) == 3
        assert capsys.readouterr().err.startswith(message)

def test_time_limit_exit_code(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(generate_random_instance(4, 4, seed=0), path)
    assert run(["solve", "--instance", str(path), "--what", "fa",
                "--time-limit", "0.001"]) == 4


def test_simulate_outputs_metadata(tmp_path, capsys):
    path = tmp_path / "inst.json"
    save_instance(generate_random_instance(2, 2, seed=1), path)
    trace_path = tmp_path / "trace.jsonl"
    assert run(["simulate", "--instance", str(path), "--policy", "sampling",
                "--runs", "50", "--seed", "3", "--trace", str(trace_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["runs"] == 50
    assert out["metadata"]["side"] in ("C", "S")
    lines = trace_path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert set(json.loads(lines[0])) == {"step", "agent", "assortment", "choice"}


def test_gaps_on_tight_instance(tmp_path, capsys):
    inst_path = tmp_path / "prop1.json"
    save_instance(tight_instance("prop1", 4), inst_path)
    out_dir = tmp_path / "gaps"
    assert run(["gaps", "--instance", str(inst_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    rows = (out_dir / "gaps.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    cells = rows[1].split(",")
    ratio = dict(zip(header, cells))["OPT_OS/OPT_FS"]
    assert abs(float(ratio) - 2.734375) < 1e-6


def test_gaps_bad_instance_file_writes_nothing(tmp_path):
    """Every --instance file is read before the output directory is made."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_instance(generate_random_instance(2, 2, seed=0), good)
    bad.write_text(json.dumps({"n": 1}))
    out_dir = tmp_path / "gaps"
    assert run(["gaps", "--instance", str(good), str(bad), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_tables_deterministic_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["tables", "--sizes", "2", "--seeds", "3", "--seed", "0"]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    for name in ("instances.csv", "table_fullystatic.csv", "table_gaps.csv",
                 "table_adaptive.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / "table_gaps.csv").read_text().split("\n")[0]
    assert "OPT_OS/OPT_FS min" in header and "OPT_OS/OPT_FS mean" in header \
        and "OPT_OS/OPT_FS max" in header


def test_tables_parallel_jobs_match_serial(tmp_path):
    out_a = tmp_path / "serial"
    out_b = tmp_path / "par"
    base = ["tables", "--sizes", "2", "--seeds", "2", "--seed", "1"]
    assert run(base + ["--out", str(out_a)]) == 0
    assert run(base + ["--jobs", "2", "--out", str(out_b)]) == 0
    assert (out_a / "instances.csv").read_bytes() == (out_b / "instances.csv").read_bytes()


def test_jobs_below_1_exits_2_and_null_means_one_process(tmp_path):
    base = ["tables", "--sizes", "2", "--seeds", "1"]
    for jobs in ("0", "-1"):
        out_dir = tmp_path / f"jobs{jobs}"
        assert run(base + ["--jobs", jobs, "--out", str(out_dir)]) == 2
        assert not out_dir.exists()
    for jobs, code in ((0, 2), (None, 0)):
        cfg_path = tmp_path / f"cfg_{jobs}.json"
        cfg_path.write_text(json.dumps({"jobs": jobs}))
        out_dir = tmp_path / f"cfg_out_{jobs}"
        assert run(base + ["--config", str(cfg_path), "--out", str(out_dir)]) == code
        assert out_dir.exists() == (code == 0)
    assert (tmp_path / "cfg_out_None" / "table_gaps.csv").exists()


def test_unknown_policy_is_config_error(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(generate_random_instance(2, 2, seed=1), path)
    assert run(["simulate", "--instance", str(path), "--policy", "greedy-c",
                "--runs", "0"]) == 2


def test_time_limit_stops_fully_static_enumeration(tmp_path):
    # The 2^20 edge sets of a 4x5 market take about 0.1 s to value, in 256
    # blocks, each after a poll; unpolled, this solve prints OPT_FS.
    path = tmp_path / "inst.json"
    save_instance(generate_random_instance(4, 5, seed=0), path)
    assert run(["solve", "--instance", str(path), "--what", "fs",
                "--time-limit", "0.01"]) == 4


def test_time_limit_stops_one_sided_static_enumeration(tmp_path):
    # The contraction polls once per responder; unpolled, this solve prints
    # OPT_OS after about a second.
    path = tmp_path / "inst.json"
    save_instance(generate_random_instance(5, 5, seed=0), path)
    assert run(["solve", "--instance", str(path), "--what", "os",
                "--time-limit", "0.001"]) == 4


def test_time_limit_stops_ub_oa(tmp_path):
    path = tmp_path / "big.json"
    save_instance(generate_random_instance(12, 12, seed=0), path)
    assert run(["solve", "--instance", str(path), "--what", "ub_oa",
                "--time-limit", "0.001"]) == 4


def test_gaps_time_limit_exit_code(tmp_path, capsys):
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"jobs{jobs}"
        assert run(["gaps", "--sizes", "4", "--seeds", "2", "--time-limit", "0.001",
                    "--jobs", jobs, "--out", str(out_dir)]) == 4
        assert (out_dir / "gaps.csv").exists()
    # The 2x2 report finishes well inside the limit and is written; the 7x7
    # one-sided adaptive DP cannot finish and stops at the limit.
    out_dir = tmp_path / "partial"
    assert run(["gaps", "--sizes", "2,7", "--seeds", "1", "--time-limit", "2",
                "--out", str(out_dir)]) == 4
    rows = (out_dir / "gaps.csv").read_text().strip().split("\n")
    assert [r.split(",")[0] for r in rows[1:]] == ["n2m2_s0"]


def test_tables_time_limit_writes_finished_reports(tmp_path, capsys):
    # As in the gaps test: the 2x2 report finishes, the 7x7 one hits the limit.
    out_dir = tmp_path / "partial"
    assert run(["tables", "--sizes", "2,7", "--seeds", "1", "--time-limit", "2",
                "--out", str(out_dir)]) == 4
    rows = (out_dir / "instances.csv").read_text().strip().split("\n")
    assert [r.split(",")[0] for r in rows[1:]] == ["n2m2_s0"]
    for name in ("table_fullystatic.csv", "table_gaps.csv", "table_adaptive.csv"):
        rows = (out_dir / name).read_text().strip().split("\n")
        assert [r.split(",")[0] for r in rows[1:]] == ["2x2"]


def test_gaps_time_limit_stops_monte_carlo(tmp_path, capsys):
    # At 10x10 every exact solver refuses and the Monte Carlo runs of the
    # algorithm values take most of a report's time; eight reports take
    # about 2 s on a 2-core Xeon, four times the limit.
    assert run(["gaps", "--sizes", "10", "--seeds", "8", "--time-limit", "0.5",
                "--out", str(tmp_path)]) == 4


def test_simulate_time_limit(tmp_path, capsys):
    path = tmp_path / "inst.json"
    save_instance(generate_random_instance(10, 10, seed=0), path)
    assert run(["simulate", "--instance", str(path), "--policy", "sampling",
                "--runs", "500", "--time-limit", "60"]) == 0
    assert json.loads(capsys.readouterr().out)["runs"] == 500
    start = time.monotonic()
    assert run(["simulate", "--instance", str(path), "--policy", "sampling",
                "--runs", "100000000", "--time-limit", "0.5"]) == 4
    assert time.monotonic() - start < 2.0


def test_gaps_time_limit_stops_simplex_pivots(tmp_path, capsys):
    # At 30x30 one dense pivot of UB_FA's tableau takes tens of milliseconds;
    # the simplex must see the limit within a pivot or two.
    start = time.monotonic()
    assert run(["gaps", "--sizes", "30", "--seeds", "1", "--time-limit", "1",
                "--out", str(tmp_path)]) == 4
    assert time.monotonic() - start < 4.0


def test_gaps_time_limit_with_jobs_stops_at_limit(tmp_path, capsys):
    # Four 7x7 reports on two workers: each task shares the caller's deadline
    # and the first timeout cancels the tasks not yet started.
    start = time.monotonic()
    assert run(["gaps", "--sizes", "7", "--seeds", "4", "--time-limit", "2", "--jobs", "2",
                "--out", str(tmp_path)]) == 4
    assert time.monotonic() - start < 3.0


def test_gaps_instance_files_parallel_match_serial(tmp_path, capsys):
    paths = []
    for name, inst in (("a", generate_random_instance(2, 2, seed=4)),
                       ("b", generate_random_instance(2, 3, seed=5))):
        paths.append(str(tmp_path / f"{name}.json"))
        save_instance(inst, paths[-1])
    for jobs in ("1", "2"):
        assert run(["gaps", "--instance", *paths, "--jobs", jobs,
                    "--out", str(tmp_path / f"jobs{jobs}")]) == 0
    serial = (tmp_path / "jobs1" / "gaps.csv").read_bytes()
    assert serial == (tmp_path / "jobs2" / "gaps.csv").read_bytes()
    assert [r.split(",")[0] for r in serial.decode().strip().split("\n")[1:]] == ["a", "b"]
