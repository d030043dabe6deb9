"""CLI tests: config validation with field-level messages, exit codes, file
outputs, overrides, idempotence, and the three auxiliary subcommands."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from asysg.cli import main
from asysg.harness import CSV_HEADER, read_trace_csv


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(tmp_path, mode="serial", K=100, **alg):
    return {
        "problem": {"type": "noisy_quadratic", "n": 6, "N": 16, "sigma": 0.5},
        "algorithm": {"mode": mode, "K": K, "M": 1,
                      "gamma": {"kind": "constant", "value": 0.05}, **alg},
        "output": {"trace": str(tmp_path / "out" / "run"), "checkpoint_every": 10},
        "seeds": {"master_seed": 0, "replicates": 1},
    }


# ------------------------------------------------------------ validation failures

def test_negative_T_exits_2_naming_field(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["algorithm"]["T"] = -1
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "algorithm.T" in capsys.readouterr().err


@pytest.mark.parametrize("problem", [
    {"type": "noisy_quadratic", "n": 1, "kappa": 1, "gap": 0},
    {"type": "least_squares", "N": 1},  # one sample: sigma^2 = 0
], ids=["quadratic-gap-0", "least-squares-N-1"])
def test_uncomputable_derived_gamma_refused_before_any_output(tmp_path, capsys, problem):
    doc = base_doc(tmp_path)
    doc["problem"] = problem
    doc["algorithm"]["gamma"] = {"kind": "corollary2"}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error: algorithm.gamma")
    assert not (tmp_path / "out").exists()


def test_unknown_key_rejected_with_path(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["problem"]["sigmaa"] = 1.0
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "problem.sigmaa" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["extra"] = {}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "config.extra" in capsys.readouterr().err


def test_missing_required_key_named(tmp_path, capsys):
    doc = base_doc(tmp_path)
    del doc["algorithm"]["K"]
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "algorithm.K" in capsys.readouterr().err


def test_bad_gamma_kind_rejected(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["algorithm"]["gamma"] = {"kind": "linear"}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "algorithm.gamma.kind" in capsys.readouterr().err


def test_con_sim_requires_delay_model(tmp_path, capsys):
    doc = base_doc(tmp_path, mode="con-sim", T=1)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "algorithm.delay_model" in capsys.readouterr().err


def test_incon_sim_requires_read_model(tmp_path, capsys):
    doc = base_doc(tmp_path, mode="incon-sim", T=1)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "algorithm.read_model" in capsys.readouterr().err


@pytest.mark.parametrize("mode,models,path", [
    ("serial", {"delay_model": {"kind": "uniform"}}, "algorithm.delay_model"),
    ("con-sim", {"delay_model": {"kind": "uniform"}, "read_model": {"kind": "prefix", "tau": 1}},
     "algorithm.read_model"),
    ("incon-threads", {"delay_model": {"kind": "uniform"}}, "algorithm.delay_model"),
])
def test_model_the_mode_ignores_rejected(tmp_path, capsys, mode, models, path):
    doc = base_doc(tmp_path, mode=mode, T=1, **models)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path} is not taken")


@pytest.mark.parametrize("section,key,value,path", [
    ("problem", "N", 3, "problem.N"),  # the quadratic's noise comes in pairs
    ("problem", "kappa", float("nan"), "problem.kappa"),
    ("problem", "sigma", float("inf"), "problem.sigma"),
    ("problem", "gap", 10**400, "problem.gap"),
    ("algorithm", "K", True, "algorithm.K"),
    ("algorithm", "gamma", float("-inf"), "algorithm.gamma.value"),
])
def test_invalid_value_exits_2_naming_field(tmp_path, capsys, section, key, value, path):
    doc = base_doc(tmp_path)
    doc[section][key] = value
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}")


@pytest.mark.parametrize("alg,problem,path", [
    ({"mode": "incon-sim", "read_model": {"kind": "random-subset", "p": 1.5}}, None,
     "algorithm.read_model.p"),
    ({"mode": "incon-sim", "read_model": {"kind": "prefix", "tau": 5}}, None, "algorithm.read_model.tau"),
    ({"mode": "con-sim", "delay_model": {"kind": "fixed", "tau": 5}}, None, "algorithm.delay_model.tau"),
    ({}, {"type": "least_squares", "seed": 2**64}, "problem.seed"),
    ({}, {"type": "mlp", "seed": 2**64}, "problem.seed"),
    ({}, {"type": "mlp", "widths": [3]}, "problem.widths"),
    ({"K": 0}, None, "algorithm.K"),
    ({"M": 0}, None, "algorithm.M"),
    ({"workers": 0}, None, "algorithm.workers"),
    ({"mode": "bogus"}, None, "algorithm.mode"),
    ({"gamma": {"kind": "constant", "value": -1}}, None, "algorithm.gamma.value"),
    ({"mode": "con-sim", "delay_model": {"kind": "fixed", "tau": -1}}, None, "algorithm.delay_model.tau"),
    ({"mode": "incon-sim", "read_model": {"kind": "prefix", "tau": -1}}, None, "algorithm.read_model.tau"),
    ({"mode": "incon-sim", "read_model": {"kind": "random-subset", "p": -0.1}}, None,
     "algorithm.read_model.p"),
    ({}, {"type": "noisy_quadratic", "n": 0}, "problem.n"),
    ({}, {"type": "noisy_quadratic", "kappa": 0.5}, "problem.kappa"),
    ({}, {"type": "noisy_quadratic", "gap": -1}, "problem.gap"),
    ({}, {"type": "noisy_quadratic", "sigma": -1}, "problem.sigma"),
    ({}, {"type": "least_squares", "n": 0}, "problem.n"),
    ({}, {"type": "least_squares", "N": 0}, "problem.N"),
    ({}, {"type": "mlp", "widths": [3, 2], "sample_count": 0}, "problem.sample_count"),
    ({}, {"type": "mlp", "widths": [3, 2], "noise_std": -1}, "problem.noise_std"),
])
def test_constructor_rejection_names_field(tmp_path, capsys, alg, problem, path):
    """A value a constructor refuses is filed under its field; the schema holds no bounds."""
    doc = base_doc(tmp_path, T=1)
    doc["algorithm"].update(alg)
    doc["problem"] = problem or doc["problem"]
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: {re.escape(path)}\b(?![.\w])", err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value", [
    ("output", "checkpoint_every", 0),  # RunConfig's rule, filed under the section it came from
    ("seeds", "master_seed", -1),
    ("seeds", "replicates", 0),  # the one rule without a constructor
])
def test_output_and_seeds_rules_name_field(tmp_path, capsys, section, key, value):
    doc = base_doc(tmp_path)
    doc[section][key] = value
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: {section}\.{key}\b(?![.\w])", err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alg,problem,path", [
    ({"mode": "con-sim", "delay_model": {"kind": "uniform", "tau": 1}}, None,
     "algorithm.delay_model.tau"),
    ({"mode": "incon-sim", "read_model": {"kind": "prefix", "tau": 1, "p": 0.5}}, None,
     "algorithm.read_model.p"),
    ({}, {"type": "least_squares", "kappa": 10.0}, "problem.kappa"),
    ({}, {"type": "noisy_quadratic", "widths": [4, 2]}, "problem.widths"),
    ({}, {"type": "noisy_quadratic", "seed": 0}, "problem.seed"),  # the instance has no randomness
])
def test_key_of_another_kind_rejected(tmp_path, capsys, alg, problem, path):
    doc = base_doc(tmp_path, T=1)
    doc["algorithm"].update(alg)
    doc["problem"] = problem or doc["problem"]
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: unknown key")


def test_replicate_seeds_checked_before_any_run(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["seeds"] = {"master_seed": 2**64 - 1, "replicates": 2}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error: seeds.master_seed")
    assert not (tmp_path / "out").exists()


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
def test_integer_past_digit_limit_exits_2(tmp_path, capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)  # json refuses to convert it
    path = tmp_path / "big.json"
    path.write_text('{"problem": {"type": "noisy_quadratic", "n": %s}, '
                    '"algorithm": {"mode": "serial", "K": 5}}' % digits)
    assert main(["run", "--config", str(path)]) == 2
    assert main(["run", "--config", write_config(tmp_path, base_doc(tmp_path)),
                 "--override", f"problem.n={digits}"]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "problem.n: expected a finite integer" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_override_syntax_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(tmp_path))
    assert main(["run", "--config", cfg, "--override", "algorithm.workers"]) == 2
    assert main(["run", "--config", cfg, "--override", "workers=4"]) == 2
    capsys.readouterr()


def test_fractional_K_rejected(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["algorithm"]["K"] = 10.5
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "algorithm.K" in capsys.readouterr().err


def test_scientific_notation_accepted_for_ints(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["algorithm"]["K"] = 1e2
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    capsys.readouterr()


# ------------------------------------------------------------ run command

def test_serial_run_row_count(tmp_path, capsys):
    # K=100, checkpoint_every=10 -> 10 cadence rows + the k=0 row
    doc = base_doc(tmp_path, K=100)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    path = capsys.readouterr().out.strip().split("\n")[0]
    trace = read_trace_csv(path)
    assert len(trace.rows) == 100 // 10 + 1
    assert trace.rows[0].k == 0
    assert trace.rows[-1].k == 100


def test_run_one_file_per_replicate(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["seeds"]["replicates"] = 3
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    paths = capsys.readouterr().out.strip().split("\n")
    assert len(paths) == 3
    assert paths[0].endswith(".r0.csv") and paths[2].endswith(".r2.csv")
    # replicates use distinct seeds, so the trajectories differ
    t0, t1 = read_trace_csv(paths[0]), read_trace_csv(paths[1])
    assert [r.f for r in t0.rows] != [r.f for r in t1.rows]


def test_seeds_flag_overrides_replicates(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(tmp_path))
    assert main(["run", "--config", cfg, "--seeds", "2"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 2


def test_out_flag_overrides_stem(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(tmp_path))
    stem = str(tmp_path / "elsewhere" / "run")
    assert main(["run", "--config", cfg, "--out", stem]) == 0
    assert capsys.readouterr().out.strip() == f"{stem}.r0.csv"


@pytest.mark.parametrize("problem", [
    {"type": "noisy_quadratic", "n": 20, "kappa": 10.0, "sigma": 1.0, "N": 64, "gap": 1.0},
    {"type": "least_squares", "n": 10, "N": 40, "seed": 0},
], ids=["noisy_quadratic", "least_squares"])
def test_omitted_fields_take_constructor_defaults(tmp_path, capsys, problem):
    minimal = {"problem": {"type": problem["type"]}, "algorithm": {"mode": "serial", "K": 50}}
    spelled = {
        "problem": problem,
        "algorithm": {"mode": "serial", "K": 50, "M": 1, "T": 0, "workers": 1,
                      "gamma": {"kind": "constant", "value": 0.01}},
        "output": {"trace": "trace", "checkpoint_every": 1},
        "seeds": {"master_seed": 0, "replicates": 1},
    }
    csvs = []
    for name, doc in (("minimal", minimal), ("spelled", spelled)):
        assert main(["run", "--config", write_config(tmp_path, doc, f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
        csvs.append((tmp_path / f"{name}.r0.csv").read_bytes())
    capsys.readouterr()
    assert csvs[0] == csvs[1]


def test_sim_rerun_is_bit_identical(tmp_path, capsys):
    doc = base_doc(tmp_path, mode="con-sim", K=60, T=2,
                   delay_model={"kind": "uniform"})
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg]) == 0
    path = capsys.readouterr().out.strip()
    first = open(path, "rb").read()
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    assert open(path, "rb").read() == first


def test_workers_override_writes_delay_sidecar(tmp_path, capsys):
    doc = base_doc(tmp_path, mode="incon-threads", K=60)
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--override", "algorithm.workers=4"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    side = [p for p in out if p.endswith(".delays.json")]
    assert len(side) == 1
    stats = json.loads(open(side[0]).read())
    assert "max_observed" in stats and "histogram" in stats


@pytest.mark.parametrize("trace,out,field", [
    ("", None, "output.trace"),
    ("{d}/", None, "output.trace"),
    ("{d}/run", "{d}/", "--out"),
    ("{d}/run", "{d}/.csv", "--out"),
    ("{d}/run", "{d}/.", "--out"),
    ("{d}/run", "..", "--out"),
], ids=["empty-trace", "dir-trace", "dir-out", "dir-out-csv", "dir-dot-out", "parent-out"])
def test_run_refuses_a_stem_that_names_a_directory(tmp_path, capsys, monkeypatch, trace, out, field):
    # such a stem would write hidden files: ./.r0.csv, d/.r0.csv or d/..r0.csv
    monkeypatch.chdir(tmp_path)
    d = str(tmp_path / "d")
    doc = base_doc(tmp_path)
    doc["output"]["trace"] = trace.format(d=d)
    argv = ["run", "--config", write_config(tmp_path, doc)]
    if out is not None:
        argv += ["--out", out.format(d=d)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}:")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_unallocatable_update_log_exits_1(tmp_path, capsys, monkeypatch):
    # K = 2**40 asks the recorder for an 8 TiB per-update log; numpy's
    # MemoryError becomes an "error:" line, not a traceback
    from asysg import cli

    def engine(p, cfg):
        assert cfg.K == 2**40
        raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627777,)")

    monkeypatch.setitem(cli.ENGINES, "serial", engine)
    cfg = write_config(tmp_path, base_doc(tmp_path))
    assert main(["run", "--config", cfg, "--override", f"algorithm.K={2**40}"]) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate 8.00 TiB")


def test_update_log_past_numpy_limit_exits_2(tmp_path, capsys):
    # numpy cannot shape a (2**60 + 1)-entry int64 log; RunConfig refuses that K
    # before any directory is made
    cfg = write_config(tmp_path, base_doc(tmp_path))
    assert main(["run", "--config", cfg, "--override", f"algorithm.K={2**60}"]) == 2
    assert capsys.readouterr().err.startswith("error: algorithm.K must be in [1, ")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_value_error_from_a_run_is_a_bug_and_raises(tmp_path, monkeypatch):
    # every input is checked before the first run; a ValueError during one is a bug
    from asysg.problems import NoisyQuadratic

    def boom(self, x, xis):
        raise ValueError("boom")

    monkeypatch.setattr(NoisyQuadratic, "batch_gradient_sum", boom)
    with pytest.raises(ValueError, match="^boom$"):
        main(["run", "--config", write_config(tmp_path, base_doc(tmp_path))])


@pytest.mark.parametrize("argv,path", [
    (["run", "--config", "a\0b.json"], "config 'a\\x00b.json'"),
    (["theory", "--config", "a\0b.json"], "config 'a\\x00b.json'"),
    (["speedup", "--baseline", "a\0b.csv", "--parallel", "2:t.csv", "--epsilon", "1"], "trace 'a\\x00b.csv'"),
    (["plotdata", "--trace", "a\0b.csv", "--out", "d/x"], "trace 'a\\x00b.csv'"),
], ids=["run", "theory", "speedup", "plotdata"])
def test_input_path_with_a_nul_byte_exits_2(tmp_path, capsys, monkeypatch, argv, path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path} holds a NUL byte\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["run", "theory"])
def test_problem_too_large_for_memory_exits_1(tmp_path, capsys, monkeypatch, command):
    # a problem.n too large to allocate; the factory raises instead of allocating
    from asysg import cli

    def make(**fields):
        raise MemoryError("Unable to allocate 72.8 PiB for an array with shape (100000000, 100000000)")

    monkeypatch.setitem(cli.PROBLEM, "noisy_quadratic", (make, cli.PROBLEM["noisy_quadratic"][1]))
    cfg = write_config(tmp_path, base_doc(tmp_path))
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 72.8 PiB") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("trace,out,field", [
    ("nul/a\0b", None, "output.trace"),
    ("sur/a\ud800b", None, "output.trace"),
    ("run", "nul/a\0b", "--out"),
], ids=["nul-trace", "surrogate-trace", "nul-out"])
def test_run_refuses_a_stem_no_file_name_holds(tmp_path, tmp_path_factory, capsys, monkeypatch,
                                              trace, out, field):
    # JSON's \u0000 and \ud800 escapes reach the stem; refused before nul/ or sur/ is made
    monkeypatch.chdir(tmp_path)
    doc = base_doc(tmp_path)
    doc["output"]["trace"] = trace
    argv = ["run", "--config", write_config(tmp_path_factory.mktemp("cfg"), doc)]
    if out is not None:
        argv += ["--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: output stem ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_override_reaches_nested_gamma_value(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(tmp_path))
    assert main(["run", "--config", cfg, "--override", "algorithm.gamma.value=0.02"]) == 0
    path = capsys.readouterr().out.strip()
    assert read_trace_csv(path).rows[0].gamma == 0.02


def test_run_all_modes_exit_0(tmp_path, capsys):
    specs = [
        dict(mode="serial"),
        dict(mode="con-sim", T=1, delay_model={"kind": "fixed", "tau": 1}),
        dict(mode="incon-sim", T=1, read_model={"kind": "prefix", "tau": 1}),
        dict(mode="incon-sparse-sim", T=1, read_model={"kind": "random-subset", "p": 0.5}),
        dict(mode="con-threads", workers=2),
        dict(mode="incon-threads", workers=2),
    ]
    for i, alg in enumerate(specs):
        doc = base_doc(tmp_path, K=40, **alg)
        doc["output"]["trace"] = str(tmp_path / f"m{i}")
        assert main(["run", "--config", write_config(tmp_path, doc, f"c{i}.json")]) == 0, alg
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["serial", "con-threads", "incon-threads"])
def test_divergence_exits_1(tmp_path, capsys, mode):
    # |1 - gamma * q| >= 99 on every eigenvalue q, so the iterate overflows well before K
    doc = base_doc(tmp_path, mode=mode, K=2000)
    doc["algorithm"]["gamma"]["value"] = 1e3
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("config", ["serial_quadratic", "con_threads"])
def test_divergence_stderr_starts_with_error(tmp_path, config):
    # a fresh interpreter, outside pytest's warning capture: numpy's overflow
    # warnings must not print ahead of the error line
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "asysg.cli", "run", "--config", str(root / "configs" / f"{config}.json"),
         "--override", "algorithm.gamma.value=50", "--out", str(tmp_path / "div")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:"), proc.stderr


def test_readme_config_examples_run(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks):
        cfg = tmp_path / f"readme{i}.json"
        cfg.write_text(block)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / f"readme{i}")]) == 0, block
    capsys.readouterr()


def test_readme_python_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    capsys.readouterr()


# ------------------------------------------------------------ theory command

def quad_theory_doc(tmp_path):
    return {
        "problem": {"type": "noisy_quadratic", "n": 20, "kappa": 10, "sigma": 1.0,
                    "N": 64, "gap": 1.0},
        "algorithm": {"mode": "con-sim", "K": 100, "M": 1, "T": 3,
                      "gamma": {"kind": "corollary2"},
                      "delay_model": {"kind": "uniform"}},
    }


def test_theory_command_quadratic_values(tmp_path, capsys):
    cfg = write_config(tmp_path, quad_theory_doc(tmp_path))
    assert main(["theory", "--config", cfg]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["gamma_eq9"] == 0.1
    assert data["cond_eq7"] is True
    assert data["bound_eq11"] == 0.4
    # the generated instance's true gap sits one ulp above 1.0, so the
    # iteration threshold lands at ceil(64 + tiny) = 65 rather than 64
    assert data["kmin_eq10"] == 65
    assert data["constants"] == "exact"
    assert "gamma_eq17" in data and "cond_eq15" in data


def test_theory_command_mlp_flags_estimated(tmp_path, capsys):
    doc = {
        "problem": {"type": "mlp", "widths": [8, 4, 2], "sample_count": 60,
                    "noise_std": 0.3, "seed": 0},
        "algorithm": {"mode": "incon-threads", "K": 50, "M": 2, "T": 1},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["theory", "--config", cfg]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["constants"] == "estimated"
    assert data["gamma_eq17"] > 0


def test_theory_respects_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, quad_theory_doc(tmp_path))
    assert main(["theory", "--config", cfg, "--override", "algorithm.K=400"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["gamma_eq9"] == pytest.approx(0.05)


def test_theory_over_enumeration_limit_exits_2(tmp_path):
    # C(40, 8) supports is past the enumeration limit; a fresh interpreter shows
    # whether anything but the one error line reaches stderr
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "asysg.cli", "theory",
         "--config", str(root / "configs" / "theory_demo.json"),
         "--override", "problem.n=40", "--override", "algorithm.T=8"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: constants unavailable"), proc.stderr
    assert "L_s <= L" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_theory_at_n60_t4_settles_l_t_at_l(capsys):
    # C(60, 4) = 487,635 supports, none solved: the top column of the diagonal
    # quadratic reaches L, so gamma_eq17 is Corollary 4's steplength at L_T = L
    from asysg.problems import make_noisy_quadratic
    from asysg.theory import steplength_corollary4

    root = Path(__file__).resolve().parents[1]
    assert main(["theory", "--config", str(root / "configs" / "theory_demo.json"),
                 "--override", "problem.n=60", "--override", "algorithm.T=4"]) == 0
    data = json.loads(capsys.readouterr().out)
    p = make_noisy_quadratic(n=60, kappa=10, sigma=1.0, N=64, gap=1.0)
    assert data["gamma_eq17"] == steplength_corollary4(p.gap, 60, 100, p.L, 1, math.sqrt(p.sigma_sq))


def test_theory_lets_a_bug_raise(tmp_path, monkeypatch):
    # only a bug raises AttributeError; it is not "constants unavailable" with exit 2
    from asysg import cli

    def report(**inputs):
        raise AttributeError("'NoisyQuadratic' object has no attribute 'L_max'")

    monkeypatch.setattr(cli, "build_theory_report", report)
    with pytest.raises(AttributeError, match="L_max"):
        main(["theory", "--config", write_config(tmp_path, base_doc(tmp_path))])


# ------------------------------------------------------------ speedup command

def write_trace(tmp_path, name, ks, gradsqs, ts):
    lines = [CSV_HEADER]
    for k, g, t in zip(ks, gradsqs, ts):
        lines.append(f"{k},{t},{g / 2},{g},0.05,0")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_speedup_table(tmp_path, capsys):
    base = write_trace(tmp_path, "base.csv", [500, 1000], [5.0, 1.0], [50.0, 100.0])
    par = write_trace(tmp_path, "par.csv", [513, 1026], [5.0, 1.0], [12.5, 25.0])
    assert main(["speedup", "--baseline", base, "--parallel", f"4:{par}",
                 "--epsilon", "1.0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    cells = lines[1].split(",")
    assert cells[0] == "4"
    assert float(cells[1]) == pytest.approx(1000 / 1026 * 4)
    assert float(cells[2]) == pytest.approx(4.0)
    assert cells[3] == "1026"


def test_speedup_identity_row(tmp_path, capsys):
    base = write_trace(tmp_path, "base.csv", [1000], [1.0], [100.0])
    assert main(["speedup", "--baseline", base, "--parallel", f"1:{base}",
                 "--epsilon", "1.0"]) == 0
    assert capsys.readouterr().out.strip().split("\n")[1] == "1,1,1,1000,100"


def test_speedup_unreached_parallel_prints_none(tmp_path, capsys):
    base = write_trace(tmp_path, "base.csv", [1000], [1.0], [100.0])
    par = write_trace(tmp_path, "par.csv", [1000], [9.0], [100.0])
    assert main(["speedup", "--baseline", base, "--parallel", f"2:{par}",
                 "--epsilon", "1.0"]) == 0
    assert capsys.readouterr().out.strip().split("\n")[1] == "2,none,none,none,none"


def test_speedup_baseline_unreached_exits_1(tmp_path, capsys):
    base = write_trace(tmp_path, "base.csv", [1000], [9.0], [100.0])
    assert main(["speedup", "--baseline", base, "--parallel", f"2:{base}",
                 "--epsilon", "1.0"]) == 1
    assert "baseline never reaches" in capsys.readouterr().err


def test_speedup_bad_parallel_spec_exits_2(tmp_path, capsys):
    base = write_trace(tmp_path, "base.csv", [1000], [1.0], [100.0])
    assert main(["speedup", "--baseline", base, "--parallel", f"abc:{base}",
                 "--epsilon", "1.0"]) == 2
    assert main(["speedup", "--baseline", base, "--parallel", f"2:{base}",
                 "--epsilon", "-1"]) == 2
    assert main(["speedup", "--baseline", base, "--parallel", f"\u00b2:{base}",
                 "--epsilon", "1.0"]) == 2      # str.isdigit accepts '²', int() does not
    assert main(["speedup", "--baseline", base, "--parallel", f"2:{base}",
                 "--epsilon", "nan"]) == 2
    capsys.readouterr()


def test_speedup_malformed_trace_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    assert main(["speedup", "--baseline", str(bad), "--parallel", f"2:{bad}",
                 "--epsilon", "1.0"]) == 2
    capsys.readouterr()


# a read-back trace is checked as the recorder checks the traces it writes
_BAD_ROWS = {
    "k-not-increasing": ["5,0,1,1,0.05,0", "3,1,1,1,0.05,0", "0,2,1,1,0.05,0"],
    "t-backwards": ["0,2,1,1,0.05,0", "10,1,1,1,0.05,0"],
    "f-nan": ["0,0,1,1,0.05,0", "10,1,nan,1,0.05,0"],
    "gradsq-negative": ["0,0,1,-2,0.05,0", "10,1,1,1,0.05,0"],
    "delay-negative": ["0,0,1,1,0.05,-3", "10,1,1,1,0.05,-7"],
    "delay-falling": ["0,0,1,1,0.05,5", "10,1,1,1,0.05,3"],
    "t-nan": ["0,0,1,1,0.05,0", "10,nan,1,1,0.05,0"],
    "gamma-negative": ["0,0,1,1,-0.1,0", "10,1,1,1,-0.1,0"],
}


@pytest.mark.parametrize("fault", list(_BAD_ROWS))
def test_speedup_refuses_invalid_trace_rows(tmp_path, capsys, fault):
    base = write_trace(tmp_path, "base.csv", [1000], [1.0], [100.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([CSV_HEADER, *_BAD_ROWS[fault]]) + "\n")
    assert main(["speedup", "--baseline", base, "--parallel", f"2:{bad}",
                 "--epsilon", "1.0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("fault", list(_BAD_ROWS))
def test_plotdata_refuses_invalid_trace_rows(tmp_path, capsys, fault):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([CSV_HEADER, *_BAD_ROWS[fault]]) + "\n")
    assert main(["plotdata", "--trace", str(bad), "--out", str(tmp_path / "plots" / "t")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not (tmp_path / "plots").exists()


# ------------------------------------------------------------ plotdata command

def test_plotdata_writes_curve_files(tmp_path, capsys):
    trace = write_trace(tmp_path, "t.csv", [0, 10], [4.0, 1.0], [0.0, 2.0])
    assert main(["plotdata", "--trace", trace, "--out", str(tmp_path / "plots" / "t")]) == 0
    paths = capsys.readouterr().out.strip().split("\n")
    assert any(p.endswith("gradsq_vs_k.dat") for p in paths)
    lines = (tmp_path / "plots" / "t.gradsq_vs_k.dat").read_text().strip().split("\n")
    assert lines[0].split() == ["0", "4"]


def test_plotdata_refuses_an_out_stem_that_names_a_directory(tmp_path, capsys):
    # "plots/" would write plots/.f_vs_k.dat and its siblings
    trace = write_trace(tmp_path, "t.csv", [0, 10], [4.0, 1.0], [0.0, 2.0])
    (tmp_path / "plots").mkdir()
    assert main(["plotdata", "--trace", trace, "--out", str(tmp_path / "plots") + os.sep]) == 2
    assert capsys.readouterr().err.startswith("error: --out:")
    assert os.listdir(tmp_path / "plots") == []


def test_plotdata_missing_trace_exits_2(tmp_path, capsys):
    assert main(["plotdata", "--trace", str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["speedup", "plotdata"])
def test_trace_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe\x00")
    argv = {"speedup": ["speedup", "--baseline", str(bad), "--parallel", f"2:{bad}", "--epsilon", "1"],
            "plotdata": ["plotdata", "--trace", str(bad), "--out", str(tmp_path / "plots" / "t")]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode") and err.count("\n") == 1
    assert not (tmp_path / "plots").exists()


# ------------------------------------------------------------ one error line per error site

_QUAD = {"type": "noisy_quadratic", "n": 6, "N": 16, "sigma": 0.5}
_ALG = {"mode": "serial", "K": 20, "M": 1, "gamma": 0.05}
_CON_SIM = {**_ALG, "mode": "con-sim", "T": 1}
_RUN = ["run", "--config", "{cfg}"]


# config document, command line ({cfg}: the config's path, {d}: the test's
# directory, {trace}: a valid trace there), exit code, what the error line names
@pytest.mark.parametrize("doc,argv,code,names", [
    ({"problem": _QUAD, "algorithm": {**_ALG, "mode": 5}}, _RUN, 2, "algorithm.mode:"),
    ({"problem": {"type": "mlp", "widths": "abc"}, "algorithm": _ALG}, _RUN, 2, "problem.widths:"),
    ({"problem": _QUAD, "algorithm": []}, _RUN, 2, "algorithm: expected an object"),
    ({"problem": _QUAD, "algorithm": {**_CON_SIM, "delay_model": 3}}, _RUN, 2, "algorithm.delay_model:"),
    ({"problem": _QUAD, "algorithm": {**_CON_SIM, "delay_model": {}}}, _RUN, 2,
     "algorithm.delay_model.kind:"),
    ({"problem": _QUAD, "algorithm": {**_CON_SIM, "delay_model": {"kind": "uniform"}}},
     [*_RUN, "--override", "algorithm.workers=2"], 2, "algorithm: sim mode 'con-sim' requires workers=1, got 2"),
    ({"algorithm": _ALG}, _RUN, 2, "config.problem:"),
    ([], _RUN, 2, "config {cfg}: top level"),
    ({"problem": _QUAD, "algorithm": _ALG}, [*_RUN, "--override", "algorithm.K.x=1"], 2,
     "override 'algorithm.K.x=1': K is not an object"),
    ({"problem": _QUAD, "algorithm": _ALG}, [*_RUN, "--seeds", "0"], 2, "--seeds"),
    ({"problem": _QUAD, "algorithm": _ALG}, ["theory", "--config", "{cfg}", "--override", "algorithm.M=0"], 2,
     "algorithm.M"),
    (None, ["speedup", "--baseline", "{d}/nope.csv", "--parallel", "2:{trace}", "--epsilon", "1"], 2,
     "{d}/nope.csv"),
    (None, ["plotdata", "--trace", "{trace}", "--out", "{trace}/sub/x"], 1, "Not a directory: '{trace}/sub'"),
], ids=["mode-not-a-string", "widths-not-a-list", "algorithm-not-an-object", "delay-model-not-an-object",
        "delay-model-without-kind", "con-sim-with-two-workers", "problem-missing", "top-level-not-an-object",
        "override-into-a-number", "seeds-0", "theory-M-0", "speedup-missing-baseline", "plotdata-out-under-a-file"])
def test_error_line_names_its_field_or_file(tmp_path, capsys, monkeypatch, doc, argv, code, names):
    monkeypatch.chdir(tmp_path)  # a config without an output section writes ./trace.r0.csv
    where = {"cfg": str(tmp_path / "cfg.json"), "d": str(tmp_path),
             "trace": write_trace(tmp_path, "t.csv", [0, 10], [4.0, 1.0], [0.0, 2.0])}
    if doc is not None:
        write_config(tmp_path, doc)
    assert main([a.format(**where) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert names.format(**where) in err


# ------------------------------------------------------------ shipped configs

def test_every_shipped_config_runs(tmp_path, capsys):
    import glob
    import os
    import time

    configs = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
    assert configs, "no example configs found"
    for i, cfg in enumerate(configs):
        start = time.perf_counter()
        code = main(["run", "--config", cfg, "--out", str(tmp_path / f"cfg{i}"), "--seeds", "1"])
        elapsed = time.perf_counter() - start
        assert code == 0, f"{cfg} failed"
        assert elapsed < 60.0, f"{cfg} took {elapsed:.1f}s"
    capsys.readouterr()
