import json
from pathlib import Path

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench import cli, samples
from bilevelbench.harness import CheckResult
from bilevelbench.plotting import PlotError
from bilevelbench.trace import CSV_HEADER

CFG = """\
[problem]
kind = quadratic
preset = q2
noise = gaussian
sigma_g1 = 0.05

[algorithm]
name = slip

[schedule]
mode = practical
alpha = 0.1
beta = 0.9
gamma = 0.1
eta = 0.01
T = 50
T0 = 5

[run]
seeds = 1,2
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(CFG)
    return p


def test_run_success(cfg_path, tmp_path, capsys):
    rc = cli.main(["run", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out" / "exp")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed 1: OK" in out
    assert (tmp_path / "out" / "exp_seed1.csv").exists()
    assert (tmp_path / "out" / "exp_meta.json").exists()


def test_run_without_out_prefix(cfg_path, capsys):
    rc = cli.main(["run", "--config", str(cfg_path)])
    assert rc == 1


def test_diverging_seed_metadata_is_strict_json(tmp_path):
    p = tmp_path / "div.cfg"
    p.write_text(CFG.replace("name = slip", "name = masoba")
                 .replace("eta = 0.01", "eta = 1e300").replace("seeds = 1,2", "seeds = 1"))
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "x")])
    assert rc == 2

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    meta = json.loads((tmp_path / "x_meta.json").read_text(), parse_constant=reject)
    seed = meta["seeds"][0]
    assert seed["status"] == "FAILED"
    t = seed["aborted_at"]
    assert seed["final"] == {"t": t, "grad_norm": None, "y_err": None,
                             "z_err": None, "eps_err": None, "phi": None}
    # the trace keeps the values
    last = (tmp_path / "x_seed1.csv").read_text().splitlines()[-1]
    assert last.startswith(f"{t},inf,inf,inf,inf,inf,")


def test_bad_config_exit_1(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(CFG.replace("name = slip", "name = slip\nsurprise = 1"))
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "x")])
    assert rc == 1


@pytest.mark.parametrize("old,new", [
    ("alpha = 0.1", "alpha = 10%"),                  # bare percent sign
    ("eta = 0.01", "eta = %(missing)s"),             # interpolation syntax
    ("seeds = 1,2", "seeds = 1,2\nx0 = abc"),
    ("T = 50", "T = nan"),
    ("T0 = 5", "T0 = nan"),
    ("T = 50", "T = 1e400"),
    ("alpha = 0.1", "alpha = 0.1\nalpha = 0.2"),    # duplicate key
    ("[problem]", "stray = 1\n[problem]"),          # line before a header
    ("seeds = 1,2", "seeds = -1,2"),                 # would alias seed 2**64 - 1
    ("seeds = 1,2", "seeds = 1, 18446744073709551616"),  # 2**64, would alias 0
    ("seeds = 1,2", "seeds = 1, 1"),                 # one trace file, two runs
    ("seeds = 1,2", "seeds = 1,2\nx0 = 1, 2, 3"),     # found before the loop
    ("seeds = 1,2", "seeds = 1,2\nmax_wall_seconds = nan"),  # turned the deadline off
    ("seeds = 1,2", "seeds = 1,2\nmax_wall_seconds = -1"),   # a TIMEOUT at row 0
    # each of these failed every seed at row 0 and exited 2
    ("sigma_g1 = 0.05", "sigma_g1 = nan"),
    ("sigma_g1 = 0.05", "sigma_g1 = inf"),
    ("eta = 0.01", "eta = inf"),
    ("T0 = 5", "T0 = 5\nalpha_init = nan"),
    ("seeds = 1,2", "seeds = 1,2\nx0 = nan"),
    # a required [problem] key left out: named, not a Python signature
    ("preset = q2", "dim_x = 2\ndim_y = 2"),
    ("kind = quadratic\npreset = q2", "kind = unbounded\nseed = 3"),
    ("kind = quadratic\npreset = q2", "kind = hyperclean\nn_train = 10\nn_val = 5"),
])
def test_malformed_value_exit_1(tmp_path, capsys, old, new):
    p = tmp_path / "bad.cfg"
    p.write_text(CFG.replace(old, new, 1))
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


THEOREM_CFG = CFG.replace(
    "mode = practical\nalpha = 0.1\nbeta = 0.9\ngamma = 0.1\neta = 0.01\n"
    "T = 50\nT0 = 5",
    "mode = theorem41\neps = 0.1\ndelta = 0.1\ndelta0 = 1.0\n"
    "delta_y0 = 1.0\ndelta_z0 = 1.0").replace("sigma_g1 = 0.05", "sigma_g1 = 0.1")


@pytest.mark.parametrize("text,old,new", [
    # counters past 2**64: a ValueError traceback, and a seed ERROR
    (CFG, "T = 50", "T = 100000000000000000000"),
    (CFG, "T0 = 5", "T0 = 100000000000000000000"),
    # T = 4*delta0/(eta*eps) is inf: an OverflowError traceback
    (THEOREM_CFG, "delta0 = 1.0", "delta0 = 1e308"),
], ids=["T", "T0", "theorem-delta0"])
def test_unrunnable_schedule_exit_1(tmp_path, capsys, text, old, new):
    p = tmp_path / "big.cfg"
    p.write_text(text.replace(old, new, 1))
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o" / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.rglob("*.csv")) == []
    assert not (tmp_path / "o").exists()


def test_inadmissible_eps_exit_1(tmp_path, capsys):
    # the scheduler's own message is the one line, with no prefix added
    cfg = Path(__file__).resolve().parents[1] / "configs" / "q2_theorem_sweep.cfg"
    p = tmp_path / "theorem.cfg"
    p.write_text(cfg.read_text().replace("eps = 0.1", "eps = 0.5", 1))
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o" / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: eps=0.5 exceeds the admissibility ceiling")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("exc", [bb.SchedulingError, PlotError])
def test_bad_input_is_one_exception(exc):
    # exit 1 catches ConfigurationError alone
    assert issubclass(exc, bb.ConfigurationError)
    assert bb.ConfigurationError is samples.ConfigurationError


def test_sweep_non_finite_T_skipped(tmp_path, capsys):
    p = tmp_path / "big.cfg"
    p.write_text(THEOREM_CFG.replace("delta0 = 1.0", "delta0 = 1e308", 1))
    assert cli.main(["sweep", "--config", str(p), "--eps", "0.2,0.1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "0.2,SKIPPED,,,,,", "0.1,SKIPPED,,,,,"]


@pytest.mark.parametrize("eps", [",", "", "nan", "0.2,nan", "0.2,abc"])
def test_sweep_bad_eps_list_exit_1(eps, capsys):
    # an empty list or a nan names no eps to sweep: no CSV, not even a header
    cfg = Path(__file__).resolve().parents[1] / "configs" / "q2_theorem_sweep.cfg"
    rc = cli.main(["sweep", "--config", str(cfg), "--eps", eps])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: bad eps list {eps!r}\n"


def test_sweep_inf_zero_and_negative_eps_skipped(capsys):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "q2_theorem_sweep.cfg"
    rc = cli.main(["sweep", "--config", str(cfg), "--eps", "inf,0,-1"])
    assert rc == 0
    assert [line.split(",")[:2] for line in
            capsys.readouterr().out.splitlines()[1:]] == [
        ["inf", "SKIPPED"], ["0.0", "SKIPPED"], ["-1.0", "SKIPPED"]]


def test_sweep_execute_skips_an_eps_that_cannot_run(tmp_path, capsys):
    # eps = 0.01 puts T, and the sample counters, past 2**64: that eps is
    # SKIPPED and the sweep goes on
    cfg = Path(__file__).resolve().parents[1] / "configs" / "q2_theorem_sweep.cfg"
    p = tmp_path / "sweep.cfg"
    p.write_text(cfg.read_text() + "max_wall_seconds = 0.05\n")
    rc = cli.main(["sweep", "--config", str(p), "--eps", "0.2,0.01",
                   "--execute"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[1].startswith("0.2,OK,")
    assert out[2:] == ["0.01,SKIPPED,,,,,"]


def test_sweep_skips_an_eps_that_cannot_run(capsys):
    # the closed-form sweep listed eps = 0.01 OK, while run and --execute
    # rejected its T; 0.02 keeps a T past 2**63 that can run
    cfg = Path(__file__).resolve().parents[1] / "configs" / "q2_theorem_sweep.cfg"
    rc = cli.main(["sweep", "--config", str(cfg), "--eps", "0.2,0.02,0.01"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.split(",")[:3] for line in out[1:3]] == [
        ["0.2", "OK", "377756864705073"], ["0.02", "OK", "9507569619380099072"]]
    assert out[3] == "0.01,SKIPPED,,,,,"


def test_sweep_says_why_an_eps_is_skipped(tmp_path, capsys):
    # the CSV and the --out file keep their bytes; stderr gives the reason
    cfg = Path(__file__).resolve().parents[1] / "configs" / "q2_theorem_sweep.cfg"
    out_file = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", str(cfg), "--eps", "0.2,0.02,0.01",
                   "--out", str(out_file)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == out_file.read_text()
    assert captured.out.splitlines()[3] == "0.01,SKIPPED,,,,,"
    assert captured.err == (
        "SKIPPED eps=0.01: the schedule cannot run: sample counters must lie "
        "in [0, 2**64), got 0..191249713052564553727\n")


def test_sweep_execute_bad_init_exit_1(tmp_path, capsys):
    # a bad init is the config's fault, not one eps's: the sweep ends
    cfg = Path(__file__).resolve().parents[1] / "configs" / "q2_theorem_sweep.cfg"
    p = tmp_path / "sweep.cfg"
    p.write_text(cfg.read_text() + "max_wall_seconds = 0.05\nx0 = 1, 2, 3\n")
    rc = cli.main(["sweep", "--config", str(p), "--eps", "0.2", "--execute"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "x0" in captured.err
    assert captured.out == ""


def test_sweep_execute_without_a_deadline_exit_1(capsys, monkeypatch):
    # the shipped config sets no max_wall_seconds, and its T at eps 0.2 is
    # about 3.8e14: the sweep exits before it builds the problem or runs a
    # seed (stubs stand in for both, so a sweep that runs fails, not hangs)
    calls = []
    for name in ("build_problem", "_run_single"):
        monkeypatch.setattr(f"bilevelbench.harness.{name}",
                            lambda *args, name=name: calls.append(name))
    cfg = Path(__file__).resolve().parents[1] / "configs" / "q2_theorem_sweep.cfg"
    rc = cli.main(["sweep", "--config", str(cfg), "--eps", "0.2", "--execute"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ("error: sweep --execute needs a finite "
                            "max_wall_seconds\n")
    assert captured.out == ""
    assert calls == []


def test_sweep_refused_rename_keeps_old_summary(tmp_path, capsys, monkeypatch):
    p = tmp_path / "sweep.cfg"
    p.write_text(THEOREM_CFG)
    out = tmp_path / "sweep.csv"
    out.write_text("old summary\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("bilevelbench.trace.os.replace", refuse)
    rc = cli.main(["sweep", "--config", str(p), "--eps", "0.2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: rename refused\n"
    assert out.read_text() == "old summary\n"
    assert sorted(q.name for q in tmp_path.iterdir()) == ["sweep.cfg", "sweep.csv"]


def test_missing_config_exit_1(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "x")])
    assert rc == 1


def test_usage_error_exit_1():
    assert cli.main(["run"]) == 1
    assert cli.main(["frobnicate"]) == 1


@pytest.mark.filterwarnings("ignore::UserWarning")  # oversized alpha on purpose
def test_divergent_run_exit_2(tmp_path, capsys):
    p = tmp_path / "div.cfg"
    p.write_text(CFG.replace("alpha = 0.1", "alpha = 5.0")
                 .replace("gamma = 0.1", "gamma = 5.0")
                 .replace("T = 50", "T = 600"))
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "d")])
    assert rc == 2
    meta = json.loads((tmp_path / "d_meta.json").read_text())
    info = meta["seeds"][0]
    assert info["status"] == "FAILED"
    assert info["reason"] == ("FloatingPointError: non-finite iterate at "
                              f"iteration {info['aborted_at']}")
    # the reason is printed after the status
    assert f"seed 1: FAILED: {info['reason']} (" in capsys.readouterr().out


OVERFLOW_CFG = """\
[problem]
kind = unbounded
preset = q2

[algorithm]
name = masoba

[schedule]
mode = practical
alpha = 0.1
beta = 0.9
gamma = 0.1
eta = 50
T = 200
T0 = 5

[run]
seeds = 1, 2
x0 = 3
"""


def test_overflow_run_exit_2(tmp_path):
    # the unnormalized step throws x past the cosh evaluation range
    p = tmp_path / "ovf.cfg"
    p.write_text(OVERFLOW_CFG)
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    meta = json.loads((tmp_path / "o_meta.json").read_text())
    assert [s["seed"] for s in meta["seeds"]] == [1, 2]
    for info in meta["seeds"]:
        assert info["status"] == "FAILED"
        assert info["aborted_at"] is not None
        # rows before the overflowing iteration are kept
        rows = (tmp_path / f"o_seed{info['seed']}.csv").read_text().splitlines()
        assert len(rows) == info["aborted_at"] + 1
        assert info["calls"]["calls_gxF"] == info["aborted_at"]
        assert info["reason"].startswith("OverflowError: |x| up to ")


def test_crashed_run_exit_2(cfg_path, tmp_path, capsys, monkeypatch, caplog):
    # a solver failure at row 2 of seed 1: that seed is ERROR, seed 2 runs
    from bilevelbench import harness
    from bilevelbench.verify import SolverError

    make = harness.default_metrics
    made = []

    def failing_on_first_seed(problem):
        metrics = make(problem)
        made.append(metrics)
        first = len(made) == 1

        def evaluate(t, *iterates):
            if first and t == 2:
                raise SolverError("no convergence", 1.0)
            return metrics(t, *iterates)
        return evaluate

    monkeypatch.setattr(harness, "default_metrics", failing_on_first_seed)
    rc = cli.main(["run", "--config", str(cfg_path), "--out",
                   str(tmp_path / "e")])
    assert rc == 2
    out = capsys.readouterr().out
    assert "seed 1: ERROR" in out and "seed 2: OK" in out
    meta = json.loads((tmp_path / "e_meta.json").read_text())
    assert meta["seeds"][0]["aborted_at"] == 2
    assert meta["seeds"][0]["reason"] == (
        "SolverError: no convergence (residual 1.000e+00)")
    assert ("seed 1: ERROR: SolverError: no convergence "
            "(residual 1.000e+00) (") in out
    # the wrapped exception is logged once, with its traceback
    [record] = [r for r in caplog.records if r.name == "bilevelbench.harness"]
    assert record.levelname == "ERROR"
    assert isinstance(record.exc_info[1], SolverError)
    assert "raise SolverError" in caplog.text


@pytest.mark.parametrize("old,new,message", [
    ("sigma_g1 = 0.05", "sigma_g1 = 0.05\nsigma_z = 0.1",
     "sigma_z applies to the bounded model only"),
    ("noise = gaussian", "noise = cauchy", "unknown noise model 'cauchy'"),
])
def test_noise_rule_exit_1(tmp_path, capsys, old, new, message):
    p = tmp_path / "noise.cfg"
    p.write_text(CFG.replace(old, new, 1))
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_out_under_a_regular_file_exit_1(cfg_path, tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("")
    rc = cli.main(["run", "--config", str(cfg_path), "--out",
                   str(blocker / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert "Traceback" not in err


def test_later_trace_path_a_directory_exit_1(cfg_path, tmp_path, capsys):
    # seed 2's trace path is taken by a directory: seed 1's output survives
    (tmp_path / "exp_seed2.csv").mkdir()
    rc = cli.main(["run", "--config", str(cfg_path), "--out",
                   str(tmp_path / "exp")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exp_seed2.csv" in err
    assert len(bb.read_trace(tmp_path / "exp_seed1.csv")) == 50
    meta = json.loads((tmp_path / "exp_meta.json").read_text())
    assert [(s["seed"], s["status"]) for s in meta["seeds"]] == [(1, "OK")]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "exp_meta.json", "exp_seed1.csv", "exp_seed2.csv", "run.cfg"]


def test_grad_every_key_exit_1(tmp_path):
    p = tmp_path / "old.cfg"
    p.write_text(CFG + "grad_every = 50\n")
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 1


def test_verify_pass_exit_0(capsys):
    rc = cli.main(["verify", "--suite", "counts"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS oracle-counts-main" in out


def test_verify_unknown_suite_exit_1():
    assert cli.main(["verify", "--suite", "bogus"]) == 1


def test_verify_fail_exit_3(monkeypatch, capsys):
    import bilevelbench.harness as harness

    monkeypatch.setitem(
        harness.SUITES, "counts",
        lambda: [CheckResult("forced-failure", False, "synthetic")])
    assert cli.main(["verify", "--suite", "counts"]) == 3
    assert "FAIL forced-failure" in capsys.readouterr().out


def test_plot_roundtrip(cfg_path, tmp_path, capsys):
    assert cli.main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "exp")]) == 0
    rc = cli.main(["plot", str(tmp_path / "exp_seed1.csv"),
                   str(tmp_path / "exp_seed2.csv"),
                   "--metric", "grad_norm", "-o", str(tmp_path / "c.svg")])
    assert rc == 0
    assert (tmp_path / "c.svg").exists()


def test_plot_unknown_metric_exit_1(cfg_path, tmp_path):
    assert cli.main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "exp")]) == 0
    rc = cli.main(["plot", str(tmp_path / "exp_seed1.csv"),
                   "--metric", "nope", "-o", str(tmp_path / "c.svg")])
    assert rc == 1


@pytest.mark.parametrize("data", [
    b"bad,header\n1,2\n",
    CSV_HEADER.encode() + b"\n0,1.0\n",                   # a short row
    CSV_HEADER.encode() + b"\n0,\xff,,,,,0,0,0,0,0\n",     # not UTF-8
], ids=["header", "columns", "bytes"])
def test_plot_malformed_trace_exit_1(tmp_path, capsys, data):
    p = tmp_path / "bad.csv"
    p.write_bytes(data)
    rc = cli.main(["plot", str(p), "--metric", "grad_norm",
                   "-o", str(tmp_path / "c.svg")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: malformed trace {p}") and err.count("\n") == 1
    assert not (tmp_path / "c.svg").exists()


def test_sweep_outputs_summary(tmp_path, capsys):
    p = tmp_path / "sweep.cfg"
    p.write_text(CFG.replace(
        "mode = practical\nalpha = 0.1\nbeta = 0.9\ngamma = 0.1\n"
        "eta = 0.01\nT = 50\nT0 = 5",
        "mode = theorem41\neps = 0.1\ndelta = 0.1\ndelta0 = 1.0\n"
        "delta_y0 = 1.0\ndelta_z0 = 1.0").replace(
        "sigma_g1 = 0.05", "sigma_g1 = 0.1"))
    rc = cli.main(["sweep", "--config", str(p), "--eps", "0.2,0.1",
                   "--out", str(tmp_path / "sweep.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("eps,status,T")
    assert (tmp_path / "sweep.csv").read_text() == out
