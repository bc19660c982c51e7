import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from noncollapse.cli import main
from noncollapse.flow import FlowConfig, build_body, build_speed
from noncollapse.oracle import _interior_draw
from noncollapse.speeds import parse_speed

from oracles import InteriorSample, interior_gap

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CONFIGS = os.path.join(ROOT, "configs")


def run_cli(*argv):
    return main(list(argv))


def sphere_config(tmp_path, N=48, stop_factor=20.0, monitor="radii", mode="curve",
                  shape=None, speed="mean", snapshot_every=150):
    cfg = {
        "speed": speed,
        "body": {"mode": mode, "N": N,
                 "shape": shape or {"kind": "sphere", "radius": 1.0}},
        "cfl": 0.25,
        "stop_max_f_factor": stop_factor,
        "snapshot_every": snapshot_every,
        "monitor": monitor,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_sigma_ratio_certified(tmp_path, capsys):
    code = run_cli("certify", "--speed", "sigma-ratio:2", "--n", "3",
                   "--trials", "300", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "certify.json").read_text())
    assert {r["property"] for r in payload["reports"]} == {"concave", "inverse-concave"}
    assert all(r["verdict"] == "certified-on-samples" for r in payload["reports"])


def test_certify_power_minus_two_refuted():
    code = run_cli("certify", "--speed", "power:-2", "--n", "2",
                   "--property", "inverse-concave", "--trials", "300")
    assert code == 2


def test_certify_mean_n1_trivial():
    assert run_cli("certify", "--speed", "mean", "--n", "1", "--trials", "50") == 0


def test_certify_usage_error():
    assert run_cli("certify", "--speed", "nonsense", "--n", "2") == 1
    assert run_cli("certify", "--speed", "mean") == 1  # missing --n


@pytest.mark.parametrize("command", [["certify"], ["oracle", "--prop", "2.2"],
                                     ["oracle", "--prop", "2.5"]])
def test_zero_trials_usage_error(capsys, command):
    assert run_cli(*command, "--speed", "mean", "--n", "2", "--trials", "0") == 1
    assert "argument --trials: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("command", [["certify"], ["oracle", "--prop", "2.2"],
                                     ["oracle", "--prop", "2.5"]])
def test_non_positive_n_usage_error(capsys, command, n):
    # --n 0 ended in a traceback: a zero-size min in the interior draws, an
    # IndexError in certify
    assert run_cli(*command, "--speed", "mean", "--n", n) == 1
    assert "argument --n: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["certify"], ["oracle", "--prop", "2.2"],
                                     ["oracle", "--prop", "2.5"]])
def test_non_finite_power_usage_error(capsys, command, p):
    # power:nan passed the normalisation check and reported "tol": NaN
    assert run_cli(*command, "--speed", f"power:{p}", "--n", "3", "--trials", "50") == 1
    assert "power mean needs a finite p" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["certify"], ["oracle", "--prop", "2.2"]])
def test_negative_seed_usage_error(capsys, command):
    assert run_cli(*command, "--speed", "mean", "--n", "2", "--seed", "-1") == 1
    assert "argument --seed: must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_interior_pass(tmp_path, capsys):
    code = run_cli("oracle", "--prop", "2.2", "--speed", "harmonic", "--n", "3",
                   "--trials", "500", "--out", str(tmp_path))
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["runtime_ms"] > 0
    rep = json.loads((tmp_path / "oracle.json").read_text())
    assert rep["proposition"] == "2.2"
    assert rep["speed"] == "harmonic"
    assert rep["n"] == 3
    assert rep["trials"] == 500
    assert rep["min_scaled"] >= -1.0


def test_oracle_boundary_pass():
    assert run_cli("oracle", "--prop", "2.5", "--speed", "mean", "--n", "2",
                   "--trials", "400") == 0


def test_oracle_counterexample_exit(tmp_path):
    code = run_cli("oracle", "--prop", "2.2", "--speed", "power:-2", "--n", "2",
                   "--trials", "4000", "--out", str(tmp_path))
    assert code == 2
    rep = json.loads((tmp_path / "oracle.json").read_text())
    assert rep["min_scaled"] < -1.0
    assert "witness" in rep


@pytest.mark.parametrize("prop, speed", [("2.2", "power:-200"), ("2.5", "power:300")])
def test_oracle_refuses_trials_it_cannot_evaluate(tmp_path, capsys, prop, speed):
    # z^p overflows on the drawn range [1e-2, 1e2]: the report read
    # "min_scaled": NaN, exited 2 with no witness and wrote NaN into oracle.json
    with np.errstate(all="ignore"):
        code = run_cli("oracle", "--prop", prop, "--speed", speed, "--n", "2",
                       "--trials", "200", "--out", str(tmp_path))
    assert code == 1
    assert f"error: {speed} at n = 2 gives a non-finite value or scale at trial " \
        in capsys.readouterr().err
    assert not (tmp_path / "oracle.json").exists()


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_sphere_run_directory(tmp_path):
    cfg = sphere_config(tmp_path)
    out = tmp_path / "run"
    code = run_cli("flow", "--config", cfg, "--out", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["wall_time_s"] is not None
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["passed"] is True
    assert verdicts["termination"] == "ReachedMaxF"
    head = (out / "monitor.csv").read_text().splitlines()[0]
    assert head == ("t,maxF,minF,r_plus,r_minus,min_ratio_lower,max_ratio_upper,"
                    "hausdorff_rescaled,T_hat_lo,T_hat_hi,diag_residual")
    counters = verdicts["counters"]
    assert counters["steps"] >= 1 and counters["rollbacks"] == 0
    # error-control rejections are counted apart from convexity rollbacks
    assert counters["rejected"] >= 0
    snaps = sorted((out / "snapshots").iterdir())
    assert len(snaps) >= 3
    snap = json.loads(snaps[0].read_text())
    assert {"mode", "N", "t", "h"} <= set(snap)


def test_flow_full_monitor_small(tmp_path):
    cfg = sphere_config(tmp_path, N=32, stop_factor=10.0, monitor="full")
    out = tmp_path / "run"
    code = run_cli("flow", "--config", cfg, "--out", str(out))
    assert code == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    names = {v["series"] for v in verdicts["verdicts"]}
    assert "min_ratio_lower" in names
    deltas = verdicts["refinement_deltas"]
    slack = {v["series"]: v["slack_used"] for v in verdicts["verdicts"]}
    for series, key in [("min_ratio_lower", "ratio_lower"),
                        ("max_ratio_upper", "ratio_upper"), ("radii_ratio", "radii_ratio")]:
        assert slack[series] == 1e-4 + deltas[key]


def test_flow_nonconvex_exit_3(tmp_path):
    N = 48
    th = 2 * np.pi * np.arange(N) / N
    cfg = sphere_config(tmp_path, N=N,
                        shape={"kind": "support",
                               "h": (1.0 + 0.5 * np.cos(2 * th)).tolist()})
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path / "r")) == 3
    assert not (tmp_path / "r").exists()


def test_flow_negative_control_completes(tmp_path):
    # a speed outside the inverse-concave class still runs; the monotonicity
    # verdict is recorded and may fail, in which case the exit code is 4 to
    # distinguish an observed trend violation from a tool error
    cfg = sphere_config(tmp_path, N=48, stop_factor=8.0, monitor="full",
                        mode="axisymmetric", speed="power:-2",
                        shape={"kind": "ellipsoid", "a": 1.0, "c": 1.3})
    out = tmp_path / "neg"
    code = run_cli("flow", "--config", cfg, "--out", str(out))
    assert code in (0, 4)
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["termination"] == "ReachedMaxF"
    assert (code == 0) == verdicts["passed"]


@pytest.mark.parametrize("flag", ["--cfl", "--grid", "--stop-max-f"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_flow_flag_out_of_range_exit_1(tmp_path, capsys, flag, value):
    cfg = sphere_config(tmp_path)
    out = tmp_path / "r"
    assert run_cli("flow", "--config", cfg, "--out", str(out), flag, value) == 1
    assert "error: bad config" in capsys.readouterr().err
    assert not out.exists()


def test_flow_cfl_above_rk4_limit_exit_1(tmp_path, capsys):
    # RK4 is stable for cfl * pi^2 <= 2.785, that is cfl <= 0.282
    cfg = sphere_config(tmp_path)
    out = tmp_path / "r"
    assert run_cli("flow", "--config", cfg, "--out", str(out), "--cfl", "0.3") == 1
    assert "cfl must lie in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, N", [("curve", 64), ("axisymmetric", 65)])
def test_flow_nonfinite_support_exit_1(tmp_path, capsys, mode, N):
    h = [1.0] * N
    h[N // 3] = float("nan")
    cfg = sphere_config(tmp_path, N=N, mode=mode, shape={"kind": "support", "h": h})
    out = tmp_path / "r"
    assert run_cli("flow", "--config", cfg, "--out", str(out)) == 1
    assert "support values must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("N, monitor, argv, message", [
    (64, "radii", (), "support shape has 48 values for N = 64"),
    (48, "radii", ("--grid", "96"), "support shape has 48 values for N = 96"),
    (48, "full", (), "monitor 'full' needs a shape that can be refined"),
], ids=["N", "grid-flag", "full-monitor"])
def test_flow_support_shape_fixes_its_grid_exit_1(tmp_path, capsys, N, monitor, argv, message):
    # an explicit support sample is its grid: another N, a --grid override or
    # the full monitor's nested 2N grid is refused, not silently ignored
    cfg = sphere_config(tmp_path, N=N, monitor=monitor,
                        shape={"kind": "support", "h": [1.0] * 48})
    out = tmp_path / "r"
    assert run_cli("flow", "--config", cfg, "--out", str(out), *argv) == 1
    err = capsys.readouterr().err
    assert "error: bad config" in err and message in err
    assert not out.exists()


def test_flow_stop_at_or_below_initial_max_f_exit_1(tmp_path, capsys):
    # the unit circle starts at max F = 1
    cfg = sphere_config(tmp_path)
    out = tmp_path / "r"
    assert run_cli("flow", "--config", cfg, "--out", str(out), "--stop-max-f", "0.5") == 1
    assert "must exceed the initial max F" in capsys.readouterr().err
    assert not out.exists()


def test_flow_stop_factor_not_above_one_exit_1(tmp_path, capsys):
    cfg = sphere_config(tmp_path, stop_factor=1.0)
    out = tmp_path / "r"
    assert run_cli("flow", "--config", cfg, "--out", str(out)) == 1
    assert "stop_max_f_factor must exceed 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, argv", [
    ("stop_max_f_factor", float("inf"), ()),
    ("t_end", float("nan"), ()),
    (None, None, ("--stop-max-f", "inf")),
], ids=["inf-factor", "nan-t-end", "inf-stop-flag"])
def test_flow_non_finite_stop_exit_1(tmp_path, capsys, key, value, argv):
    # a stop or end time that is not finite is refused before anything is
    # written, not run on to StepUnderflow or silently ignored
    path = sphere_config(tmp_path)
    if key is not None:
        with open(path) as fh:
            cfg = json.load(fh)
        cfg[key] = value
        with open(path, "w") as fh:
            json.dump(cfg, fh)
    out = tmp_path / "r"
    assert run_cli("flow", "--config", path, "--out", str(out), *argv) == 1
    err = capsys.readouterr().err
    assert "error: bad config" in err and "and be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("kw, message", [
    ({"snapshot_every": float("nan")}, "snapshot_every must be a whole number"),
    ({"snapshot_every": float("inf")}, "snapshot_every must be a whole number"),
    ({"snapshot_every": 2.5}, "snapshot_every must be a whole number"),
    ({"snapshot_every": 0}, "snapshot_every must be a whole number"),
    ({"N": 64.9}, "body N must be a whole number"),
    ({"N": "64"}, "body N must be a whole number"),
    ({"speed": 3}, "speed must be a speed name"),
    ({"speed": "power:nan"}, "power mean needs a finite p"),
    ({"speed": "power:inf"}, "power mean needs a finite p"),
    ({"speed": "power:-inf"}, "power mean needs a finite p"),
], ids=["nan-interval", "inf-interval", "fractional-interval", "zero-interval",
        "fractional-N", "string-N", "numeric-speed", "nan-power", "inf-power",
        "minus-inf-power"])
def test_flow_malformed_config_value_exit_1(tmp_path, capsys, kw, message):
    # refused before anything is written: a NaN or infinite interval never
    # lands a snapshot between the first and the last, so no trend verdict
    # could run; N = 64.9 ran on 64 points; a numeric speed raised a
    # traceback from the speed parser; power:nan died in the step ladder
    out = tmp_path / "r"
    assert run_cli("flow", "--config", sphere_config(tmp_path, **kw), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error: bad config" in err and message in err
    assert not out.exists()


def test_flow_bad_config_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("flow", "--config", str(bad)) == 1
    missing = tmp_path / "missing.json"
    assert run_cli("flow", "--config", str(missing)) == 1
    unknown_speed = sphere_config(tmp_path, speed="nonsense")
    assert run_cli("flow", "--config", unknown_speed, "--out", str(tmp_path / "r")) == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("key, value", [("seed", 7), ("recenter", False)])
def test_flow_config_with_removed_key_exit_1(tmp_path, capsys, key, value):
    # the flow draws no random numbers and always recenters: a config that
    # still sets either key is refused, not silently ignored
    path = sphere_config(tmp_path)
    with open(path) as fh:
        cfg = json.load(fh)
    cfg[key] = value
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = tmp_path / "r"
    assert run_cli("flow", "--config", path, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error: bad config" in err and repr(key) in err
    assert not out.exists()


def test_flow_seed_flag_has_no_effect(tmp_path, capsys):
    # accepted for callers that pass one --seed to every subcommand; it
    # changes no artifact and says so on stderr
    cfg = sphere_config(tmp_path)
    outs = [tmp_path / "plain", tmp_path / "seeded"]
    assert run_cli("flow", "--config", cfg, "--out", str(outs[0])) == 0
    assert "--seed" not in capsys.readouterr().err
    assert run_cli("flow", "--config", cfg, "--out", str(outs[1]), "--seed", "1") == 0
    assert "flow ignores --seed" in capsys.readouterr().err
    files0, files1 = _tree_files(outs[0]), _tree_files(outs[1])
    assert set(files0) == set(files1)
    for rel in files0:
        if rel != "manifest.json":
            assert filecmp.cmp(files0[rel], files1[rel], shallow=False), rel
    manifest = json.loads((outs[1] / "manifest.json").read_text())
    assert "seed" not in manifest
    assert "seed" not in json.loads((outs[1] / "verdicts.json").read_text())["config"]


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_committed_configs_load(name):
    cfg = FlowConfig.from_json(os.path.join(CONFIGS, name))
    body = build_body(cfg.body)
    assert body.N == cfg.body["N"]
    build_speed(cfg.speed, body.mode)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_two_identical_sphere_runs(tmp_path, capsys):
    cfg = sphere_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("flow", "--config", cfg, "--out", str(out)) == 0
        outs.append(str(out))
    code = run_cli("report", *outs, "--out", str(tmp_path / "rep"))
    assert code == 0
    txt = capsys.readouterr().out
    rows = json.loads((tmp_path / "rep" / "report.json").read_text())["runs"]
    assert len(rows) == 2
    a, b = rows
    for key in ("speed", "grid", "maxF_growth", "eps_radii_ratio_final", "passed"):
        assert a[key] == b[key]
    assert "eps_radii_ratio_final" in txt


def test_report_skips_missing_manifest(tmp_path, capsys):
    cfg = sphere_config(tmp_path)
    out = tmp_path / "a"
    assert run_cli("flow", "--config", cfg, "--out", str(out)) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("report", str(out), str(empty)) == 0
    assert "skipping" in capsys.readouterr().err


_UNREADABLE = [
    (b'{"passed": tr', "is not valid JSON", "truncated"),
    (b'{"passed": \xff}', "is not valid JSON", "not-utf8"),
    (b"[]", "is not a JSON object", "list"),
    (b"3", "is not a JSON object", "number"),
]


@pytest.mark.parametrize("name, content, problem", [
    pytest.param(name, content, problem, id=f"{name}-{case}")
    for name in ("manifest.json", "verdicts.json") for content, problem, case in _UNREADABLE
] + [
    pytest.param("verdicts.json", content, f"field {field} is not a JSON object",
                 id=f"verdicts.json-{case}")
    for content, field, case in [(b'{"config": []}', "config", "config-list"),
                                 (b'{"config": {"body": 3}}', "config.body", "body-number"),
                                 (b'{"gates": [1]}', "gates", "gates-list")]
])
def test_report_skips_unreadable_json(tmp_path, capsys, name, content, problem):
    # a file that is not valid JSON ended report in a JSONDecodeError
    # traceback, and one that is not an object, or whose config, config.body
    # or gates is not, in an AttributeError
    cfg = sphere_config(tmp_path)
    good, bad = tmp_path / "a", tmp_path / "b"
    for out in (good, bad):
        assert run_cli("flow", "--config", cfg, "--out", str(out)) == 0
    (bad / name).write_bytes(content)
    capsys.readouterr()
    assert run_cli("report", str(good), str(bad), "--out", str(tmp_path / "rep")) == 0
    assert f"{bad}: {name} {problem}" in capsys.readouterr().err
    rows = json.loads((tmp_path / "rep" / "report.json").read_text())["runs"]
    assert [r["dir"] for r in rows] == [str(good)]


def test_report_prints_termination(tmp_path, capsys):
    # a run that stops short of its max-F stop exits 0 with passed True;
    # the termination column tells it apart
    out = tmp_path / "a"
    cfg = sphere_config(tmp_path, N=32)
    assert run_cli("flow", "--config", cfg, "--stop-max-f", "1e12", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("report", str(out)) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-2:] == ["termination", "passed"]
    assert row.split()[-2:] == ["StepUnderflow", "True"]


def test_report_empty_exit_1():
    assert run_cli("report") == 1


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _tree_files(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = p
    return out


def test_oracle_rerun_byte_identical(tmp_path, capsys):
    # runtime_ms lives on the stdout report only; file artifacts are stable
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    for d in (d1, d2):
        assert run_cli("oracle", "--prop", "2.2", "--speed", "sigma-ratio:2",
                       "--n", "2", "--trials", "300", "--seed", "11",
                       "--out", str(d)) == 0
    assert "runtime_ms" in capsys.readouterr().out
    assert (d1 / "oracle.json").read_bytes() == (d2 / "oracle.json").read_bytes()
    assert "runtime_ms" not in (d1 / "oracle.json").read_text()


def test_flow_rerun_byte_identical(tmp_path):
    cfg = sphere_config(tmp_path)
    outs = [tmp_path / "f1", tmp_path / "f2"]
    for out in outs:
        assert run_cli("flow", "--config", cfg, "--out", str(out)) == 0
    files1, files2 = _tree_files(outs[0]), _tree_files(outs[1])
    assert set(files1) == set(files2)
    for rel in files1:
        if rel == "manifest.json":
            continue  # records wall time by design
        assert filecmp.cmp(files1[rel], files2[rel], shallow=False), rel


# ---------------------------------------------------------------------------
# experiment scripts
# ---------------------------------------------------------------------------

def _oracle_sweep():
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "oracle_sweep.py")
    spec = importlib.util.spec_from_file_location("oracle_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_oracle_sweep_script_smoke(capsys):
    script = _oracle_sweep()
    script.main(["--trials", "50", "--dims", "2"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["speed", "n", "interior", "min/tol", "boundary", "min/tol"]
    rows = [ln.split() for ln in lines[1:] if ln.strip() and not ln.startswith("negative")]
    assert [r[0] for r in rows] == script.CATALOG
    assert all(r[1] == "2" and float(r[2]) >= -1.0 and float(r[3]) >= -1.0 for r in rows)
    assert lines[-1].startswith("negative control power:-2: gap")
    # the printed trial replays from (seed 0, t) alone to a negative gap
    t = int(lines[-1].split(" at trial ")[1].split()[0])
    f = parse_speed("power:-2", 2)
    A, b, k = _interior_draw(f, 0, t)
    assert interior_gap(InteriorSample(A=A, B=np.diag(b), k=k, f=f)) < -1e-4


@pytest.mark.parametrize("argv, message", [
    (["--trials", "0"], "argument --trials: must be >= 1"),
    (["--dims", "2", "0"], "argument --dims: must be >= 1"),
    (["--seed", "-1"], "argument --seed: must be >= 0"),
])
def test_oracle_sweep_script_refuses_out_of_range_arguments(capsys, argv, message):
    # each ended in a ValueError traceback from the suites or the streams
    with pytest.raises(SystemExit) as exc:
        _oracle_sweep().main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def _run_script(name, *argv):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_etd_convergence_script_smoke(tmp_path):
    out = tmp_path / "etd.json"
    lines = _run_script("etd_convergence.py", "--grid", "33", "--t-end", "0.01",
                        "--out", str(out))
    assert lines[-1] == f"wrote {out}"
    assert json.loads(out.read_text())["problem"]["N"] == 33


def test_ellipsoid_roundness_script_smoke(tmp_path, capsys):
    lines = _run_script("ellipsoid_roundness.py", "--speeds", "mean", "--grid", "33",
                        "--growth", "3", "--snapshot-every", "50", "--out", str(tmp_path))
    assert lines[0].startswith("mean: steps ") and "passed = True" in lines[0]
    # the script's run directory is a `flow` run directory, which report reads
    run_dir = tmp_path / "ellipsoid-mean-N33"
    assert lines[-1] == f"    wrote {run_dir}"
    assert run_cli("report", str(run_dir), "--out", str(tmp_path / "rep")) == 0
    assert "skipping" not in capsys.readouterr().err
    (row,) = json.loads((tmp_path / "rep" / "report.json").read_text())["runs"]
    assert (row["speed"], row["grid"], row["passed"]) == ("mean", 33, True)
    verdicts = json.loads((run_dir / "verdicts.json").read_text())
    assert {"config", "refinement_deltas", "counters"} <= set(verdicts)
    assert lines[0].startswith(f"mean: steps {verdicts['counters']['steps']}, ")


# ---------------------------------------------------------------------------
# benchmark tracer
# ---------------------------------------------------------------------------

def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps module-level names of the package; a renamed
    # or deleted one fails here instead of only in a traced benchmark run
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c",
                           "from tracing import Tracer; Tracer().install()"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_counts_a_flow(tmp_path):
    # the tracer's flow counters read FlowRun.steps and FlowRun.snapshots:
    # they must agree with the run directory the traced flow writes
    cfg = sphere_config(tmp_path)
    out = tmp_path / "run"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    code = ("import json, sys\n"
            "from tracing import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "from noncollapse import cli\n"
            "code = cli.main(['flow', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(json.dumps({'exit': code, 'counters': tracer.counters}))\n")
    proc = subprocess.run([sys.executable, "-c", code, cfg, str(out)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["exit"] == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    snaps = list((out / "snapshots").glob("*.json"))
    assert got["counters"]["steps"] == verdicts["counters"]["steps"] > 0
    assert got["counters"]["snapshots"] == len(snaps) >= 3


def test_cli_import_leaves_scipy_out():
    # the package runs on NumPy alone; scipy is a test dependency only
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, noncollapse.cli; "
                           "assert 'scipy' not in sys.modules, 'scipy imported'"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_numpy_random_out(tmp_path):
    # trials draw from speeds.trial_uniforms, which is plain NumPy, and flows
    # draw nothing: numpy.random (some 15 ms to load) stays out of every run
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    cfg = sphere_config(tmp_path, N=32, stop_factor=1.5)
    runs = [
        (None, 0),
        (["oracle", "--prop", "2.2", "--speed", "power:-2", "--n", "3", "--trials", "500"], 2),
        (["oracle", "--prop", "2.5", "--speed", "harmonic", "--n", "3", "--trials", "500"], 0),
        (["certify", "--speed", "power:-2", "--n", "3", "--trials", "300"], 2),
        (["flow", "--config", cfg, "--out", str(tmp_path / "run")], 0),
    ]
    for argv, expected in runs:
        code = ("import json, sys\n"
                "from noncollapse.cli import main\n"
                "code = main(json.loads(sys.argv[1])) if sys.argv[1] != 'null' else 0\n"
                "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
                "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], cwd=str(tmp_path),
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == expected, (argv, proc.stderr)
