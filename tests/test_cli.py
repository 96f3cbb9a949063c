import json
import math
import multiprocessing
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from apalm import io as apio
from apalm.cli import main
from apalm.config import ConfigError, parse_config
from apalm.engine import EngineConfig, aalm
from apalm.alm import AlmConfig
from apalm.problems import SolutionPoint, make_builtin


BASE = {
    "problem": {"name": "cubic1d"},
    "alm": {"constraint": "crisfield", "psi": 1.0},
    "engine": {"delta_L": 0.4, "steps": 15},
}


def doc(**overrides):
    out = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key].update(val)
        else:
            out[key] = val
    return out


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(json.dumps(doc()))
        assert cfg.problem_name == "cubic1d"
        assert cfg.alm.constraint == "crisfield"
        assert cfg.engine.delta_L == 0.4
        assert cfg.workers == 1
        # forked process workers wherever the platform can fork
        assert cfg.transport == ("process" if "fork" in
                                 multiprocessing.get_all_start_methods()
                                 else "thread")

    def test_defaults_without_alm_section(self):
        d = doc()
        del d["alm"]
        cfg = parse_config(json.dumps(d))
        assert cfg.alm.psi == 1.0

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d["alm"].update(psi2=1.0), "psi2"),
        (lambda d: d["engine"].update(tol=1e-2), "tol"),
        (lambda d: d["problem"].update(extra=1), "extra"),
    ])
    def test_unknown_keys_named(self, mutate, needle):
        d = doc()
        mutate(d)
        with pytest.raises(ConfigError, match=needle):
            parse_config(json.dumps(d))

    @pytest.mark.parametrize("section,key", [
        ("alm", "max_newton_iters"), ("alm", "max_step_cuts"),
        ("alm", "bif_tol"), ("alm", "branch_perturbation"),
        ("alm", "step_delay"), ("engine", "max_branches"),
        ("engine", "branch_delta_L"), ("engine", "branch_steps"),
    ])
    def test_removed_key_rejected_by_name(self, section, key):
        d = doc()
        d[section][key] = 1
        with pytest.raises(ConfigError,
                           match=f"unknown key '{key}' in {section}"):
            parse_config(json.dumps(d))

    @pytest.mark.parametrize("mutate", [
        lambda d: d["engine"].update(delta_L=-1.0),
        lambda d: d["engine"].update(steps=0),
        lambda d: d["alm"].update(psi=-0.5),
        lambda d: d["alm"].update(constraint="secant"),
        lambda d: d.update(workers=0),
        lambda d: d.update(transport="smoke-signal"),
        lambda d: d.update(observable_index=-1),
    ])
    def test_constraint_violations_rejected(self, mutate):
        d = doc()
        mutate(d)
        with pytest.raises(ConfigError):
            parse_config(json.dumps(d))

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(alm=None),
        lambda d: d.update(engine=3),
        lambda d: d["problem"].update(params=[64]),
        lambda d: d["problem"].update(name="tightrope"),
        lambda d: d["engine"].update(steps=3.0),
        lambda d: d["engine"].update(subintervals=2.5),
        lambda d: d["engine"].update(max_level=True),
        lambda d: d["alm"].update(max_newton_iters=25.0),
        lambda d: d.update(workers=True),
        lambda d: d.update(observable_index=False),
        lambda d: d["engine"].update(branch_delta_L=-0.4),
        lambda d: d["engine"].update(branch_delta_L=0.0),
        lambda d: d["engine"].update(branch_steps=0),
        lambda d: d.update(problem={"name": "springchain",
                                    "params": {"n": 20}},
                           observable_index=20),
        lambda d: d["alm"].update(step_delay="0.1"),
        lambda d: d["alm"].update(step_delay=-0.1),
        lambda d: d["alm"].update(bif_tol=None),
        lambda d: d["alm"].update(psi=None),
        lambda d: d["alm"].update(psi=float("nan")),
        lambda d: d["engine"].update(delta_L=float("inf")),
        lambda d: d.update(output=5),
        lambda d: d.update(problem={"name": "springchain",
                                    "params": {"n": 2.5}}),
        lambda d: d.update(problem={"name": "springchain",
                                    "params": {"n": True}}),
        lambda d: d.update(problem={"name": "springchain",
                                    "params": {"c": "x"}}),
        lambda d: d["engine"].update(bifurcation_enabled="false"),
        lambda d: d["engine"].update(bifurcation_enabled=1),
        lambda d: d["engine"].update(bifurcation_enabled=None),
    ], ids=["alm-null", "engine-int", "params-list", "unknown-problem",
            "steps-float", "subintervals-float", "max_level-bool",
            "newton_iters-float", "workers-bool", "observable-bool",
            "branch_delta_L-negative", "branch_delta_L-zero",
            "branch_steps-zero", "observable-past-n_dof",
            "step_delay-string", "step_delay-negative", "bif_tol-null",
            "psi-null", "psi-nan", "delta_L-inf", "output-int",
            "param-n-float", "param-n-bool",
            "param-c-string", "bifurcation_enabled-string",
            "bifurcation_enabled-int", "bifurcation_enabled-null"])
    def test_configs_that_cannot_run_rejected(self, mutate, tmp_path,
                                               capsys):
        d = doc()
        mutate(d)
        with pytest.raises(ConfigError):
            parse_config(json.dumps(d))
        assert main(["run", write_cfg(tmp_path, d)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_integer_for_float_param_accepted(self, tmp_path):
        d = doc(problem={"name": "springchain", "params": {"n": 4, "c": 1}})
        assert parse_config(json.dumps(d)).problem_params == {"n": 4, "c": 1}
        assert main(["run", write_cfg(tmp_path, d)]) == 0

    def test_last_observable_index_accepted(self):
        d = doc(problem={"name": "springchain", "params": {"n": 20}},
                observable_index=19)
        assert parse_config(json.dumps(d)).observable_index == 19

    @pytest.mark.parametrize("missing", ["problem", "engine"])
    def test_required_sections(self, missing):
        d = doc()
        del d[missing]
        with pytest.raises(ConfigError, match=missing):
            parse_config(json.dumps(d))

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_readme_example_parses(self):
        # the first json block of README.md is the documented config
        text = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(block)
        assert cfg.problem_name == "springchain"
        assert cfg.problem_params == {"n": 64}
        assert cfg.alm == AlmConfig(constraint="crisfield", psi=1.0,
                                    newton_tol=1e-10)
        assert (cfg.workers, cfg.transport, cfg.output) == (
            4, "thread", "curve.csv")

    @pytest.mark.parametrize("payload", [
        # structural sweep over step length, metric weight, tolerances
        doc(alm={"psi": 1.0}, engine={"delta_L": 30.0, "steps": 3,
                                      "tol_lower": 1e-2, "tol_upper": 1e-2}),
        doc(alm={"psi": 0.0}, engine={"delta_L": 0.5, "steps": 10}),
        doc(engine={"delta_L": 5e-5, "steps": 4, "tol_lower": 1e-3,
                    "tol_upper": 1e-3}),
        doc(engine={"delta_L": 5.0, "steps": 4, "tol_lower": 1e-3,
                    "tol_upper": 1e-3}),
    ])
    def test_representative_configs_parse(self, payload):
        cfg = parse_config(json.dumps(payload))
        assert cfg.engine.steps >= 1


def small_run():
    p = make_builtin("cubic1d")
    return aalm(p, AlmConfig(constraint="crisfield", psi=1.0,
                             newton_tol=1e-12),
                EngineConfig(delta_L=0.4, steps=15))


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rows = small_run().collect()
        path = tmp_path / "out.csv"
        apio.write_csv(rows, str(path))
        back = apio.read_csv(str(path))
        assert len(back) == len(rows)
        for (ba, xa, sa, la, wa), (bb, xb, sb, lb, wb) in zip(rows, back):
            assert (ba, la) == (bb, lb)
            assert xa == xb and sa == sb  # 17 significant digits: exact
            assert wa.lam == wb.lam
            assert np.array_equal(wa.u, wb.u)

    def test_column_contract_on_analytic_path(self, tmp_path):
        rows = small_run().collect()
        path = tmp_path / "out.csv"
        apio.write_csv(rows, str(path))
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["branch", "xi", "s", "level", "lambda", "u0"]
        for _, _, _, _, w in apio.read_csv(str(path)):
            assert abs(w.lam - (w.u[0] ** 3 - 3 * w.u[0])) <= 1e-8

    def test_norm_columns_for_large_systems(self, tmp_path):
        u = np.arange(20, dtype=float)
        rows = [(0, 0.0, 0.0, 0, SolutionPoint(u, 1.0))]
        path = tmp_path / "big.csv"
        apio.write_csv(rows, str(path), observable_index=3)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rec = fh.readline().strip().split(",")
        assert header[-2:] == ["u_norm", "u3"]
        assert float(rec[-2]) == pytest.approx(np.linalg.norm(u))
        assert float(rec[-1]) == 3.0
        with pytest.raises(ValueError):
            apio.read_csv(str(path))

    def test_norm_columns_match_the_per_row_formula(self, tmp_path):
        """Above FULL_COMPONENT_LIMIT unknowns the file's bytes are those
        of formatting each row on its own, with np.linalg.norm for
        u_norm: the stacked norms keep every bit."""
        p = make_builtin("springchain", n=32)
        rows = aalm(p, AlmConfig(), EngineConfig(delta_L=0.5, steps=12,
                                                 tol_lower=1e-3)).collect()
        path = tmp_path / "chain.csv"
        apio.write_csv(rows, str(path), observable_index=5)
        lines = ["branch,xi,s,level,lambda,u_norm,u5"]
        for branch, xi, s, level, w in sorted(rows,
                                              key=lambda r: (r[0], r[1])):
            lines.append(
                f"{branch},{xi:.17g},{s:.17g},{level},{w.lam:.17g},"
                f"{float(np.linalg.norm(w.u)):.17g},{w.u[5]:.17g}")
        assert len(rows) > 12
        assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()

    def test_sorted_by_branch_then_xi(self, tmp_path):
        rows = [(1, 0.0, 0.0, 0, SolutionPoint(np.zeros(1), 0.0)),
                (0, 0.5, 1.0, 0, SolutionPoint(np.ones(1), 1.0)),
                (0, 0.0, 0.0, 0, SolutionPoint(np.zeros(1), 0.0))]
        path = tmp_path / "sorted.csv"
        apio.write_csv(rows, str(path))
        back = apio.read_csv(str(path))
        assert [(b, x) for b, x, *_ in back] == [(0, 0.0), (0, 0.5), (1, 0.0)]


class TestCompare:
    def test_identical_runs(self):
        rows = small_run().collect()
        report = apio.compare(rows, rows)
        assert report.keys_match
        assert report.mismatched_keys == []
        assert report.ok()

    def test_value_deviation(self):
        rows = small_run().collect()
        other = list(rows)
        b, xi, s, lvl, w = other[3]
        other[3] = (b, xi, s, lvl, SolutionPoint(w.u + 1e-6, w.lam))
        report = apio.compare(rows, other)
        assert report.keys_match
        assert report.mismatched_keys == [(b, xi)]
        assert not report.ok()

    def test_one_ulp_in_s(self):
        rows = small_run().collect()
        other = list(rows)
        b, xi, s, lvl, w = other[3]
        other[3] = (b, xi, float(np.nextafter(s, np.inf)), lvl, w)
        report = apio.compare(rows, other)
        assert report.keys_match
        assert report.mismatched_keys == [(b, xi)]
        assert not report.ok()

    def test_level_change(self):
        rows = small_run().collect()
        other = list(rows)
        b, xi, s, lvl, w = other[3]
        other[3] = (b, xi, s, lvl + 1, w)
        report = apio.compare(rows, other)
        assert report.keys_match
        assert report.mismatched_keys == [(b, xi)]
        assert not report.ok()

    def test_key_mismatch(self):
        rows = small_run().collect()
        report = apio.compare(rows, rows[:-1])
        assert not report.keys_match
        assert report.missing_keys


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestMain:
    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cfg = write_cfg(tmp_path, doc(output=str(out)))
        assert main(["run", cfg]) == 0
        assert out.exists()
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["branches"] == 1
        assert summary["jobs_failed"] == 0
        assert summary["points"] == len(apio.read_csv(str(out)))

    def test_run_without_output_prints_stats(self, tmp_path, capsys):
        # queue_time is the tail after the serial phase, not the parallel
        # part of the run, and the line says so
        cfg = write_cfg(tmp_path, doc())
        assert main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert "points" in out
        assert "(serial " in out and ", queue " in out
        assert "parallel" not in out

    def test_scale_subcommand_is_gone(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, doc())
        with pytest.raises(SystemExit) as exc:
            main(["scale", cfg])
        assert exc.value.code == 2
        assert "invalid choice: 'scale'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["option", "none"])
    def test_serial_failure_exit_code(self, tmp_path, capsys, caplog, where):
        # a serial step of the primary branch fails while the worker holds
        # level-1 jobs: one line on stderr, no traceback, no file, and the
        # worker does not report its manager lost
        cfg = write_cfg(tmp_path, {
            "problem": {"name": "springchain", "params": {"n": 8}},
            "alm": {"newton_tol": 1e-14},
            "engine": {"delta_L": 500, "steps": 4}})
        out = tmp_path / "curve.csv"
        argv = ["run", cfg] + (["--output", str(out)] if where == "option"
                               else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: serial solve failed on branch 0 at s=")
        assert captured.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        assert not caplog.records

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_serial_failure_prints_one_line_from_either_worker_kind(
            self, tmp_path, capfd, caplog, transport):
        # worker 0 steps the serial phase and sends the failed primary step
        # to the manager, which raises it: one line on stderr, from the
        # manager, with 2 workers of either kind, and no line from a worker
        cfg = write_cfg(tmp_path, {
            "problem": {"name": "springchain", "params": {"n": 8}},
            "alm": {"newton_tol": 1e-14},
            "engine": {"delta_L": 500, "steps": 4},
            "workers": 2, "transport": transport})
        assert main(["run", cfg]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: serial solve failed on branch 0 at s=")
        assert captured.err.count("\n") == 1
        assert not caplog.records

    def test_compare_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, doc())
        assert main(["compare", cfg, "--workers", "1,4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["mismatched_keys"] == []

    @pytest.mark.parametrize("counts", ["1", "1,2,3"])
    def test_compare_needs_two_counts(self, tmp_path, capsys, monkeypatch,
                                      counts):
        cfg = write_cfg(tmp_path, doc())
        runs = []
        monkeypatch.setattr(apio, "run_from_config",
                            lambda *a, **k: runs.append(a))
        assert main(["compare", cfg, "--workers", counts]) == 2
        assert capsys.readouterr().err == \
            "compare needs exactly two worker counts\n"
        assert runs == []

    def test_compare_names_the_mismatched_point(self, tmp_path, capsys,
                                                monkeypatch):
        rows = small_run().collect()
        b, xi, s, lvl, w = rows[3]
        other = list(rows)
        other[3] = (b, xi, s, lvl, SolutionPoint(w.u, w.lam + 1e-12))
        states = iter([SimpleNamespace(collect=lambda: rows),
                       SimpleNamespace(collect=lambda: other)])
        monkeypatch.setattr(apio, "run_from_config",
                            lambda *a, **k: next(states))
        cfg = write_cfg(tmp_path, doc())
        assert main(["compare", cfg, "--workers", "1,2"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"workers": [1, 2], "keys_match": True,
                          "missing_keys": [], "extra_keys": [],
                          "mismatched_keys": [[b, xi]], "ok": False}

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, doc(bogus=1))
        assert main(["run", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_directory_as_config_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("target,where,reason", [
        ("tmp", "option", "it is a directory"),
        (".", "option", "it is a directory"),
        ("/", "option", "it is a directory"),
        (".", "config", "it is a directory"),
        ("newname" + os.sep, "option", "it ends in a path separator")],
        ids=["tmp-dir", "dot", "root", "dot-in-config", "trailing-sep"])
    def test_directory_as_output_exit_code(self, tmp_path, capsys,
                                           monkeypatch, target, where,
                                           reason):
        # refused before the run: nothing is computed and no file made;
        # "." and "/" have no name that a suffix could be given to, and
        # Path() drops the trailing separator of "newname/"
        monkeypatch.chdir(tmp_path)
        out = str(tmp_path) if target == "tmp" else target
        cfg = write_cfg(tmp_path, doc(output=out) if where == "config"
                        else doc())
        before = sorted(tmp_path.rglob("*"))
        runs = []
        monkeypatch.setattr(apio, "run_from_config",
                            lambda *a, **k: runs.append(a))
        argv = ["run", cfg] + (["--output", out] if where == "option" else [])
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: {reason}\n")
        assert runs == [] and sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("where", ["option", "config"])
    def test_output_in_missing_directory_refused_before_run(
            self, tmp_path, capsys, monkeypatch, where):
        out = str(tmp_path / "missing" / "curve.csv")
        cfg = write_cfg(tmp_path, doc(output=out) if where == "config"
                        else doc())
        before = sorted(tmp_path.rglob("*"))
        runs = []
        monkeypatch.setattr(apio, "run_from_config",
                            lambda *a, **k: runs.append(a))
        argv = ["run", cfg] + (["--output", out] if where == "option" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert "is not a directory" in err and err.count("\n") == 1
        assert runs == [] and sorted(tmp_path.rglob("*")) == before

    def test_summary_path_that_is_a_directory_refused(self, tmp_path,
                                                      capsys):
        cfg = write_cfg(tmp_path, doc())
        (tmp_path / "curve.summary.json").mkdir()
        out = tmp_path / "curve.csv"
        assert main(["run", cfg, "--output", str(out)]) == 2
        assert "curve.summary.json: it is a directory" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = json.dumps(doc(output="kurve-ä.csv"), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "not UTF-8" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--workers", "0"],
        ["run", "--workers", "-2"],
        ["run", "--workers", "two"],
    ])
    def test_non_positive_counts_rejected(self, argv, tmp_path, capsys):
        cfg = write_cfg(tmp_path, doc())
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + [cfg] + argv[1:])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err
