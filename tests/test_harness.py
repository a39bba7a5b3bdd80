"""Config ingestion, experiment sweeps, report emission, and the CLI."""

import hashlib
import json

import numpy as np
import pytest

from peerspot import ConfigError, load_config
from peerspot.cli import main as cli_main
from peerspot.harness import (
    HarnessAssertionError,
    ResultRow,
    assert_threshold_consistency,
    emit_csv,
    emit_json,
    emit_plotdata,
    example_config_path,
    generate_environments,
    parse_config,
    run_experiment,
)


def tiny_config_doc(**overrides):
    doc = {
        "environments": [
            {
                "env_id": "e1",
                "labels": [0, 1],
                "prior": [0.5, 0.5],
                "high": [[0.9, 0.1], [0.1, 0.9]],
                "effort_cost": 0.1,
                "n_agents": 3,
                "n_objects": 2,
            }
        ],
        "mechanisms": [{"kind": "peer_insensitive", "W": 1.0}, {"kind": "output_agreement"}],
        "sweeps": {"effort_cost": [0.0, 0.1]},
        "seed": 3,
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_bundled_config_loads(self):
        config = load_config(example_config_path())
        assert len(config.environments) == 1
        assert len(config.mechanisms) == 10
        assert config.effort_costs == (0.0, 0.05, 0.1, 0.2)

    def test_missing_field_names_position(self):
        doc = tiny_config_doc()
        del doc["environments"][0]["prior"]
        with pytest.raises(ConfigError, match=r"environments\[0\]"):
            parse_config(doc)

    def test_missing_mechanisms(self):
        with pytest.raises(ConfigError, match="mechanisms"):
            parse_config({"environments": [tiny_config_doc()["environments"][0]]})

    def test_unknown_kind_names_position(self):
        doc = tiny_config_doc(mechanisms=[{"kind": "bribery"}])
        with pytest.raises(ConfigError, match=r"mechanisms\[0\]"):
            parse_config(doc)

    def test_generator_entries_are_deterministic(self):
        doc = tiny_config_doc(
            environments=[{"generator": {"labels": 3, "count": 4, "seed": 7}}]
        )
        a = parse_config(doc)
        b = parse_config(doc)
        assert len(a.environments) == 4
        for ea, eb in zip(a.environments, b.environments):
            assert np.allclose(ea.high_channel.matrix(), eb.high_channel.matrix())
            assert ea.env_id == eb.env_id

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sweeps.p", 1.5),
            ("sweeps.p", -2.0),
            ("sweeps.p", float("nan")),
            ("grid", 2.0),
            ("grid", 0.0),
            ("grid", -0.1),
            ("grid", float("nan")),
            ("sweeps.effort_cost", -0.1),
            ("sweeps.effort_cost", float("inf")),
            ("sweeps.effort_cost", float("nan")),
        ],
    )
    def test_out_of_range_sweep_values_rejected(self, tmp_path, field, value):
        doc = tiny_config_doc()
        if field == "grid":
            doc["grid"] = value
        else:
            doc["sweeps"][field.split(".")[1]] = [value]
        with pytest.raises(ConfigError, match=f"^{field}:"):
            parse_config(doc)
        if field == "grid":  # the command-line override goes through the same check
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(tiny_config_doc()))
            out = tmp_path / "out"
            assert cli_main(["run", "--config", str(cfg), "--grid", str(value), "--out", str(out)]) == 1
            assert not out.exists()

    def test_range_ends_accepted(self):
        doc = tiny_config_doc(grid=1.0, sweeps={"effort_cost": [0.0], "p": [0.0, 1.0]})
        config = parse_config(doc)
        assert config.grid == 1.0 and config.p_values == (0.0, 1.0)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_numbers_rejected(self, tmp_path, token):
        text = json.dumps(tiny_config_doc()).replace('"effort_cost": 0.1', f'"effort_cost": {token}', 1)
        assert token in text
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(path)


class TestRunExperiment:
    def test_row_grid_and_values(self):
        config = parse_config(tiny_config_doc())
        rows = run_experiment(config)
        assert len(rows) == 4  # 2 mechanisms x 2 costs
        indexed = {(r.mechanism, r.effort_cost): r for r in rows}
        pi_row = indexed[("peer_insensitive", 0.1)]
        assert pi_row.thresholds["p_ds"] == pytest.approx(0.3125, abs=1e-9)
        assert pi_row.thresholds["p_pareto"] == pytest.approx(0.313)
        assert pi_row.pareto_bound_condition
        assert pi_row.worthwhile_effort
        oa_row = indexed[("output_agreement", 0.1)]
        assert oa_row.utility_truthful_p0 == pytest.approx(0.72)
        assert oa_row.utility_gl_p0 == pytest.approx(1.0)

    def test_error_isolation(self):
        doc = tiny_config_doc(
            environments=[{"generator": {"labels": 3, "count": 1, "seed": 9}}],
            mechanisms=[{"kind": "robust_bts"}, {"kind": "output_agreement"}],
            sweeps={"effort_cost": [0.1]},
        )
        rows = run_experiment(parse_config(doc))
        by_mech = {r.mechanism: r for r in rows}
        assert "NonBinaryLabelSpace" in by_mech["robust_bts"].error
        assert by_mech["output_agreement"].error == ""
        assert by_mech["output_agreement"].thresholds["p_ds"] > 0

    def test_any_exception_is_recorded_in_its_rows(self, monkeypatch):
        from peerspot import harness

        build, solve = harness.compute_payoff_table, harness.compute_thresholds

        def failing_build(mechanism, env):
            if mechanism.kind.value == "peer_insensitive":
                raise RuntimeError("table build failed")
            return build(mechanism, env)

        def failing_solve(table, cost, **kwargs):
            if cost == 0.1:
                raise MemoryError("solver ran out of memory")
            return solve(table, cost, **kwargs)

        monkeypatch.setattr(harness, "compute_payoff_table", failing_build)
        monkeypatch.setattr(harness, "compute_thresholds", failing_solve)
        rows = run_experiment(parse_config(tiny_config_doc()))
        errors = {(r.mechanism, r.effort_cost): r.error for r in rows}
        assert errors[("peer_insensitive", 0.0)] == "RuntimeError: table build failed"
        assert errors[("peer_insensitive", 0.1)] == "RuntimeError: table build failed"
        assert errors[("output_agreement", 0.1)] == "MemoryError: solver ran out of memory"
        assert errors[("output_agreement", 0.0)] == ""
        failed = next(r for r in rows if r.mechanism == "output_agreement" and r.effort_cost == 0.1)
        assert failed.thresholds == {} and failed.utility_truthful_p0 is None

    def test_bundled_csv_bytes_are_pinned(self, tmp_path):
        # An intended change to the bundled output updates this pin and says why in CHANGES.md.
        rows = run_experiment(load_config(example_config_path()))
        data = emit_csv(rows, tmp_path / "results.csv").read_bytes()
        assert len(data) == 4968
        assert hashlib.sha256(data).hexdigest() == "d29ebcee3447fef850f65606e8394bf58e382bd841333f6ae151bbdfd4d0630c"

    def test_deterministic_csv(self, tmp_path):
        config = parse_config(tiny_config_doc())
        first = emit_csv(run_experiment(config), tmp_path / "a.csv").read_bytes()
        second = emit_csv(run_experiment(config), tmp_path / "b.csv").read_bytes()
        assert first == second

    def test_consistency_assertion_fires(self):
        bad = ResultRow(
            env_id="x",
            mechanism="output_agreement",
            effort_cost=0.1,
            thresholds={"p_ds": 0.5, "p_pareto": 0.1, "grid_resolution": 1e-3},
            pareto_bound_condition=True,
            utility_truthful_p0=0.0,
            utility_gl_p0=0.0,
            worthwhile_effort=True,
            seed=0,
            timestamp=0.0,
        )
        with pytest.raises(HarnessAssertionError, match="p_pareto"):
            assert_threshold_consistency([bad])

    def test_unattained_thresholds_pass_assertion(self):
        row = ResultRow(
            env_id="x",
            mechanism="output_agreement",
            effort_cost=0.5,
            thresholds={"p_ds": "not_achievable", "p_pareto": "not_found", "grid_resolution": 1e-3},
            pareto_bound_condition=True,
            utility_truthful_p0=0.0,
            utility_gl_p0=0.0,
            worthwhile_effort=False,
            seed=0,
            timestamp=0.0,
        )
        assert_threshold_consistency([row])


class TestReports:
    @pytest.fixture
    def rows(self):
        doc = tiny_config_doc(sweeps={"effort_cost": [0.0, 0.05, 0.1]})
        return run_experiment(parse_config(doc))

    def test_csv_shape(self, rows, tmp_path):
        path = emit_csv(rows, tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(rows)
        assert lines[0].startswith("env_id,mechanism,effort_cost")

    def test_plotdata_series_follows_closed_form(self, rows, tmp_path):
        path = emit_plotdata(rows, tmp_path / "plot.json")
        series = json.loads(path.read_text())
        pi = next(s for s in series if s["mechanism"] == "peer_insensitive")
        got = [pt["p_ds"] for pt in pi["points"]]
        assert got[0] == pytest.approx(0.0)
        assert got[1] == pytest.approx(0.05 / 0.32, abs=1e-9)
        assert got[2] == pytest.approx(0.1 / 0.32, abs=1e-9)

    def test_parameterised_specs_get_their_own_rows_and_series(self, tmp_path):
        mechanisms = [
            {"kind": "divergence_bts", "theta": theta, "rule": rule}
            for theta in (0.05, 0.5)
            for rule in ("quadratic", "log")
        ]
        rows = run_experiment(parse_config(tiny_config_doc(mechanisms=mechanisms)))
        labels = {r.mechanism for r in rows}
        assert labels == {
            "divergence_bts",
            "divergence_bts[rule=log]",
            "divergence_bts[theta=0.5]",
            "divergence_bts[rule=log,theta=0.5]",
        }
        series = json.loads(emit_plotdata(rows, tmp_path / "plot.json").read_text())
        assert len(series) == 4
        assert all(len(s["points"]) == 2 for s in series)

    def test_json_round_trips_through_report_cli(self, rows, tmp_path):
        json_path = emit_json(rows, tmp_path / "rows.json")
        code = cli_main(
            ["report", "--rows", str(json_path), "--format", "csv", "--out", str(tmp_path / "again")]
        )
        assert code == 0
        direct = emit_csv(rows, tmp_path / "direct.csv").read_text()
        regenerated = (tmp_path / "again" / "results.csv").read_text()
        assert regenerated == direct


class TestCli:
    def test_validate_bundled(self, capsys):
        assert cli_main(["validate"]) == 0
        assert "10 mechanism(s)" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"environments\": []}")
        assert cli_main(["validate", "--config", str(bad)]) == 1

    def test_run_writes_reports(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config_doc()))
        code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        for name in ("results.csv", "results.json", "plotdata.json"):
            assert (tmp_path / "out" / name).exists()

    def test_run_seed_override_lands_in_rows(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config_doc()))
        assert cli_main(["run", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "o")]) == 0
        rows = json.loads((tmp_path / "o" / "results.json").read_text())
        assert all(r["seed"] == 99 for r in rows)
        assert all(isinstance(r["effort_cost"], float) for r in rows)


class TestGenerator:
    def test_channels_are_noisy_and_valid(self):
        for env in generate_environments(3, 5, seed=21, accuracy=(0.6, 0.95)):
            env.validate()
            high = env.high_channel.matrix()
            assert np.all(np.diag(high) <= 0.95 + 1e-12)
            assert np.all(np.diag(high) >= 0.6 - 1e-12)
            assert np.allclose(env.low_channel.matrix(), 1.0 / 3.0)
