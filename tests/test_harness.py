"""Config ingestion, experiment sweeps, report emission, and the CLI."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from peerspot import ConfigError, ExperimentConfig, MechanismKind, MechanismSpec, load_config, reference_environment
from peerspot.cli import main as cli_main
from peerspot.equilibrium import MIN_GRID
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

    @pytest.mark.parametrize(
        "generator, message",
        [
            ({"labels": 1}, "label space needs at least 2 labels"),
            ({"n_agents": 1}, "n_agents must be an integer of at least 3, got 1"),
            ({"n_objects": 0}, "n_objects: must be a positive integer"),
            ({"effort_cost": 0.1}, "unknown key 'effort_cost'$"),
            ({"labels": 2.5}, "labels: must be a positive integer, got 2.5"),
            ({"labels": 6}, "labels: must be at most 5, got 6"),
            ({"count": 1.5}, "count: must be a positive integer"),
            ({"n_agents": 3.5}, "n_agents: must be a positive integer"),
            ({"n_objects": 2.5}, "n_objects: must be a positive integer"),
            ({"labels": True}, "labels: must be a positive integer, got True"),
            ({"count": 0}, "count: must be a positive integer, got 0"),
            ({"lables": 3}, "unknown key 'lables'"),
            ({"seed": 2.5}, "seed: must be a nonnegative integer, got 2.5"),
            ({"seed": -1}, "seed: must be a nonnegative integer, got -1"),
            ({"accuracy": [-1e308, 1e308]}, r"accuracy: must satisfy 0 <= lo <= hi <= 1, got \[-1e\+308, 1e\+308\]$"),
            ({"accuracy": [0.9, 0.6]}, r"accuracy: must satisfy 0 <= lo <= hi <= 1, got \[0\.9, 0\.6\]$"),
            ({"accuracy": [0.6, 1.5]}, r"accuracy: must satisfy 0 <= lo <= hi <= 1"),
            ({"accuracy": [0.6]}, r"accuracy: must be two numbers \[lo, hi\], got \[0\.6\]$"),
            ({"accuracy": "0.6"}, r"accuracy: must be two numbers \[lo, hi\], got '0\.6'$"),
            ({"accuracy": [0.6, True]}, r"accuracy: must be two numbers \[lo, hi\]"),
            ({"count": 10001}, "count: must be at most 10000, got 10001$"),
            ({"count": 1e300}, r"count: must be at most 10000, got 1e\+300$"),
            ({"prefix": 5}, "prefix: must be a string, got 5$"),
        ],
    )
    def test_bad_generator_entries_name_the_entry(self, tmp_path, capsys, generator, message):
        doc = tiny_config_doc(environments=[tiny_config_doc()["environments"][0], {"generator": generator}])
        with pytest.raises(ConfigError, match=rf"^environments\[1\]\.generator: {message}"):
            parse_config(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count("environments[1].generator: ") == 2

    def test_generator_count_is_bounded_before_any_environment_is_built(self, tmp_path, capsys, monkeypatch):
        from peerspot import harness

        counts = []
        monkeypatch.setattr(harness, "generate_environments", lambda **fields: counts.append(fields["count"]) or [])
        doc = tiny_config_doc(environments=[{"generator": {"count": 10001}}])
        message = "environments[0].generator: count: must be at most 10000, got 10001"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"invalid config: {message}\n"
        assert counts == []
        with pytest.raises(ConfigError, match="^environments: at least one entry required$"):
            parse_config(tiny_config_doc(environments=[{"generator": {"count": harness.MAX_GENERATED}}]))
        assert counts == [10_000]

    @pytest.mark.parametrize("bound", [float("nan"), float("inf")])
    def test_non_finite_generator_accuracy_is_a_config_error(self, bound):
        """JSON files cannot carry these (load_config refuses them), but a dict passed to
        parse_config can."""
        doc = tiny_config_doc(environments=[{"generator": {"labels": 3, "accuracy": [0.6, bound]}}])
        with pytest.raises(ConfigError, match=r"^environments\[0\]\.generator: accuracy: must satisfy 0 <= lo <= hi <= 1"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "entry, message",
        [(3, r"environments\[1\]: must be an object, got 3"), ({"generator": 3}, r"environments\[1\]\.generator: must be an object, got 3")],
    )
    def test_non_object_environment_entries_name_the_entry(self, tmp_path, capsys, entry, message):
        doc = tiny_config_doc(environments=[tiny_config_doc()["environments"][0], entry])
        with pytest.raises(ConfigError, match=rf"^{message}$"):
            parse_config(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert "environments[1]" in capsys.readouterr().err

    def test_literal_environment_over_the_label_budget_is_rejected(self, tmp_path, capsys):
        six = {"labels": list(range(6)), "prior": [1 / 6] * 6, "high": np.eye(6).tolist()}
        doc = tiny_config_doc(environments=[tiny_config_doc()["environments"][0], six])
        with pytest.raises(ConfigError, match=r"^environments\[1\]: labels must hold at most 5 labels, got 6$"):
            parse_config(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert "environments[1]: labels" in capsys.readouterr().err

    def test_fractional_top_level_seed_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^seed: must be an integer, got 2\.5$"):
            parse_config(tiny_config_doc(seed=2.5))
        assert parse_config(tiny_config_doc(seed=3.0)).seed == 3

    def test_integral_float_generator_sizes_accepted(self):
        doc = tiny_config_doc(environments=[{"generator": {"labels": 3.0, "count": 2.0, "n_agents": 4.0}}])
        config = parse_config(doc)
        assert [len(env.q_space) for env in config.environments] == [3, 3]
        assert config.environments[0].n_agents == 4

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
            ("grid", MIN_GRID / 10),
            ("grid", 0.4),
            ("grid", 0.3),
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
        assert parse_config(tiny_config_doc(grid=MIN_GRID)).grid == MIN_GRID

    def test_empty_cost_sweep_rejected(self, tmp_path, capsys):
        doc = tiny_config_doc(sweeps={"effort_cost": []})
        with pytest.raises(ConfigError, match=r"^sweeps\.effort_cost: at least one value required$"):
            parse_config(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert "sweeps.effort_cost: at least one value required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sweeps": [1]}, r"sweeps: must be an object, got \[1\]"),
            ({"sweeps": {"effort_cost": 0.1}}, r"sweeps\.effort_cost: must be a list, got 0\.1"),
            ({"sweeps": {"p": 0.5}}, r"sweeps\.p: must be a list, got 0\.5"),
            ({"sweeps": {"effort_cost": [True]}}, r"sweeps\.effort_cost: must be finite and nonnegative, got True$"),
            ({"sweeps": {"effort_cost": ["0.1"]}}, r"sweeps\.effort_cost: must be finite and nonnegative, got '0\.1'$"),
            ({"sweeps": {"p": [True]}}, r"sweeps\.p: must be a number in \[0, 1\], got True$"),
            ({"sweeps": {"p": ["0.5"]}}, r"sweeps\.p: must be a number in \[0, 1\], got '0\.5'$"),
            ({"grid": True}, r"grid: must be 1/n for an integer n from 1 to 100000, got True$"),
            ({"grid": "0.01"}, r"grid: must be 1/n for an integer n from 1 to 100000, got '0\.01'$"),
            ({"output_dir": 3}, r"output_dir: must be a string, got 3$"),
            ({"prior": "ab"}, r"environments\[0\]: prior: must be a list, got 'ab'$"),
            ({"labels": "ab"}, r"environments\[0\]: labels: must be a list, got 'ab'$"),
            ({"prior": [True, 0]}, r"environments\[0\]: prior: must be a number, got True$"),
            ({"high": [[0.9, 0.1], ["0.1", 0.9]]}, r"environments\[0\]: high: must be a number, got '0\.1'$"),
            ({"effort_cost": 0.1}, r"environments\[0\]: unknown key 'effort_cost'$"),
            ({"env_id": 5}, r"environments\[0\]: env_id: must be a string, got 5$"),
            ({"high": [[0.9, 0.1], [1.0]]}, r"environments\[0\]: high: "),
            ({"n_agents": 3.9}, r"environments\[0\]: n_agents: must be a positive integer, got 3\.9"),
            ({"n_agents": "4"}, r"environments\[0\]: n_agents: must be a positive integer, got '4'"),
            ({"n_objects": 1.5}, r"environments\[0\]: n_objects: must be a positive integer, got 1\.5"),
            ({"n_objects": True}, r"environments\[0\]: n_objects: must be a positive integer, got True"),
            ({"environments": 3}, r"environments: must be a list, got 3$"),
            ({"mechanisms": 3}, r"mechanisms: must be a list, got 3$"),
            ({"grdi": 0.5}, r"config: unknown key 'grdi'$"),
            ({"sweeps": {"effort_costs": [0.3]}}, r"sweeps: unknown key 'effort_costs'$"),
            ({"n_agent": 10}, r"environments\[0\]: unknown key 'n_agent'$"),
            ({"environments": [{"generator": {}, "n_agents": 5}]}, r"environments\[0\]: unknown key 'n_agents'$"),
            ({"sweeps": {"effort_cost": [0.1, 0.1]}}, r"sweeps\.effort_cost\[1\]: value 0\.1 repeats sweeps\.effort_cost\[0\]$"),
            ({"sweeps": {"p": [0.5, 0.25, 0.5]}}, r"sweeps\.p\[2\]: value 0\.5 repeats sweeps\.p\[0\]$"),
            # Ints too large for a float are not numbers.
            (
                {"mechanisms": [{"kind": "peer_truth_serum", "alpha": 10**400}]},
                r"mechanisms\[0\]: peer_truth_serum requires alpha to be a finite number > 0, got 10{400}$",
            ),
            (
                {"environments": [{"generator": {"count": 10**400}}]},
                r"environments\[0\]\.generator: count: must be at most 10000, got 10{400}$",
            ),
            ({"prior": [10**400, 0.5]}, r"environments\[0\]: prior: must be a number, got 10{400}$"),
            ({"sweeps": {"effort_cost": [10**400]}}, r"sweeps\.effort_cost: must be finite and nonnegative, got 10{400}$"),
            (
                {"environments": [{"generator": {"effort_cost": 0.1}}]},
                r"environments\[0\]\.generator: unknown key 'effort_cost'$",
            ),
        ],
        ids=["sweeps-list", "costs-number", "p-number", "bool-cost", "string-cost", "bool-p", "string-p",
             "bool-grid", "string-grid", "number-output-dir", "prior-string", "labels-string", "bool-prior",
             "string-high", "literal-effort-cost", "number-env-id", "ragged-high", "fractional-agents",
             "string-agents", "fractional-objects", "bool-objects", "environments-number", "mechanisms-number",
             "unknown-top-key", "unknown-sweeps-key", "unknown-literal-key", "generator-with-literal-key",
             "repeated-cost", "repeated-p", "huge-alpha", "huge-generator-count", "huge-prior", "huge-sweep-cost",
             "generator-effort-cost"],
    )
    def test_malformed_documents_name_the_field(self, tmp_path, capsys, overrides, message):
        """A number is a JSON int or float, never a bool or a string; names and paths are
        strings and label and probability rows lists."""
        doc = tiny_config_doc()
        if set(overrides) & {"environments", "mechanisms", "sweeps", "grid", "grdi", "output_dir"}:
            doc.update(overrides)
        else:
            doc["environments"][0].update(overrides)
        with pytest.raises(ConfigError, match=rf"^{message}"):
            parse_config(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("invalid config: ")

    def test_non_object_config_is_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"^config: must be an object, got \[1, 2\]$"):
            parse_config([1, 2])
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "invalid config: config: must be an object, got [1, 2]\n"

    @pytest.mark.parametrize(
        "entry",
        [{"kind": "peer_truth_serum", "alpha": "inf"}, {"kind": "peer_insensitive", "W": "Infinity"},
         {"kind": "divergence_bts", "theta": True}, {"kind": "peer_truth_serum", "beta": "1e400"}],
        ids=["string-inf", "string-infinity", "bool", "string-overflow"],
    )
    def test_validate_refuses_non_numeric_mechanism_parameters(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config_doc(mechanisms=[{"kind": "output_agreement"}, entry])))
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid config: mechanisms[1]: ") and "to be a finite number > 0, got " in err

    @pytest.mark.parametrize("entry", [3, "output_agreement", [{"kind": "output_agreement"}]])
    def test_validate_refuses_non_object_mechanism_entries(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config_doc(mechanisms=[{"kind": "output_agreement"}, entry])))
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"invalid config: mechanisms[1]: must be an object, got {entry!r}\n"

    def test_integral_float_literal_sizes_accepted(self):
        doc = tiny_config_doc()
        doc["environments"][0].update(n_agents=4.0, n_objects=3.0)
        env = parse_config(doc).environments[0]
        assert (env.n_agents, env.n_objects) == (4, 3)

    @pytest.mark.parametrize(
        "environments, mechanisms, message",
        [
            (2, [{"kind": "output_agreement"}], r"environments\[1\]: env_id 'env' repeats environments\[0\]$"),
            (
                1,
                [{"kind": "output_agreement"}] * 2,
                r"mechanisms\[1\]: mechanism 'output_agreement' repeats mechanisms\[0\]$",
            ),
            (
                1,
                [
                    {"kind": "peer_truth_serum", "alpha": 2.0},
                    {"kind": "output_agreement"},
                    {"kind": "peer_truth_serum", "alpha": 2},
                ],
                r"mechanisms\[2\]: mechanism 'peer_truth_serum\[alpha=2\.0\]' repeats mechanisms\[0\]$",
            ),
        ],
        ids=["env-id", "mechanism", "parameterised-mechanism"],
    )
    def test_repeated_row_keys_are_rejected(self, tmp_path, capsys, environments, mechanisms, message):
        # Rows and plot series are keyed by (env_id, mechanism, effort_cost): a repeat would
        # merge two environments' or mechanisms' thresholds into one series.
        literal = {key: value for key, value in tiny_config_doc()["environments"][0].items() if key != "env_id"}
        doc = tiny_config_doc(environments=[literal] * environments, mechanisms=mechanisms)
        with pytest.raises(ConfigError, match=rf"^{message}"):
            parse_config(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(cfg)]) == 1
        assert "repeats" in capsys.readouterr().err

    def test_generators_that_repeat_env_ids_are_rejected(self):
        doc = tiny_config_doc(environments=[{"generator": {"count": 2}}, {"generator": {"seed": 0}}])
        with pytest.raises(ConfigError, match=r"^environments\[1\]: env_id 'gen-q2-s0-0' repeats environments\[0\]$"):
            parse_config(doc)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_numbers_rejected(self, tmp_path, token):
        text = json.dumps(tiny_config_doc()).replace('"effort_cost": [0.0, 0.1]', f'"effort_cost": [0.0, {token}]', 1)
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
        assert pi_row.p_ds == pytest.approx(0.3125, abs=1e-9)
        assert pi_row.p_pareto == pytest.approx(0.313)
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
        assert by_mech["output_agreement"].p_ds > 0

    def test_any_exception_is_recorded_in_its_rows(self, monkeypatch):
        # A table build or a cost sweep that raises fails every row it covers; a row's own step
        # that raises fails that row alone, which leaves it out of its table's one sweep.
        from peerspot import harness

        build, sweep, worthwhile = harness.compute_payoff_table, harness.compute_threshold_sweep, harness.check_worthwhile_effort
        kinds, swept = {}, []

        def failing_build(mechanism, env):
            if mechanism.kind.value == "peer_insensitive":
                raise RuntimeError("table build failed")
            table = build(mechanism, env)
            kinds[id(table)] = mechanism.kind.value
            return table

        def failing_sweep(table, costs, **kwargs):
            swept.append((kinds[id(table)], list(costs)))
            if kinds[id(table)] == "output_agreement":
                raise MemoryError("solver ran out of memory")
            return sweep(table, costs, **kwargs)

        def failing_check(table, cost):
            if cost == 0.1:
                raise ValueError("effort check failed")
            return worthwhile(table, cost)

        monkeypatch.setattr(harness, "compute_payoff_table", failing_build)
        monkeypatch.setattr(harness, "compute_threshold_sweep", failing_sweep)
        monkeypatch.setattr(harness, "check_worthwhile_effort", failing_check)
        mechanisms = [{"kind": "peer_insensitive", "W": 1.0}, {"kind": "output_agreement"}, {"kind": "correlated_agreement"}]
        rows = run_experiment(parse_config(tiny_config_doc(mechanisms=mechanisms)))
        assert {(r.mechanism, r.effort_cost): r.error for r in rows} == {
            ("peer_insensitive", 0.0): "RuntimeError: table build failed",
            ("peer_insensitive", 0.1): "RuntimeError: table build failed",
            ("output_agreement", 0.0): "MemoryError: solver ran out of memory",
            ("output_agreement", 0.1): "ValueError: effort check failed",
            ("correlated_agreement", 0.0): "",
            ("correlated_agreement", 0.1): "ValueError: effort check failed",
        }
        assert swept == [("output_agreement", [0.0]), ("correlated_agreement", [0.0])]
        for failed in rows[:4] + rows[5:]:
            assert failed.p_ds is None and failed.grid is None and failed.utility_truthful_p0 is None
        monkeypatch.undo()
        clean = run_experiment(parse_config(tiny_config_doc(mechanisms=mechanisms)))
        assert rows[4].csv_record() == clean[4].csv_record()

    def test_library_costs_are_checked_per_row(self):
        # A config built in code skips the config reader; each row checks its own cost.
        specs = [MechanismSpec(MechanismKind.PEER_INSENSITIVE)]
        rows = run_experiment(ExperimentConfig([reference_environment()], specs, effort_costs=(-1.0, float("nan"), 0.1)))
        assert [r.error for r in rows] == [
            "InvalidDistribution: effort_cost must be finite and nonnegative, got -1.0",
            "InvalidDistribution: effort_cost must be finite and nonnegative, got nan",
            "",
        ]
        assert rows[0].p_ds is None and rows[0].worthwhile_effort is None
        assert rows[2].p_ds == pytest.approx(0.3125, abs=1e-9) and rows[2].worthwhile_effort

    def test_config_without_costs_gives_no_rows(self):
        config = parse_config(tiny_config_doc())
        config.effort_costs = ()
        assert run_experiment(config) == []

    def test_bundled_csv_bytes_are_pinned(self, tmp_path):
        # An intended change to the bundled output updates this pin and says why in CHANGES.md.
        rows = run_experiment(load_config(example_config_path()))
        data = emit_csv(rows, tmp_path / "results.csv").read_bytes()
        assert len(data) == 4969
        assert hashlib.sha256(data).hexdigest() == "0c9e290f64c34f1e99a240c55b9b80dbf0d766c438336429fe01ec7e9ad533a6"

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
            p_ds=0.5,
            p_pareto=0.1,
            grid=1e-3,
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
            p_ds="not_achievable",
            p_pareto="not_found",
            grid=1e-3,
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

    def test_row_json_round_trip(self):
        rows = run_experiment(parse_config(tiny_config_doc(sweeps={"effort_cost": [0.1], "p": [0.5]})))
        assert rows[0].utilities_at_p
        assert [ResultRow.from_json_dict(json.loads(json.dumps(r.to_json_dict()))) for r in rows] == rows

    def test_row_json_is_asdict_and_a_copy(self, tmp_path):
        # The same keys, order and values as dataclasses.asdict, so results.json keeps its bytes,
        # and nothing in it is shared with the row.
        doc = tiny_config_doc(sweeps={"effort_cost": [0.0, 0.1], "p": [0.25, 0.5]})
        rows = run_experiment(parse_config(doc)) + [ResultRow("e", "m", 0.0, error="ValueError: x")]
        expected = json.dumps([dataclasses.asdict(r) for r in rows], indent=2, sort_keys=True)
        assert emit_json(rows, tmp_path / "results.json").read_text() == expected
        for row in rows:
            before = dataclasses.asdict(row)
            got = row.to_json_dict()
            assert got == before and list(got) == list(before)
            for values in got["utilities_at_p"].values():
                values["truthful"] = None
            got["utilities_at_p"]["1.0"] = {}
            got["env_id"] = None
            assert dataclasses.asdict(row) == before

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

    @pytest.mark.parametrize(
        "content",
        [
            json.dumps(tiny_config_doc()).replace('"seed": 3', '"seed": 1' + "0" * 5000).encode(),
            b"\xff\xfe{}",
        ],
        ids=["int-past-digit-limit", "not-utf8"],
    )
    def test_validate_rejects_unreadable_json(self, tmp_path, capsys, content):
        # Neither is a JSONDecodeError: json.loads refuses an int literal of more than 4,300
        # digits with a plain ValueError, and reading non-UTF-8 bytes raises UnicodeDecodeError.
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert cli_main(["validate", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("invalid config: config did not parse as JSON: ")

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

    @pytest.mark.parametrize(
        "text",
        [
            '[{"env_id": "e1", "mechanism": "output_agreement", "effort_cost": 0.1}',
            '[{"env_id": "e1", "effort_cost": 0.1}]',
            '[{"env_id": "e1", "mechanism": "output_agreement"}]',
            "[3]",
        ],
        ids=["truncated", "no-mechanism", "no-effort-cost", "not-an-object"],
    )
    def test_report_rejects_a_bad_rows_file(self, tmp_path, capsys, text):
        rows = tmp_path / "rows.json"
        rows.write_text(text)
        assert cli_main(["report", "--rows", str(rows), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"invalid rows file {rows}: ")
        assert not (tmp_path / "out").exists()

    def test_unreadable_files_are_messages(self, tmp_path, capsys):
        """A directory where a file is read, or a file where the output directory goes, ends
        in the command's message and exit code 1, not a traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config_doc()))
        assert cli_main(["validate", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("invalid config: config file could not be read: ")
        assert cli_main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("invalid config: config file could not be read: ")
        for out in (cfg, cfg / "out"):  # a file, and a path under one
            assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("invalid config: output_dir: ")
        assert cli_main(["report", "--rows", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"invalid rows file {tmp_path}: ")
        assert not (tmp_path / "out").exists()
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        rows = tmp_path / "run" / "results.json"
        assert cli_main(["report", "--rows", str(rows), "--out", str(rows)]) == 1
        assert capsys.readouterr().err.startswith("[Errno ")


class TestGenerator:
    def test_channels_are_noisy_and_valid(self):
        for env in generate_environments(3, 5, seed=21, accuracy=(0.6, 0.95)):
            high = env.high_channel.matrix()
            assert np.all(np.diag(high) <= 0.95 + 1e-12)
            assert np.all(np.diag(high) >= 0.6 - 1e-12)
            assert np.allclose(env.low_channel.matrix(), 1.0 / 3.0)
