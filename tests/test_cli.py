"""Command-line interface: exit codes, golden values, byte stability."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from relaycap import capacity, cli, fading, topology
from relaycap.errors import ConfigError, RelayCapError
from relaycap.quadrature import quantile_search

# Exp(1), prelog 1/2 closed forms (see test_capacity.py)
ORA_EXP1 = 0.43017369113544296
OPRA_EXP1 = 0.5142694626797389
OPRA_CUTOFF_EXP1 = 0.39377384504511836
EFFECTIVE_EXP1_D1 = 0.38760796109766565

TINY = {
    "description": "single Rayleigh-power hop, three policies",
    "topology": {"kind": "serial", "hops": [{"family": "exponential"}]},
    "policies": [
        {"name": "ora"},
        {"name": "opra"},
        {"name": "effective", "qos_delta": 1.0},
    ],
    "snr_grid_db": [0.0, 10.0],
    "taus": [0.5, 1.0, 2.0],
    "mc": {"samples": 50000, "seed": 11, "snr_db": [0.0]},
}

MARGINAL = {
    "topology": {
        "kind": "selective",
        "formula": "marginal_product",
        "branches": [[{"family": "exponential"}, {"family": "exponential"}]],
    },
    "policies": [{"name": "ora"}],
    "snr_grid_db": [0.0],
    "taus": [1.0],
    "mc": {"samples": 200000, "seed": 3, "snr_db": [0.0]},
}

GRIDFAIL = {
    "topology": {
        "kind": "all_active",
        "branches": [
            [{"family": "exponential"}, {"family": "exponential"}],
            [{"family": "exponential"}, {"family": "exponential"}],
        ],
        "grid_points": 4096,
        "mass_tol": 1e-12,
    },
    "policies": [{"name": "ora"}],
    "snr_grid_db": [0.0],
    "taus": [1.0],
    "mc": {"samples": 2000, "seed": 1},
}


# two branches of two Exp hops on a small grid, three SNR points
ALLACTIVE = {
    "topology": {
        "kind": "all_active",
        "relays": 2,
        "hop": {"family": "exponential"},
        "grid_points": 4096,
    },
    "policies": [{"name": "ora"}],
    "snr_grid_db": [0.0, 10.0, 20.0],
    "taus": [0.1, 1.0, 10.0],
    "mc": {"samples": 20000, "seed": 5},
}

MALAGA_HOP = {"family": "malaga", "alpha": 2.296, "beta": 1.822,
              "omega_prime": 1.3265, "b0": 0.1079, "rho": 0.596,
              "series_terms": 320}

GENERIC_H_HOP = {"family": "generic_h", "kappa": 1.0, "delta": 1.0,
                 "h": {"m": 1, "n": 0, "lower": [[0.0, 1.0]]}}

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return cli.main(argv)


class TestConfigLoading:
    def test_shipped_configs_resolve_by_name(self):
        for name in ("fig1_serial2", "fig1_selective3", "fig2_malaga",
                     "fig3_dgg"):
            cfg = cli.load_config(name)
            assert "topology" in cfg and "policies" in cfg

    def test_missing_file(self, tmp_path, capsys):
        assert run(["capacity-sweep", "--config",
                    str(tmp_path / "nope.json")]) == 1
        assert "neither a file nor a shipped config" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = dict(TINY)
        cfg["typo_key"] = True
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["capacity-sweep", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_serial_needs_exactly_one_hop_spelling(self, tmp_path):
        cfg = json.loads(json.dumps(TINY))
        cfg["topology"]["relays"] = 1
        cfg["topology"]["hop"] = {"family": "exponential"}
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1

    def test_unsorted_taus(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["taus"] = [2.0, 1.0]
        assert run(["outage-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1

    def test_unsorted_taus_in_validate(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["taus"] = [2.0, 1.0]
        assert run(["validate", "--config",
                    write_config(tmp_path, cfg)]) == 1
        assert "taus must be sorted ascending" in capsys.readouterr().err

    def test_grid_range_form(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["snr_grid_db"] = {"start": 0.0, "stop": 10.0, "step": 5.0}
        cfg["policies"] = [{"name": "ora"}]
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "5", "10"]

    def test_unknown_policy_key(self, tmp_path):
        cfg = json.loads(json.dumps(TINY))
        cfg["policies"] = [{"name": "ora", "cutof": 1.0}]
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1


class TestConfigValues:
    """Bad values in a well-formed config exit 1 with a config error."""

    @pytest.mark.parametrize("policy", [
        {"name": "ora", "prelog": "half"},
        {"name": "effective", "qos_delta": "one"},
        {"name": "tcifr", "cutoff": [1.0]},
    ])
    def test_non_numeric_policy_value(self, policy, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["policies"] = [policy]
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1
        assert "config error: policies[0]" in capsys.readouterr().err

    def test_non_numeric_mc_snr_point(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["mc"]["snr_db"] = [0.0, "high"]
        assert run(["validate", "--config", write_config(tmp_path, cfg)]) == 1
        assert "config error: mc.snr_db" in capsys.readouterr().err

    @pytest.mark.parametrize("topo", [
        {"kind": "serial", "hops": [{"family": "exponential",
                                     "mean_snr": 100}]},
        {"kind": "serial", "relays": 1,
         "hop": {"family": "weibull_gamma", "weibull_shape": 2.0,
                 "gamma_shape": 3.0, "mean_power": 100}},
        {"kind": "selective", "branches": [[
            {"family": "exponential"},
            dict(MALAGA_HOP, mean_irradiance=100)]]},
    ], ids=["mean_snr", "mean_power", "mean_irradiance"])
    def test_hop_mean_left_to_the_grid(self, topo, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["topology"] = topo
        assert run(["outage-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1
        assert "snr_grid_db sets the per-hop mean" in capsys.readouterr().err


    @pytest.mark.parametrize("key,value", [
        ("samples", 2000.7), ("samples", 2000.0), ("samples", "2000"),
        ("samples", True), ("seed", True), ("seed", 3.9),
    ])
    def test_mc_counts_must_be_integers(self, key, value, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["mc"][key] = value
        assert run(["outage-sweep", "--validate", "--config",
                    write_config(tmp_path, cfg)]) == 1
        assert f"config error: mc.{key} must be an integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["validate", "--samples", "10"],
        ["outage-sweep", "--validate", "--samples", "10"],
        ["validate", "--samples", "999"],
    ])
    def test_too_few_samples_is_a_config_error(self, argv, tmp_path, capsys):
        # the --help epilog states the bound as a config rule
        assert run(argv + ["--config", write_config(tmp_path, TINY)]) == 1
        err = capsys.readouterr().err
        assert "config error: bad mc settings: need at least 1000 samples" \
            in err
        assert "numerical failure" not in err

    def test_too_few_samples_in_the_config(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["mc"]["samples"] = 10
        assert run(["validate", "--config", write_config(tmp_path, cfg)]) == 1
        assert "need at least 1000 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("family", [["gamma"], {"name": "gamma"}],
                             ids=["list", "mapping"])
    def test_non_string_family(self, family, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["topology"]["hops"] = [{"family": family}]
        assert run(["outage-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1
        assert "config error: unknown fading family" in capsys.readouterr().err

    @pytest.mark.parametrize("hop", [
        {"family": "gamma", "shape": True},
        {"family": "gamma_gamma", "alpha": 2.9, "beta": 2.5, "xi": 1.1,
         "detection_order": True},
        {"family": "double_generalized_gamma", "alpha1": 2.1, "alpha2": 1.0,
         "m1": 2.0, "m2": 1.5, "detection_order": True},
    ], ids=["shape", "gamma_gamma_order", "dgg_order"])
    def test_boolean_is_not_a_number(self, hop, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["topology"]["hops"] = [hop]
        assert run(["outage-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1
        assert "config error: bad parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["serial", "selective", "all_active"])
    @pytest.mark.parametrize("relays", [True, False])
    def test_boolean_relay_count(self, kind, relays, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["topology"] = {"kind": kind, "relays": relays,
                           "hop": {"family": "exponential"}}
        assert run(["outage-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1
        assert "config error: relays must be a positive integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command,path,value", [
        ("capacity-sweep", ("snr_grid_db",),
         {"start": 0.0, "stop": math.inf, "step": 1.0}),
        ("capacity-sweep", ("snr_grid_db",),
         {"start": 0.0, "stop": 10.0, "step": math.nan}),
        ("capacity-sweep", ("snr_grid_db",), [math.nan]),
        ("capacity-sweep", ("snr_grid_db",), [-4000.0]),
        ("capacity-sweep", ("snr_grid_db",), [4000.0]),
        ("validate", ("mc", "snr_db"), [math.nan]),
        ("validate", ("mc", "snr_db"), [4000.0]),
        ("outage-sweep", ("taus",), [math.nan, 1.0]),
        ("capacity-sweep", ("snr_grid_db",),
         {"start": -1.7e308, "stop": 1.7e308, "step": 1.0}),
        ("capacity-sweep", ("snr_grid_db",),
         {"start": 0.0, "stop": 1e9, "step": 1e-9}),
        ("outage-sweep", ("taus",),
         {"start": 0.0, "stop": 1e6, "step": 1.0}),
    ], ids=["range_stop_inf", "range_step_nan", "snr_nan", "snr_zero_mean",
            "snr_overflow", "mc_snr_nan", "mc_snr_overflow", "tau_nan",
            "range_span_overflow", "range_huge_count", "tau_range_count"])
    def test_bad_grid_value(self, command, path, value, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        assert run([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command,path,value", [
        ("capacity-sweep", ("snr_grid_db",), [True, "5"]),
        ("outage-sweep", ("taus",), [True, "2"]),
        ("capacity-sweep", ("snr_grid_db",),
         {"start": "0", "stop": True, "step": "1"}),
        ("outage-sweep", ("taus",), {"start": 0.5, "stop": 2.0, "step": True}),
        ("validate", ("mc", "snr_db"), [False]),
    ], ids=["snr_bool_string", "tau_bool_string", "range_strings_bool",
            "range_step_bool", "mc_snr_bool"])
    def test_booleans_and_strings_are_not_grid_values(
            self, command, path, value, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        assert run([command, "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "finite number, got " in err

    def test_range_point_bound(self):
        limit = cli.MAX_GRID_POINTS
        cfg = {"taus": {"start": 0.0, "stop": limit - 1.0, "step": 1.0}}
        assert len(cli.grid_from_config(cfg, "taus")) == limit
        cfg["taus"]["stop"] = float(limit)
        with pytest.raises(ConfigError, match=f"more than {limit} points"):
            cli.grid_from_config(cfg, "taus")

    @pytest.mark.parametrize("snr_db", [-3200.0, -3000.0, 3000.0,
                                        cli.SNR_DB_LIMIT + 0.5])
    def test_snr_outside_the_stated_range(self, snr_db, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["snr_grid_db"] = [0.0, snr_db]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["capacity-sweep", "--config",
                        write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: snr_grid_db value {snr_db:.9g} dB "
                       f"lies outside [-100, 100] dB\n")

    # the mixing-grid families once stopped 1.1e-12 short of CDF 1,
    # which broke ora's integral from about -40 dB down
    @pytest.mark.parametrize("hop", [
        {"family": "exponential"},
        {"family": "weibull_gamma", "weibull_shape": 2.0, "gamma_shape": 3.0},
        {"family": "double_generalized_gamma", "alpha1": 2.1, "alpha2": 1.0,
         "m1": 2.0, "m2": 1.5},
    ], ids=["exponential", "weibull_gamma", "dgg"])
    def test_snr_range_ends_run_clean(self, hop, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["topology"]["hops"] = [hop]
        cfg["snr_grid_db"] = [-cli.SNR_DB_LIMIT, cli.SNR_DB_LIMIT]
        cfg["policies"].append({"name": "cifr"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["capacity-sweep", "--config",
                        write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_validate_takes_no_output_format(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["output"] = {"format": "json"}
        assert run(["validate", "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'format'" in err

    @pytest.mark.parametrize("hop,message", [
        # to_h divides by Gamma(200)^2, beyond the float range
        ({"family": "gamma_gamma", "alpha": 200, "beta": 200, "xi": 1.1},
         "lgamma(alpha) + lgamma(beta) must be a finite number in "
         "(-inf, 709.782712893384], got 1715.8"),
        # the second factor's mixing grid cannot take this shape
        ({"family": "double_generalized_gamma", "alpha1": 2.0,
          "alpha2": 1.0, "m1": 2.0, "m2": 0.005}, "math domain error"),
    ])
    def test_hop_the_law_cannot_hold_fails_at_build(self, hop, message,
                                                    tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["topology"] = {"kind": "serial", "hops": [hop]}
        assert run(["outage-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err


# an integer beta ignores series_terms, so a value past the cap stays
# cheap to build even where the cap is not checked
MALAGA_INT_BETA = dict(MALAGA_HOP, beta=2.0)
MAX_BINS = topology.AllActive.MAX_GRID_POINTS
MAX_TERMS = fading.Malaga.MAX_SERIES_TERMS


class TestNumericRules:
    """Every numeric parameter is a finite number of its stated range
    (an integer where it counts), never a boolean, at construction."""

    @pytest.mark.parametrize("policy", [
        {"name": "ora", "prelog": True},
        {"name": "effective", "qos_delta": True},
        {"name": "tcifr", "cutoff": True},
        {"name": "effective", "qos_delta": math.inf},
        {"name": "tcifr", "cutoff": math.inf},
    ], ids=["prelog_true", "qos_delta_true", "cutoff_true", "qos_delta_inf",
            "cutoff_inf"])
    def test_policy_values(self, policy):
        with pytest.raises(ConfigError, match=r"^policies\[0\]: "):
            cli.policies_from_config({"policies": [policy]})

    @pytest.mark.parametrize("key,value", [
        ("grid_points", 4096.7), ("grid_points", "4096"),
        ("grid_points", None), ("grid_points", MAX_BINS + 1),
        ("mass_tol", True), ("mass_tol", math.nan), ("mass_tol", -1),
        ("mass_tol", [1]),
    ], ids=["bins_fraction", "bins_string", "bins_null", "bins_past_cap",
            "tol_true", "tol_nan", "tol_negative", "tol_list"])
    def test_all_active_values(self, key, value):
        block = dict(ALLACTIVE["topology"], **{key: value})
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            cli.topology_from_config(block)

    def test_largest_grid_is_accepted(self):
        block = dict(ALLACTIVE["topology"], grid_points=MAX_BINS)
        assert cli.topology_from_config(block).grid_points == MAX_BINS

    @pytest.mark.parametrize("key,value", [
        ("omega_prime", True), ("omega_prime", math.nan),
        ("series_terms", True), ("series_terms", 40.5),
        ("series_terms", MAX_TERMS + 1),
    ], ids=["omega_true", "omega_nan", "terms_true", "terms_fraction",
            "terms_past_cap"])
    def test_malaga_values(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be "):
            fading.model_from_config(dict(MALAGA_INT_BETA, **{key: value}))

    @pytest.mark.parametrize("path,value", [
        (("policies", 0, "cutoff"), True),
        (("policies", 0, "qos_delta"), math.inf),
        (("topology", "grid_points"), None),
        (("topology", "mass_tol"), math.nan),
        (("topology", "hop", "omega_prime"), math.nan),
    ], ids=["cutoff_true", "qos_delta_inf", "bins_null", "tol_nan",
            "omega_nan"])
    def test_cli_exits_one(self, path, value, tmp_path, capsys):
        cfg = json.loads(json.dumps(ALLACTIVE))
        cfg["policies"] = [{"name": "tcifr", "cutoff": 1.0}
                           if path[-1] == "cutoff" else
                           {"name": "effective", "qos_delta": 1.0}]
        cfg["topology"]["hop"] = dict(MALAGA_HOP)
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"{path[-1]} must be " in err and "Traceback" not in err


class TestCapacitySweep:
    def test_golden_values(self, tmp_path, capsys):
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, TINY)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "snr_db,policy,capacity_bits_per_hz,quad_error,cutoff"
        cells = {}
        for line in lines[1:]:
            snr, policy, cap, err, cut = line.split(",")
            cells[(snr, policy)] = (float(cap), cut)
        assert cells[("0", "ora")][0] == pytest.approx(ORA_EXP1, abs=1e-8)
        assert cells[("0", "opra")][0] == pytest.approx(OPRA_EXP1, abs=1e-8)
        assert cells[("0", "effective[delta=1]")][0] == pytest.approx(
            EFFECTIVE_EXP1_D1, abs=1e-8)
        assert float(cells[("0", "opra")][1]) == pytest.approx(
            OPRA_CUTOFF_EXP1, abs=1e-8)
        assert cells[("0", "ora")][1] == ""  # no cutoff column for ora

    def test_rows_sorted_by_snr_then_policy(self, tmp_path, capsys):
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, TINY)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        keys = [(float(r.split(",")[0]), r.split(",")[1]) for r in rows]
        assert keys == sorted(keys)

    def test_json_format_is_typed(self, tmp_path, capsys):
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, TINY), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list) and len(rows) == 6
        first = rows[0]
        assert isinstance(first["capacity_bits_per_hz"], float)
        assert first["cutoff"] is None or isinstance(first["cutoff"], float)

    def test_output_file_and_byte_stability(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["capacity-sweep", "--config", cfg, "--out",
                    str(out1)]) == 0
        assert run(["capacity-sweep", "--config", cfg, "--out",
                    str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_failure_exits_two(self, tmp_path, capsys):
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, GRIDFAIL)]) == 2
        err = capsys.readouterr().err
        assert "capacity-sweep failed at snr_db=0" in err
        assert "grid_points" in err


class TestOutageSweep:
    def test_closed_form_outage(self, tmp_path, capsys):
        assert run(["outage-sweep", "--config",
                    write_config(tmp_path, TINY)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "snr_db,tau,outage_probability"
        got = {}
        for line in lines[1:]:
            snr, tau, p = line.split(",")
            got[(float(snr), float(tau))] = float(p)
        for snr, mean in ((0.0, 1.0), (10.0, 10.0)):
            for tau in (0.5, 1.0, 2.0):
                want = 1.0 - math.exp(-tau / mean)
                assert got[(snr, tau)] == pytest.approx(want, abs=1e-8)

    def test_validate_flag_appends_mc_columns(self, tmp_path, capsys):
        assert run(["outage-sweep", "--config", write_config(tmp_path, TINY),
                    "--validate", "--samples", "20000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith(",mc_estimate,mc_std_error,z_score")
        for line in lines[1:]:
            z = float(line.split(",")[-1])
            assert abs(z) < 4.0

    def test_small_exponent_gamma_gamma_validates(self, tmp_path, capsys):
        # P = xi^2 / r = 0.125; a quadrature of its density read 0.98721,
        # and construction refused this valid law
        cfg = json.loads(json.dumps(TINY))
        cfg["topology"] = {"kind": "serial", "hops": [{
            "family": "gamma_gamma", "alpha": 2, "beta": 1.5, "xi": 0.5,
            "detection_order": 2}]}
        cfg["taus"] = [0.01, 0.1, 1.0, 10.0]
        assert run(["outage-sweep", "--config", write_config(tmp_path, cfg),
                    "--validate", "--seed", "7", "--samples", "200000"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 2 * 4
        for line in lines[1:]:
            assert abs(float(line.split(",")[-1])) < 4.0


class TestOpraCutoff:
    def test_roots_and_residuals(self, tmp_path, capsys):
        assert run(["opra-cutoff", "--config",
                    write_config(tmp_path, TINY)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "snr_db,gamma0,iterations,residual"
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][1]) == pytest.approx(OPRA_CUTOFF_EXP1, abs=1e-8)
        for _, gamma0, iters, residual in rows:
            assert 0.0 < float(gamma0) <= 1.0
            assert int(iters) > 0
            assert abs(float(residual)) <= 1e-10


class TestValidate:
    def test_passing_report(self, tmp_path, capsys):
        assert run(["validate", "--config",
                    write_config(tmp_path, TINY)]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "z" in out and "comparisons:" in out

    def test_seed_override_changes_estimates(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["validate", "--config", cfg, "--out", str(a)]) == 0
        assert run(["validate", "--config", cfg, "--out", str(b),
                    "--seed", "99"]) == 0
        assert a.read_text() != b.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["validate", "--config", cfg, "--out", str(a)]) == 0
        assert run(["validate", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_marginal_product_fails_arbitration(self, tmp_path, capsys):
        assert run(["validate", "--config",
                    write_config(tmp_path, MARGINAL)]) == 3
        out = capsys.readouterr().out
        assert "selective combining comparison" in out
        assert "result: FAIL" in out

    @pytest.mark.parametrize("formula", ["exact", "marginal_product"])
    def test_selective_comparison_columns(self, formula, tmp_path, capsys):
        # one branch of two Exp(1) hops: exact 1 - e^(-2 tau / mean),
        # marginal product (1 - e^(-tau / mean))^2
        cfg = json.loads(json.dumps(MARGINAL))
        cfg["topology"]["formula"] = formula
        cfg["mc"] = {"samples": 2000, "seed": 3, "snr_db": [0.0, 10.0]}
        cfg["taus"] = [0.5, 2.0]
        run(["validate", "--config", write_config(tmp_path, cfg)])
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("selective combining comparison "
                            "(exact min-max law vs marginal-product variant)")
        rows = [line.split() for line in lines[start + 2:start + 6]]
        outage = [line.split() for line in lines
                  if line.startswith("  0.5 ") or line.startswith("  2 ")]
        column = 2 if formula == "exact" else 3
        for row, table in zip(rows, outage):
            snr_db, tau, exact, marginal = map(float, row[:4])
            x = tau / 10.0 ** (snr_db / 10.0)
            assert exact == pytest.approx(-math.expm1(-2.0 * x), rel=1e-8)
            assert marginal == pytest.approx(math.expm1(-x) ** 2, rel=1e-8)
            # the topology's own formula is the outage table's column
            assert row[column] == table[1]

    @pytest.mark.parametrize("top", [
        {"kind": "selective", "relays": 3, "hop": GENERIC_H_HOP},
        {"kind": "serial", "hops": [GENERIC_H_HOP] * 3},
    ], ids=["selective_relays", "serial_spelled_out"])
    def test_equal_generic_h_hops_build_one_inverse_grid(
            self, top, tmp_path, monkeypatch):
        grid = fading.GenericH.__dict__["_inverse_grid"]
        builds = []
        build = grid.func

        def counted(hop):
            builds.append(hop)
            return build(hop)

        monkeypatch.setattr(grid, "func", counted)
        cfg = dict(TINY, topology=top, mc={"samples": 2000, "seed": 1})
        assert run(["validate", "--config", write_config(tmp_path, cfg),
                    "--out", os.devnull]) == 0
        assert len(builds) == 1

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        assert run(["validate", "--config",
                    write_config(tmp_path, GRIDFAIL)]) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3", "abc"])
    def test_jobs_below_one_rejected_at_parsing(self, jobs, tmp_path,
                                                 capsys):
        with pytest.raises(SystemExit) as exc:
            run(["validate", "--config", write_config(tmp_path, TINY),
                 "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestFlags:
    """A subcommand rejects the flags it would not read."""

    @pytest.mark.parametrize("argv", [
        ["capacity-sweep", "--seed", "1"],
        ["opra-cutoff", "--jobs", "2"],
        ["validate", "--format", "json"],
    ])
    def test_unread_flag_rejected_at_parsing(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--config", write_config(tmp_path, TINY)])
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err


class TestAllActiveSweep:
    """A command builds the all-active grid once, at unit mean."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = topology._all_active_channel

        def counted(topo):
            built.append(topo)
            return build(topo)

        monkeypatch.setattr(topology, "_all_active_channel", counted)
        return built

    @pytest.mark.parametrize("command", [
        "capacity-sweep", "opra-cutoff", "outage-sweep", "validate",
    ])
    def test_grid_built_once_per_command(self, command, builds, tmp_path):
        assert run([command, "--config",
                    write_config(tmp_path, ALLACTIVE)]) == 0
        assert len(builds) == 1

    def test_rescaled_law_matches_fresh_build(self):
        topo = cli.topology_from_config(ALLACTIVE["topology"])
        factory = cli._channel_factory(topo)
        for snr_db in ALLACTIVE["snr_grid_db"]:
            mean = 10.0 ** (snr_db / 10.0)
            fresh = topology.end_to_end(topo.with_mean_snr(mean))
            got = factory(mean)
            ts = np.linspace(
                0.0, quantile_search(fresh.cdf, 1.0 - 1e-6, start=mean), 257)
            assert np.max(np.abs(got.cdf(ts) - fresh.cdf(ts))) \
                <= topo.mass_tol
            assert got.resolution_error == pytest.approx(
                fresh.resolution_error, abs=topo.mass_tol)

    def test_failed_build_fails_every_snr_point(self, builds, tmp_path,
                                                capsys):
        cfg = json.loads(json.dumps(GRIDFAIL))
        cfg["snr_grid_db"] = [0.0, 10.0, 20.0]
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("capacity-sweep failed at") == 3
        assert "snr_db=20" in err and err.count("grid_points") == 3
        assert len(builds) == 3
        assert run(["outage-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 2
        assert "outage-sweep failed at snr_db=0" in capsys.readouterr().err


# Gamma(2) hops have a finite inverse-SNR moment in every topology
GAMMA2 = {"family": "gamma", "shape": 2.0}
UNIT_MEAN_TOPOLOGIES = {
    "serial": {"kind": "serial", "relays": 1, "hop": GAMMA2},
    "selective": {"kind": "selective", "relays": 2, "hop": GAMMA2},
    "all_active": {"kind": "all_active", "relays": 2, "hop": GAMMA2,
                   "grid_points": 4096},
}


def unit_mean_config(kind, policies=("cifr",), points=7):
    cfg = json.loads(json.dumps(TINY))
    cfg["topology"] = json.loads(json.dumps(UNIT_MEAN_TOPOLOGIES[kind]))
    cfg["policies"] = [{"name": p} for p in policies]
    cfg["snr_grid_db"] = [5.0 * i for i in range(points)]
    return cfg


class TestUnitMeanChannels:
    """Every topology's law is built once per command, at unit mean, and
    tabulated once for the whole sweep, inverse-SNR moment included."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = cli.end_to_end

        def counted(topo):
            built.append(topo)
            return build(topo)

        monkeypatch.setattr(cli, "end_to_end", counted)
        return built

    @pytest.fixture
    def tables(self, monkeypatch):
        tabulated = []
        table = capacity._Table

        def counted(ch):
            tabulated.append(ch)
            return table(ch)

        monkeypatch.setattr(capacity, "_Table", counted)
        return tabulated

    @pytest.mark.parametrize("command", [
        "capacity-sweep", "opra-cutoff", "outage-sweep"])
    @pytest.mark.parametrize("kind", ["serial", "selective"])
    def test_law_built_once_at_unit_mean(self, kind, command, builds,
                                         tmp_path):
        cfg = unit_mean_config(kind, policies=("ora",), points=3)
        assert run([command, "--config", write_config(tmp_path, cfg)]) == 0
        assert len(builds) == 1
        assert {h.mean for h in builds[0].flat_hops()} == {1.0}

    @pytest.mark.parametrize("kind", sorted(UNIT_MEAN_TOPOLOGIES))
    def test_seven_point_sweep_tabulates_once(self, kind, tables, tmp_path,
                                              capsys):
        cfg = unit_mean_config(kind)
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 7
        assert len(tables) == 1
        assert tables[0].unit is None

    def test_divergent_moment_flagged_at_every_point(self, tables):
        topo = cli.topology_from_config(
            {"kind": "serial", "hops": [{"family": "exponential"}]})
        rows = capacity.sweep(cli._channel_factory(topo), ["cifr"],
                              [5.0 * i for i in range(7)])
        assert len(rows) == 7
        for row in rows:
            assert row.result.capacity == 0.0
            assert row.result.diagnostic == "divergent inverse-SNR moment"
        assert len(tables) == 1

    @pytest.mark.parametrize("kind", ["serial", "selective"])
    def test_failed_build_fails_every_snr_point(self, kind, monkeypatch,
                                                tmp_path, capsys):
        attempts = []

        def failing(topo):
            attempts.append(topo)
            raise RelayCapError("no law at unit mean")

        monkeypatch.setattr(cli, "end_to_end", failing)
        cfg = unit_mean_config(kind, policies=("ora", "cifr"), points=3)
        assert run(["capacity-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("no law at unit mean") == 6
        assert "snr_db=10 policy=cifr" in err
        assert len(attempts) == 3
        assert run(["outage-sweep", "--config",
                    write_config(tmp_path, cfg)]) == 2
        assert "outage-sweep failed at snr_db=0" in capsys.readouterr().err


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0

    def test_subcommand_help_documents_every_config_key(self, capsys):
        with pytest.raises(SystemExit):
            run(["capacity-sweep", "--help"])
        text = capsys.readouterr().out
        for key in ("description", "topology", "kind", "hops", "branches",
                    "relays", "hop", "formula", "grid_points", "mass_tol",
                    "policies", "qos_delta", "cutoff", "prelog",
                    "snr_grid_db", "taus", "samples", "seed", "snr_db",
                    "output", "format"):
            assert key in text, key
        assert f"at most {cli.MAX_GRID_POINTS} points" in text
        assert f"[16, {MAX_BINS}]" in text and f"[1, {MAX_TERMS}]" in text
        limit = f"{cli.SNR_DB_LIMIT:g}"
        assert f"[-{limit}, {limit}] dB" in text


class TestStartup:
    """The CLI loads numpy and the package alone: scipy (scipy.special
    and scipy.fft pull in numpy.f2py, numpy.ma and numpy.testing) about
    triples the import time.  Only generalized-Gamma laws at non-integer
    shapes, or integer shapes above ``fading._ERLANG_MAX_SHAPE``, import
    scipy.special, for their incomplete gamma functions, when a model is
    built; every shipped command runs without scipy."""

    @staticmethod
    def fresh(code: str) -> str:
        """Stdout of ``code`` run in a fresh interpreter on this source."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        got = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert got.returncode == 0, got.stderr
        return got.stdout.strip()

    def test_outage_path_imports_no_signal_or_stats(self):
        # the CLI import and an all-active grid build load no scipy module
        # at all, scipy.signal and scipy.stats included
        code = (
            "import sys\n"
            "from relaycap import cli\n"
            "topo = cli.topology_from_config("
            "cli.load_config('fig2_malaga')['topology'])\n"
            "cli._channel_factory(topo)(1.0).cdf(1.0)\n"
            "print(sorted(m for m in sys.modules if m == 'scipy'"
            " or m.startswith('scipy.')))\n"
        )
        assert self.fresh(code) == "[]"

    def test_integer_shape_laws_leave_scipy_unloaded(self):
        # at integer shape the incomplete gamma functions of the
        # generalized-Gamma laws and of both factors of the product laws
        # have Erlang closed forms; shape 1 is -expm1(-z)
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from relaycap.fading import model_from_config\n"
            "for spec in ({'family': 'exponential', 'mean_snr': 2.0},\n"
            "             {'family': 'weibull', 'shape': 1.7},\n"
            "             {'family': 'generalized_gamma', 'shape': 1.0,\n"
            "              'power': 1.3},\n"
            "             {'family': 'gamma', 'shape': 3.0},\n"
            "             {'family': 'generalized_gamma', 'shape': 2.0,\n"
            "              'power': 0.7},\n"
            "             {'family': 'double_generalized_gamma',\n"
            "              'alpha1': 2.5, 'alpha2': 1.2,\n"
            "              'm1': 2.0, 'm2': 3.0},\n"
            "             {'family': 'weibull_gamma', 'weibull_shape': 1.4,\n"
            "              'gamma_shape': 2.0}):\n"
            "    hop = model_from_config(spec)\n"
            "    hop.pdf([0.5, 2.0]), hop.cdf([0.5, 2.0])\n"
            "    hop.sample(np.random.default_rng(1), 10)\n"
            "print('scipy.special' in sys.modules)\n"
        )
        assert self.fresh(code) == "False"

    @pytest.mark.parametrize("command,config", [
        ("capacity-sweep", "fig1_selective3"),
        ("outage-sweep", "fig2_malaga"),
        ("capacity-sweep", "fig3_dgg"),
        ("outage-sweep", "fig3_dgg"),
        ("opra-cutoff", "fig3_dgg"),
        ("validate", "fig3_dgg"),
    ])
    def test_shipped_command_leaves_scipy_unloaded(self, command, config):
        code = (
            "import contextlib, io, sys\n"
            "from relaycap import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main([{command!r}, '--config', {config!r}])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        assert self.fresh(code) == "0 False"


class TestProgrammaticHelpers:
    def test_topology_from_config_rejects_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            cli.topology_from_config({"kind": "mesh", "hops": []})

    def test_policies_from_config_round_trip(self):
        specs = cli.policies_from_config(
            {"policies": [{"name": "effective", "qos_delta": 2.0},
                          {"name": "ora"}]}
        )
        assert [s.label for s in specs] == ["effective[delta=2]", "ora"]


class TestShippedOutputs:
    """CSV output of shipped configs, byte for byte.

    A change to an evaluation path that is not meant to move numbers
    must leave these files matching; the slower Malaga commands are left
    out to keep the suite fast, except the all-active outage sweep below.
    """

    @pytest.mark.parametrize("command,config", [
        ("outage-sweep", "fig1_serial2"),
        ("outage-sweep", "fig1_selective3"),
        ("outage-sweep", "fig3_dgg"),
        ("opra-cutoff", "fig3_dgg"),
    ])
    def test_bytes_match_recording(self, command, config, capsys):
        assert run([command, "--config", config]) == 0
        want = (GOLDEN / f"{command}.{config}.csv").read_bytes()
        assert capsys.readouterr().out.encode() == want

    def test_fig2_malaga_outage_within_grid_tolerance(self, capsys):
        # The grid law is rescaled from unit mean, which moves the last
        # printed digit, so rows are compared by the grid's mass
        # tolerance, 1e-8 relative and the print rounding of both sides.
        assert run(["outage-sweep", "--config", "fig2_malaga"]) == 0
        got = capsys.readouterr().out.splitlines()
        want = (GOLDEN / "outage-sweep.fig2_malaga.csv").read_text(
            ).splitlines()
        assert got[0] == want[0] and len(got) == len(want)
        mass_tol = cli.topology_from_config(
            cli.load_config("fig2_malaga")["topology"]).mass_tol
        for new, ref in zip(got[1:], want[1:]):
            key_new, p_new = new.rsplit(",", 1)
            key_ref, p_ref = ref.rsplit(",", 1)
            assert key_new == key_ref
            p_new, p_ref = float(p_new), float(p_ref)
            allowed = (mass_tol + 1e-8 * abs(p_ref)
                       + _print_rounding(p_new) + _print_rounding(p_ref))
            assert abs(p_new - p_ref) <= allowed, (new, ref)


def _print_rounding(v: float) -> float:
    """Half a unit in the 9th significant digit of a printed value."""
    if v == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 8)


def _bench_module(name: str):
    """A module of bench/, loaded from its file (and registered, which
    its dataclasses need)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestBenchmarkOutputs:
    """Each benchmark workload's command, run in-process at the default
    seed, passes the benchmark's own output check (bench/check.py)
    against its recording in bench/reference/, with no failed
    operation: a change that moves a number out of that check's
    tolerance fails here, not only in a benchmark run."""

    workloads = _bench_module("workloads")
    check = _bench_module("check")

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_no_failed_operations(self, name, capsys):
        workload = self.workloads.WORKLOADS[name]
        code = run(workload.argv(self.workloads.DEFAULT_SEED))
        out = capsys.readouterr().out
        reference = BENCH / "reference" / f"{name}.txt"
        got = self.check.check(workload, out, code,
                               reference.read_text(encoding="utf-8"))
        assert got.attempted > 0
        assert got.failed == 0, got.problems
