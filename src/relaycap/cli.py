"""Command-line front end: config-driven sweeps, cutoff tables, validation.

Configs are JSON with a strict schema (unknown keys are errors); the
full key reference is in the ``--help`` epilog.  Outputs are CSV or
JSON rows, deterministically ordered and formatted with 9 significant
digits, so repeated runs with the same config and seed are
byte-identical.  Exit codes: 0 success, 1 config error, 2 numerical
failure, 3 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import capacity
from .capacity import PolicySpec
from .errors import ConfigError, RelayCapError
from .fading import FadingModel, model_from_config
from .montecarlo import PolicyRequest, SimConfig, SimPoint, simulate
from .topology import (
    AllActive, EndToEndChannel, Selective, Serial, Topology, end_to_end,
    selective_cdf,
)

_CONFIG_HELP = """\
config file reference (JSON, unknown keys are errors):

  description        optional string echoed in reports
  topology           required mapping:
    kind             "serial" | "selective" | "all_active"
    hops             serial only: list of hop model mappings
    branches         selective/all_active: list of [model, model] pairs
    relays           template alternative: relay count N; serial builds
                     N+1 identical hops, branched kinds build N branches
    hop              the model template used with "relays"
    formula          selective only: "exact" (default) or
                     "marginal_product" (a known-inconsistent variant
                     kept for comparison studies)
    grid_points      all_active only: convolution grid size
    mass_tol         all_active only: tolerated probability-mass loss
  policies           list of mappings for capacity commands:
    name             "ora" | "opra" | "cifr" | "tcifr" | "effective"
    qos_delta        effective only: delay-QoS exponent product
    cutoff           tcifr only: fixed threshold; defaults to the
                     solved opra cutoff of the same sweep point
    prelog           optional pre-log factor in (0, 1], default 0.5
  snr_grid_db        list of dB values, or {"start","stop","step"};
                     each value lies in [-100, 100] dB and a range
                     holds at most 100000 points
  taus               outage/validate threshold list (sorted ascending)
  mc                 Monte Carlo settings:
    samples          draws per point, an integer >= 1000
    seed             stream seed, an unsigned 64-bit integer
    snr_db           optional validate-only SNR list (defaults to
                     snr_grid_db)
  output             optional {"path": ..., "format": "csv"|"json"};
                     --out/--format take precedence; validate writes
                     a text report and takes only "path"

hop model mappings carry "family" plus the family's parameters, e.g.
{"family": "gamma_gamma", "alpha": 2.9, "beta": 2.5, "xi": 1.1}.
Families: exponential, gamma, weibull, generalized_gamma,
weibull_gamma, gamma_gamma, double_generalized_gamma, malaga,
generic_h.  Per-hop mean SNR is set by the sweep grid as
10^(snr_db/10), uniformly across hops; a hop mapping that sets its
family's mean (mean_snr, mean_power or mean_irradiance) is an error.
"""

# Most points a {"start", "stop", "step"} range may expand to.
MAX_GRID_POINTS = 100_000
# Largest |dB| of a per-hop mean SNR.  At -100 and 100 dB,
# capacity-sweep with all five policies exits 0 with an empty stderr on
# one hop of each of the nine families and on the four shipped configs,
# in 0.1-0.7 s a point after the imports (2-core VM).  At -300 dB the
# opra cutoff falls below the solver's 1e-12 floor.  Past about 100 dB
# the cutoff may fall below the unit-law table and is then solved on its
# power-law tail, where no law is evaluated (the gamma_gamma density
# fails under e^-35): fig1_serial2's tcifr meets its cifr at 1000 dB.
SNR_DB_LIMIT = 100.0


def _fmt(x: float) -> str:
    return "%.9g" % float(x)


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def load_config(ref: str) -> dict:
    """Load a config by filesystem path or shipped-config name."""
    path = Path(ref)
    if path.exists():
        text = path.read_text(encoding="utf-8")
    else:
        name = ref if ref.endswith(".json") else f"{ref}.json"
        pkg = resources.files("relaycap").joinpath("configs", name)
        if not pkg.is_file():
            raise ConfigError(
                f"config {ref!r} is neither a file nor a shipped config"
            )
        text = pkg.read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, {"description", "topology", "policies", "snr_grid_db",
                      "taus", "mc", "output"}, "config")
    return cfg


def _hop_from_config(spec: dict) -> FadingModel:
    """A hop model whose mean is left to the sweep grid."""
    model = model_from_config(spec)
    if model._MEAN in spec:
        raise ConfigError(
            f"hop model sets {model._MEAN!r}; snr_grid_db sets the per-hop mean"
        )
    return model


def topology_from_config(block: dict) -> Topology:
    _check_keys(block, {"kind", "hops", "branches", "relays", "hop",
                        "formula", "grid_points", "mass_tol"}, "topology")
    kind = block.get("kind")
    if kind not in ("serial", "selective", "all_active"):
        raise ConfigError(
            "topology.kind must be 'serial', 'selective' or 'all_active'"
        )
    has_template = "relays" in block or "hop" in block
    explicit_key = "hops" if kind == "serial" else "branches"
    if has_template == (explicit_key in block):
        raise ConfigError(
            f"{kind} topology needs either '{explicit_key}' or "
            f"'relays' + 'hop', not both or neither"
        )
    if kind == "serial" and "branches" in block:
        raise ConfigError("serial topology takes 'hops', not 'branches'")
    if kind != "serial" and "hops" in block:
        raise ConfigError(f"{kind} topology takes 'branches', not 'hops'")
    if kind != "selective" and "formula" in block:
        raise ConfigError("'formula' applies to selective topologies only")
    if kind != "all_active" and (
            "grid_points" in block or "mass_tol" in block):
        raise ConfigError(
            "'grid_points'/'mass_tol' apply to all_active topologies only"
        )

    if has_template:
        if "relays" not in block or "hop" not in block:
            raise ConfigError("template form needs both 'relays' and 'hop'")
        relays = block["relays"]
        if isinstance(relays, bool) or not isinstance(relays, int) \
                or relays < 1:
            raise ConfigError("relays must be a positive integer")
        hop = _hop_from_config(block["hop"])
        if kind == "serial":
            hops = tuple([hop] * (relays + 1))
        else:
            branches = tuple([(hop, hop)] * relays)
    elif kind == "serial":
        raw = block["hops"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("topology.hops must be a nonempty list")
        hops = tuple(_hop_from_config(h) for h in raw)
    else:
        raw = block["branches"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("topology.branches must be a nonempty list")
        branches = []
        for i, pair in enumerate(raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(
                    f"branch {i} must be a [model, model] pair"
                )
            branches.append((_hop_from_config(pair[0]),
                             _hop_from_config(pair[1])))
        branches = tuple(branches)

    try:
        if kind == "serial":
            return Serial(hops=hops)
        if kind == "selective":
            return Selective(branches=branches,
                             formula=block.get("formula", "exact"))
        kwargs = {}
        if "grid_points" in block:
            kwargs["grid_points"] = int(block["grid_points"])
        if "mass_tol" in block:
            kwargs["mass_tol"] = float(block["mass_tol"])
        return AllActive(branches=branches, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def policies_from_config(cfg: dict) -> list[PolicySpec]:
    raw = cfg.get("policies")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config needs a nonempty 'policies' list")
    specs = []
    for i, block in enumerate(raw):
        _check_keys(block, {"name", "qos_delta", "cutoff", "prelog"},
                    f"policies[{i}]")
        if "name" not in block:
            raise ConfigError(f"policies[{i}] needs a 'name'")
        try:
            specs.append(PolicySpec(**block))
        except TypeError as exc:
            raise ConfigError(
                f"policies[{i}]: qos_delta, cutoff and prelog must be numbers"
            ) from exc
        except ValueError as exc:
            raise ConfigError(f"policies[{i}]: {exc}") from exc
    return specs


def grid_from_config(cfg: dict, key: str) -> list[float]:
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"config needs '{key}'")
    if isinstance(raw, dict):
        _check_keys(raw, {"start", "stop", "step"}, key)
        try:
            start, stop = float(raw["start"]), float(raw["stop"])
            step = float(raw["step"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{key} range needs numeric start/stop/step"
            ) from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"{key} range needs finite start/stop/step")
        if step <= 0.0 or stop < start:
            raise ConfigError(f"{key} range must have step > 0, stop >= start")
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID_POINTS:
            raise ConfigError(
                f"{key} range spans more than {MAX_GRID_POINTS} points")
        raw = [start + i * step for i in range(int(math.floor(span)) + 1)]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{key} must be a nonempty list or range mapping")
    return _finite_numbers(raw, key)


def _finite_numbers(raw: list, where: str) -> list[float]:
    try:
        values = [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must contain numbers") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{where} must contain finite numbers")
    return values


def _taus(cfg: dict) -> list[float]:
    """The outage thresholds, which must be sorted ascending."""
    taus = grid_from_config(cfg, "taus")
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ConfigError("taus must be sorted ascending")
    return taus


def _snr_points(values: list[float], where: str) -> list[float]:
    """dB values within ``SNR_DB_LIMIT`` of 0 dB."""
    for snr_db in values:
        if not abs(snr_db) <= SNR_DB_LIMIT:
            raise ConfigError(
                f"{where} value {_fmt(snr_db)} dB lies outside "
                f"[{_fmt(-SNR_DB_LIMIT)}, {_fmt(SNR_DB_LIMIT)}] dB")
    return values


def _snr_grid(cfg: dict) -> list[float]:
    return _snr_points(grid_from_config(cfg, "snr_grid_db"), "snr_grid_db")


def mc_from_config(cfg: dict, args) -> tuple[SimConfig, list[float] | None]:
    block = cfg.get("mc", {})
    _check_keys(block, {"samples", "seed", "snr_db"}, "mc")
    samples = args.samples if args.samples is not None else block.get("samples")
    seed = args.seed if args.seed is not None else block.get("seed")
    if samples is None or seed is None:
        raise ConfigError(
            "Monte Carlo needs 'mc': {'samples', 'seed'} in the config "
            "or --samples/--seed flags"
        )
    for name, value in (("samples", samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"mc.{name} must be an integer, got {value!r}")
    snr = block.get("snr_db")
    if snr is not None:
        if not isinstance(snr, list) or not snr:
            raise ConfigError("mc.snr_db must be a nonempty list")
        snr = _snr_points(_finite_numbers(snr, "mc.snr_db"), "mc.snr_db")
    try:
        return SimConfig(samples=samples, seed=seed), snr
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad mc settings: {exc}") from exc


def _mean_snr(snr_db: float) -> float:
    """Per-hop mean SNR of a grid point given in dB."""
    return 10.0 ** (snr_db / 10.0)


def _channel_factory(topology: Topology) -> Callable[[float], EndToEndChannel]:
    """Map a per-hop mean SNR to the topology's end-to-end channel.

    Every catalog law is a scale family in its mean SNR, so every
    topology's law is built once, at unit mean, on the first request
    and rescaled for every mean (see ``EndToEndChannel.scaled``); the
    rescaled channels share what is derived from the unit law, such as
    its inverse-SNR moment.  A failed build is not kept, so each
    request raises again.
    """
    unit = functools.cache(lambda: end_to_end(topology.with_mean_snr(1.0)))
    return lambda mean: unit().scaled(mean)


def _write(args, cfg: dict, text: str) -> None:
    out = args.out or cfg.get("output", {}).get("path")
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cell_csv(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _cell_json(v):
    # floats round-trip through the 9-digit format so both output
    # modes carry identical values
    return float(_fmt(v)) if isinstance(v, float) else v


def _table_text(args, cfg: dict, header: list[str], rows: list[list]) -> str:
    fmt = args.format or cfg.get("output", {}).get("format") or "csv"
    if fmt == "json":
        objs = [{k: _cell_json(v) for k, v in zip(header, row)}
                for row in rows]
        return json.dumps(objs, indent=2, sort_keys=True) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(_cell_csv(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _output_block_checked(cfg: dict) -> None:
    block = cfg.get("output", {})
    _check_keys(block, {"path", "format"}, "output")
    fmt = block.get("format")
    if fmt not in (None, "csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")


def cmd_capacity_sweep(args) -> int:
    cfg = load_config(args.config)
    _output_block_checked(cfg)
    topology = topology_from_config(cfg.get("topology", {}))
    specs = policies_from_config(cfg)
    grid = _snr_grid(cfg)
    rows = capacity.sweep(_channel_factory(topology), specs, grid)
    failures = [r for r in rows if r.error is not None]
    if failures:
        for r in failures:
            print(
                f"capacity-sweep failed at snr_db={_fmt(r.snr_db)} "
                f"policy={r.policy}: {r.error}",
                file=sys.stderr,
            )
        return 2
    rows = sorted(rows, key=lambda r: (r.snr_db, r.policy))
    table = [
        [r.snr_db, r.policy, r.result.capacity, r.result.quad_error,
         r.result.cutoff]
        for r in rows
    ]
    _write(args, cfg, _table_text(
        args, cfg,
        ["snr_db", "policy", "capacity_bits_per_hz", "quad_error", "cutoff"],
        table,
    ))
    return 0


def cmd_outage_sweep(args) -> int:
    cfg = load_config(args.config)
    _output_block_checked(cfg)
    topology = topology_from_config(cfg.get("topology", {}))
    grid = _snr_grid(cfg)
    taus = _taus(cfg)
    validate = bool(args.validate)
    if validate:
        sim_cfg, _ = mc_from_config(cfg, args)

    factory = _channel_factory(topology)
    curves = []
    for snr_db in grid:
        try:
            ch = factory(_mean_snr(snr_db))
            curves.append(np.asarray(ch.cdf(np.asarray(taus)), dtype=float))
        except RelayCapError as exc:
            raise RelayCapError(
                f"outage-sweep failed at snr_db={_fmt(snr_db)}: {exc}"
            ) from exc

    header = ["snr_db", "tau", "outage_probability"]
    table: list[list[str]] = []
    if validate:
        header += ["mc_estimate", "mc_std_error", "z_score"]
        reports = simulate(topology.with_mean_snr(1.0), sim_cfg, taus,
                           [SimPoint(scale=_mean_snr(s)) for s in grid],
                           jobs=args.jobs)
        for snr_db, probs, report in zip(grid, curves, reports):
            for p, (tau, est, se) in zip(probs, report.empirical_cdf):
                z = _z_score(float(p), est, se, sim_cfg.samples)
                table.append([snr_db, tau, float(p), est, se, z])
    else:
        for snr_db, probs in zip(grid, curves):
            for tau, p in zip(taus, probs):
                table.append([snr_db, tau, float(p)])
    _write(args, cfg, _table_text(args, cfg, header, table))
    return 0


def cmd_opra_cutoff(args) -> int:
    cfg = load_config(args.config)
    _output_block_checked(cfg)
    topology = topology_from_config(cfg.get("topology", {}))
    grid = _snr_grid(cfg)
    factory = _channel_factory(topology)
    table = []
    for snr_db in grid:
        try:
            solve = capacity.opra_cutoff_details(factory(_mean_snr(snr_db)))
        except RelayCapError as exc:
            raise RelayCapError(
                f"opra-cutoff failed at snr_db={_fmt(snr_db)}: {exc}"
            ) from exc
        if not 0.0 < solve.root <= 1.0:
            raise RelayCapError(
                f"opra-cutoff at snr_db={_fmt(snr_db)} left (0, 1]: "
                f"{solve.root}"
            )
        table.append([snr_db, solve.root, solve.iterations, solve.residual])
    _write(args, cfg, _table_text(
        args, cfg, ["snr_db", "gamma0", "iterations", "residual"], table,
    ))
    return 0


def _z_score(analytic: float, estimate: float, se: float, n: int) -> float:
    """z with a binomial floor from the analytic value, so an empty MC
    cell compares against the analytic rate instead of dividing by 0."""
    floor = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n)
    denom = max(se, floor)
    if denom == 0.0:
        return 0.0
    return (estimate - analytic) / denom


def _capacity_z(analytic: float, quad_err: float, estimate: float,
                se: float) -> float:
    denom = math.hypot(se, quad_err)
    if denom == 0.0:
        return 0.0 if estimate == analytic else math.inf
    return (estimate - analytic) / denom


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg.get("output", {}), {"path"}, "output")
    topology = topology_from_config(cfg.get("topology", {}))
    specs = policies_from_config(cfg)
    sim_cfg, val_snr = mc_from_config(cfg, args)
    snr_points = val_snr if val_snr is not None else _snr_grid(cfg)
    taus = _taus(cfg)

    lines: list[str] = []
    lines.append("relaycap validation report")
    desc = cfg.get("description")
    if desc:
        lines.append(f"config: {desc}")
    lines.append(
        f"samples per SNR point: {sim_cfg.samples}   seed: {sim_cfg.seed}"
    )
    lines.append(
        f"snr points (dB): {', '.join(_fmt(s) for s in snr_points)}"
    )
    lines.append(f"outage thresholds: {len(taus)} points in "
                 f"[{_fmt(taus[0])}, {_fmt(taus[-1])}]")

    # the analytic side first: its cutoffs feed the one simulation,
    # which draws every batch once and rescales it to each SNR point
    factory = _channel_factory(topology)
    channels: list[EndToEndChannel] = []
    analytics: list[dict[str, capacity.PolicyResult]] = []
    points: list[SimPoint] = []
    for snr_db in snr_points:
        mean = _mean_snr(snr_db)
        ch = factory(mean)
        analytic: dict[str, capacity.PolicyResult] = {}
        for spec in specs:
            analytic[spec.label] = capacity.evaluate(ch, spec)
        requests = [
            PolicyRequest(name=spec.name, prelog=spec.prelog,
                          qos_delta=spec.qos_delta,
                          cutoff=analytic[spec.label].cutoff)
            for spec in specs
        ]
        channels.append(ch)
        analytics.append(analytic)
        points.append(SimPoint(scale=mean, policies=requests))
    reports = simulate(topology.with_mean_snr(1.0), sim_cfg, taus, points,
                       jobs=args.jobs)

    offenders: list[str] = []
    comparisons = 0
    outages: list[np.ndarray] = []
    for snr_db, ch, analytic, point, report in zip(
            snr_points, channels, analytics, points, reports):
        lines.append("")
        lines.append(f"[snr {_fmt(snr_db)} dB] outage")
        lines.append("  tau          analytic     mc           se           z")
        probs = np.asarray(ch.cdf(np.asarray(taus)), dtype=float)
        outages.append(probs)
        for p, (tau, est, se) in zip(probs, report.empirical_cdf):
            z = _z_score(float(p), est, se, sim_cfg.samples)
            comparisons += 1
            if abs(z) > 3.0:
                offenders.append(
                    f"outage snr_db={_fmt(snr_db)} tau={_fmt(tau)} z={z:+.2f}"
                )
            lines.append(
                f"  {_fmt(tau):<12} {_fmt(p):<12} {_fmt(est):<12} "
                f"{_fmt(se):<12} {z:+.2f}"
            )

        lines.append(f"[snr {_fmt(snr_db)} dB] capacity")
        lines.append("  policy                 analytic     quad_err     "
                     "mc           se           z")
        for spec, req in zip(specs, point.policies):
            res = analytic[spec.label]
            est, se = report.capacity_estimates[req.label]
            mc_diag = report.diagnostics.get(req.label)
            if res.diagnostic and "divergent" in res.diagnostic:
                note = ("mc flags instability: ok" if mc_diag
                        else "mc did not flag instability")
                lines.append(
                    f"  {spec.label:<22} {_fmt(res.capacity):<12} "
                    f"divergent; {note}"
                )
                comparisons += 1
                if not mc_diag:
                    offenders.append(
                        f"capacity snr_db={_fmt(snr_db)} policy={spec.label} "
                        f"divergent analytically but MC saw a stable moment"
                    )
                continue
            if mc_diag:
                # a flagged moment estimate has no trustworthy standard
                # error, so a z-test against it would be noise
                lines.append(
                    f"  {spec.label:<22} {_fmt(res.capacity):<12} "
                    f"{_fmt(res.quad_error):<12} {_fmt(est):<12} "
                    f"unstable ({mc_diag}); z-test skipped"
                )
                continue
            z = _capacity_z(res.capacity, res.quad_error, est, se)
            comparisons += 1
            if abs(z) > 3.0:
                offenders.append(
                    f"capacity snr_db={_fmt(snr_db)} policy={spec.label} "
                    f"z={z:+.2f}"
                )
            lines.append(
                f"  {spec.label:<22} {_fmt(res.capacity):<12} "
                f"{_fmt(res.quad_error):<12} {_fmt(est):<12} {_fmt(se):<12} "
                f"{z:+.2f}"
            )

    if isinstance(topology, Selective):
        lines.append("")
        lines.append("selective combining comparison "
                     "(exact min-max law vs marginal-product variant)")
        lines.append("  snr_db       tau          exact        marginal     "
                     "mc           z_exact  z_marginal")
        # the outage table already holds the topology's own formula;
        # the other one is evaluated on the unit-mean law at tau / mean
        unit = topology.with_mean_snr(1.0)
        other = ("marginal_product" if topology.formula == "exact"
                 else "exact")
        for snr_db, probs, report in zip(snr_points, outages, reports):
            law = {topology.formula: probs, other: np.asarray(selective_cdf(
                unit.branches, np.asarray(taus) / _mean_snr(snr_db),
                formula=other), dtype=float)}
            for ex, mg, (tau, est, se) in zip(law["exact"],
                                              law["marginal_product"],
                                              report.empirical_cdf):
                z_ex = _z_score(float(ex), est, se, sim_cfg.samples)
                z_mg = _z_score(float(mg), est, se, sim_cfg.samples)
                lines.append(
                    f"  {_fmt(snr_db):<12} {_fmt(tau):<12} {_fmt(ex):<12} "
                    f"{_fmt(mg):<12} {_fmt(est):<12} {z_ex:+8.2f} {z_mg:+8.2f}"
                )

    lines.append("")
    expected_false = comparisons * 0.0027
    lines.append(
        f"comparisons: {comparisons}; at the 3-sigma level about "
        f"{_fmt(expected_false)} false alarms are expected by chance "
        f"(no multiplicity correction applied)"
    )
    if offenders:
        lines.append(f"result: FAIL ({len(offenders)} point(s) beyond 3 sigma)")
        lines.extend(f"  {o}" for o in offenders)
    else:
        lines.append("result: PASS (all comparisons within 3 sigma)")
    _write(args, cfg, "\n".join(lines) + "\n")
    return 3 if offenders else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Only the flags ``command`` reads: validate writes no table."""
    p.add_argument("--config", required=True,
                   help="config file path or shipped config name")
    p.add_argument("--out", help="output file (default: stdout)")
    if command != "validate":
        p.add_argument("--format", choices=("csv", "json"),
                       help="tabular output format (default csv)")
    if command in ("outage-sweep", "validate"):
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--samples", type=int, help="override mc.samples")
        p.add_argument("--jobs", type=_positive_int,
                       help="worker threads for Monte Carlo batches (>= 1)")
    if command == "outage-sweep":
        p.add_argument("--validate", action="store_true",
                       help="append Monte Carlo columns")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaycap",
        description=(
            "Outage and adaptive-transmission capacity of multihop "
            "relayed fading channels."
        ),
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "capacity-sweep": (cmd_capacity_sweep,
                           "capacity of each policy over the SNR grid"),
        "outage-sweep": (cmd_outage_sweep,
                         "outage probability over the SNR and tau grids"),
        "opra-cutoff": (cmd_opra_cutoff,
                        "solved power-adaptation cutoff over the SNR grid"),
        "validate": (cmd_validate,
                     "analytic vs Monte Carlo cross-check with z-scores"),
    }
    for name, (_, help_text) in commands.items():
        p = sub.add_parser(
            name, help=help_text, epilog=_CONFIG_HELP,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        _add_flags(p, name)
    args = parser.parse_args(argv)

    try:
        return commands[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RelayCapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
