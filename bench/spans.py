"""Outside-in tracer: spans and counters around relaycap's public calls.

Nothing under ``src/`` changes.  The tracer replaces each traced
function with a wrapper under every name a relaycap module binds it to
(``cli`` imports ``end_to_end`` and ``simulate`` by name, ``capacity``
imports ``integrate`` and ``integrate_semi_infinite``, ``fading``
imports ``integrate_semi_infinite``), so a call is seen wherever its
caller looks it up.  Fading laws are traced on their classes.

Each wrapper opens a span on the main thread: start, end, parent.  A
layer's self time is the span's duration minus the time its child
spans cover, so the self times of all layers plus the time no span
covers add up to the traced wall time.  Calls from worker threads run
untraced; their time lands in the span of the main-thread call that
waits for them.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "capacity", "topology", "fading", "foxh", "quadrature",
          "montecarlo")
POLICY_FUNCTIONS = ("ora", "effective", "cifr", "tcifr")


class _Frame:
    __slots__ = ("bucket", "child_s")

    def __init__(self, bucket: str | None):
        self.bucket = bucket
        self.child_s = 0.0


class Tracer:
    """Span stack, per-layer self times and per-layer counters."""

    def __init__(self):
        self._thread = threading.get_ident()
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._open_channels = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.bucket_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0

    def reset(self) -> None:
        """Zero all times and counts (the hooks keep their references)."""
        self.self_s.clear()
        self.bucket_s.clear()
        self.counts.clear()
        self.covered_s = 0.0

    # -- span machinery -------------------------------------------------

    def _wrap(self, fn, layer, *, bucket=None, on_return=None,
              channel=False):
        """Wrap ``fn`` in a span of ``layer``.

        ``bucket`` names the capacity policy the time belongs to; an
        empty string ends the enclosing bucket.  ``on_return(args,
        kwargs, result, duration)`` records counts after the call.
        """
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._stack
            inherited = stack[-1].bucket if stack else None
            frame = _Frame(inherited if bucket is None else bucket)
            stack.append(frame)
            tracer._open_channels += channel
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._open_channels -= channel
                stack.pop()
                own = duration - frame.child_s
                tracer.self_s[layer] += own
                if frame.bucket:
                    tracer.bucket_s[frame.bucket] += own
                if stack:
                    stack[-1].child_s += duration
                else:
                    tracer.covered_s += duration
            if on_return is not None:
                on_return(args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, on_call):
        """Wrap ``fn`` with a counter only (no span, no timing)."""
        def counted(*args, **kwargs):
            if threading.get_ident() == self._thread:
                on_call(args, kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, modules, original, wrapper) -> None:
        """Point every module-level name bound to ``original`` at ``wrapper``."""
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from relaycap import (  # noqa: F401  (imports register the modules)
            capacity, cli, fading, foxh, montecarlo, quadrature, topology,
        )
        import relaycap

        modules = (relaycap, cli, capacity, topology, fading, foxh,
                   quadrature, montecarlo)
        count = self.counts

        def bound(fn, args, kwargs):
            ba = inspect.signature(fn).bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        # cli: the whole command is one span; its self time is parsing,
        # config handling and formatting.
        self._rebind(modules, cli.main, self._wrap(cli.main, "cli"))

        # capacity: public entries and the four public policy functions.
        # Time inside an entry but outside the policy functions (the
        # cutoff solve and the opra integrals) is booked to "opra".
        def cutoff_evals(results):
            for r in results:
                if getattr(r, "iterations", None) is not None:
                    count["capacity.cutoff_evals"] += r.iterations

        def after_sweep(args, kwargs, rows, _):
            cutoff_evals(row.result for row in rows)

        def after_evaluate(args, kwargs, result, _):
            cutoff_evals([result])

        entries = {"sweep": after_sweep, "evaluate": after_evaluate,
                   "opra": after_evaluate, "opra_cutoff_details":
                   after_evaluate, "opra_cutoff": None}
        for name, hook in entries.items():
            fn = getattr(capacity, name)
            self._rebind(modules, fn, self._wrap(
                fn, "capacity", bucket="opra", on_return=hook))
        for name in POLICY_FUNCTIONS:
            fn = getattr(capacity, name)
            self._rebind(modules, fn, self._wrap(fn, "capacity", bucket=name))

        # topology: channel builds and the composition laws.  The
        # channel a build returns gets traced cdf/pdf, so hop-law calls
        # can be charged to the channel evaluation that made them.
        def channel_eval(args, kwargs, result, _):
            count["topology.channel_evals"] += 1

        def after_build(args, kwargs, ch, duration):
            count["topology.build_s"] += duration

        build = topology.end_to_end

        def end_to_end(*args, **kwargs):
            ch = build(*args, **kwargs)
            if threading.get_ident() != self._thread:
                return ch
            return dataclasses.replace(
                ch,
                cdf=self._wrap(ch.cdf, "topology", channel=True,
                               on_return=channel_eval),
                pdf=self._wrap(ch.pdf, "topology", channel=True,
                               on_return=channel_eval),
            )

        self._rebind(modules, build, self._wrap(
            end_to_end, "topology", bucket="", on_return=after_build))
        for name in ("serial_cdf", "serial_pdf", "branch_cdf", "branch_pdf",
                     "selective_cdf", "selective_pdf"):
            fn = getattr(topology, name)
            self._rebind(modules, fn, self._wrap(fn, "topology"))

        # fading: pdf/cdf of every hop law, counted with their arguments.
        def hop_call(kind):
            def hook(args, kwargs, result, _):
                count[f"fading.{kind}_calls"] += 1
                count["fading.args"] += int(np.size(args[1]))
                if self._open_channels:
                    count["topology.hop_evals_in_channels"] += 1
            return hook

        for cls in vars(fading).values():
            if (isinstance(cls, type) and issubclass(cls, fading.FadingModel)
                    and cls is not fading.FadingModel):
                for kind in ("pdf", "cdf"):
                    if kind in vars(cls):
                        self._set(cls, kind, self._wrap(
                            vars(cls)[kind], "fading",
                            on_return=hop_call(kind)))

        # the normalization check runs once per shape, during set-up
        def after_norm(args, kwargs, result, duration):
            count["setup.norm_check_s"] += duration

        self._set(fading.FadingModel, "_verify_normalized", self._wrap(
            fading.FadingModel._verify_normalized, "fading",
            on_return=after_norm))

        # foxh: contour evaluations; each trapezoid refinement level is
        # one dense nodes x arguments sum.
        contour = foxh.mellin_barnes

        def after_mb(args, kwargs, result, _):
            count["foxh.calls"] += 1
            count["foxh.args"] += int(np.size(bound(contour, args, kwargs)["x"]))

        def level(args, kwargs):
            w, t, ln_x = args
            count["foxh.levels"] += 1
            count["foxh.node_args"] += int(np.size(t)) * int(np.size(ln_x))

        self._rebind(modules, contour, self._wrap(
            contour, "foxh", on_return=after_mb))
        self._set(foxh, "_oscillatory_sums",
                  self._counter(foxh._oscillatory_sums, level))

        # quadrature: integrate is the core every wrapper calls.  A call
        # whose error exceeds its own budget stopped at max_panels.
        core = quadrature.integrate

        def after_integrate(args, kwargs, result, _):
            count["quadrature.calls"] += 1
            a = bound(core, args, kwargs)
            value, err = result
            if err > max(a["abs_tol"], a["rel_tol"] * abs(value)):
                count["quadrature.budget_hits"] += 1

        def panels(args, kwargs):
            count["quadrature.panels"] += int(np.size(args[1]))

        self._rebind(modules, core, self._wrap(
            core, "quadrature", on_return=after_integrate))
        semi = quadrature.integrate_semi_infinite
        self._rebind(modules, semi, self._wrap(semi, "quadrature"))
        self._set(quadrature, "_panel_estimates",
                  self._counter(quadrature._panel_estimates, panels))

        # montecarlo: one span per simulation; draws are per hop.
        def after_simulate(args, kwargs, report, duration):
            a = bound(simulate, args, kwargs)
            count["montecarlo.draws"] += (
                a["cfg"].samples * len(a["topology"].flat_hops()))
            count["montecarlo.simulate_s"] += duration

        simulate = montecarlo.simulate
        self._rebind(modules, simulate, self._wrap(
            simulate, "montecarlo", on_return=after_simulate))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced command taking ``wall_s``."""
        c = self.counts
        out: dict[str, float] = {}
        calls = c["foxh.calls"]
        out["foxh.calls"] = calls
        out["foxh.args_per_call"] = c["foxh.args"] / calls if calls else 0.0
        out["foxh.levels"] = c["foxh.levels"]
        out["foxh.node_args"] = c["foxh.node_args"]
        out["quadrature.calls"] = c["quadrature.calls"]
        out["quadrature.panels"] = c["quadrature.panels"]
        out["quadrature.budget_hits"] = c["quadrature.budget_hits"]
        out["fading.cdf_calls"] = c["fading.cdf_calls"]
        out["fading.pdf_calls"] = c["fading.pdf_calls"]
        out["fading.args"] = c["fading.args"]
        out["topology.build_s"] = c["topology.build_s"]
        out["topology.channel_evals"] = c["topology.channel_evals"]
        ch = c["topology.channel_evals"]
        out["topology.hop_evals_per_channel_eval"] = (
            c["topology.hop_evals_in_channels"] / ch if ch else 0.0)
        out["capacity.cutoff_evals"] = c["capacity.cutoff_evals"]
        for policy in POLICY_FUNCTIONS + ("opra",):
            out[f"capacity.{policy}_s"] = self.bucket_s[policy]
        sim = c["montecarlo.simulate_s"]
        out["montecarlo.simulate_s"] = sim
        out["montecarlo.draws"] = c["montecarlo.draws"]
        out["montecarlo.draws_per_s"] = c["montecarlo.draws"] / sim if sim else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["trace.wall_s"] = wall_s
        out["trace.uncovered_s"] = wall_s - self.covered_s
        return out
