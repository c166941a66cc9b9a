"""Per-function call counts and self time for the traced run.

:class:`Tracer` replaces each listed public function of ``qss`` with a
wrapper, in its own module and in every other module that imported the
name, and puts the originals back on :meth:`Tracer.uninstall`.  Self
time is a call's wall time minus the wall time of the wrapped calls
nested inside it, so the self times of one traced region add up to the
region's wall time.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> public functions reported per layer.
LAYERS = {
    "modes": ("linear_combine", "variance", "covariance", "new_vacuum", "new_squeezed",
              "draw_axes", "evaluate_quadrature"),
    "components": ("beam_splitter", "phase_shift", "displace", "homodyne", "loss", "lo_displace"),
    "protocols": ("dealer_encode", "orient_share3", "reconstruct_mz", "reconstruct_pia",
                  "reconstruct_two_opa", "reconstruct_single_ff", "reconstruct_double_ff",
                  "parametric_correction", "solve_single_ff_unity_gain", "make_report",
                  "secret_gains", "classical_bounds"),
    "metrics": ("metrics_report", "unity_corrected_fidelity", "fidelity_modes", "signal_transfer"),
    "harness": ("run", "build_pipeline", "region_boundary", "pareto_frontier", "oracle_check",
                "compare_mode_to_samples", "config_from_mapping", "load_config_file",
                "rows_to_csv", "result_to_json"),
    "cli": ("main",),
}


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _draw_axes_samples(args, kwargs) -> int:
    """Normal deviates requested by ``draw_axes(axes, n_shots, seed)``."""
    axes = args[0] if args else kwargs["axes"]
    n_shots = args[1] if len(args) > 1 else kwargs["n_shots"]
    return len(axes) * int(n_shots)


class Tracer:
    """Wraps functions; accumulates calls and self nanoseconds by name."""

    def __init__(self, package: str = "qss", layers: dict = LAYERS):
        self.package = package
        self.layers = layers
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.samples = 0
        self._child_ns: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self):
        """Zero every count in place; installed wrappers keep recording."""
        for counts in (self.calls, self.self_ns):
            counts.update(dict.fromkeys(counts, 0))
        self.samples = 0

    def _record(self, name: str, fn, extra=None):
        calls, self_ns, stack = self.calls, self.self_ns, self._child_ns
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra is not None:
                self.samples += extra(args, kwargs)
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_ns[name] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as a traced region named ``name``."""
        return self._record(name, fn)(*args, **kwargs)

    def install(self):
        """Wrap every listed function wherever the package binds it.  A
        listed function that no longer exists is skipped and reads 0 calls."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for mod_name, fns in self.layers.items():
            home = sys.modules.get(f"{self.package}.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                self.calls.setdefault(name, 0)
                self.self_ns.setdefault(name, 0)
                original = getattr(home, fn_name, None)
                if not callable(original):
                    continue
                extra = _draw_axes_samples if name == "modes.draw_axes" else None
                wrapper = self._record(name, original, extra)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
