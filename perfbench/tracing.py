"""Out-of-process-style tracing for the benchmark: spans and FFT counters.

Nothing here edits the solver.  Spans come from wrappers that replace, from
outside, the module attributes each layer calls through; FFT counts come from
wrappers on the ``numpy.fft`` / ``scipy.fft`` entry points.  The FFT wrappers
must be installed before ``nsmlimit`` is imported, so that a module doing
``from numpy.fft import fftn`` also binds the counting wrapper.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span (-1 at the root).  A span's self time is its duration minus
the time its direct children cover.  FFT calls are counted, not recorded as
spans: each call adds to the innermost open span ("self") and to every
distinct span name on the stack ("inclusive").
"""

from __future__ import annotations

import contextlib
import functools
import resource
import sys
import time
from collections import defaultdict

import numpy as np

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
_ONE_D = {"fft", "ifft", "rfft", "irfft", "hfft", "ihfft"}
_TWO_D = {"fft2", "ifft2", "rfft2", "irfft2"}

# (module, attribute, span name).  Module attributes are replaced wherever
# the same object is bound inside the ``nsmlimit`` package, so name imports
# (``from .harness import write_record`` in the CLI) are caught too.  A target
# that no longer exists is reported as a missing span.
SPAN_TARGETS = (
    ("nsmlimit.cli", "main", "cli.main"),
    ("nsmlimit.harness", "run_sweep", "harness.run_sweep"),
    ("nsmlimit.harness", "run_single", "harness.run_single"),
    ("nsmlimit.harness", "write_record", "harness.write_record"),
    ("nsmlimit.harness", "load_snapshots", "harness.load_snapshots"),
    ("nsmlimit.harness", "make_limit_data", "initdata.make_limit_data"),
    ("nsmlimit.harness", "make_well_prepared", "initdata.make_well_prepared"),
    ("nsmlimit.harness", "hypothesis_certificate", "initdata.hypothesis_certificate"),
    ("nsmlimit.harness", "build_stiff_operator", "integrator.build_stiff_operator"),
    ("nsmlimit.harness", "step_full", "integrator.step_full"),
    ("nsmlimit.harness", "step_limit", "integrator.step_limit"),
    ("nsmlimit.harness", "make_energy_ledger", "diagnostics.make_energy_ledger"),
    ("nsmlimit.integrator", "_full_rate", "model._full_rate"),
    ("nsmlimit.integrator", "_limit_rate", "model._limit_rate"),
    ("nsmlimit.integrator", "array_leray_project", "spectral.array_leray_project"),
    ("nsmlimit.integrator", "StiffLinearOperator.apply_half", "integrator.apply_half"),
    ("nsmlimit.integrator", "StiffLinearOperator.linear_rate", "integrator.linear_rate"),
    ("nsmlimit.diagnostics", "energy_identity_audit", "diagnostics.energy_identity_audit"),
)


def rebind(old, new) -> None:
    """Replace ``old`` by ``new`` wherever a module of the package binds it."""
    for name, module in list(sys.modules.items()):
        if name == "nsmlimit" or name.startswith("nsmlimit."):
            for key, value in list(vars(module).items()):
                if value is old:
                    setattr(module, key, new)


class SetupTimer:
    """Set-up time of every ``run_single`` call: from its entry to its first
    ``step_full`` call (initial data, certificate, first ledger row and both
    stiff operators).  ``run_single`` is wrapped wherever the package binds
    it; on entry it puts a one-shot probe in place of ``harness.step_full``
    that takes the time and restores the original, so the steps themselves
    run unwrapped.  Raises AttributeError if either name is gone."""

    def __init__(self):
        import nsmlimit.harness as harness

        self.samples: list[float] = []
        run_single, step_full = harness.run_single, harness.step_full

        def first_step(*args, **kwargs):
            self.samples.append(time.perf_counter() - self._entry)
            harness.step_full = step_full
            return step_full(*args, **kwargs)

        @functools.wraps(run_single)
        def timed_run_single(*args, **kwargs):
            self._entry = time.perf_counter()
            harness.step_full = first_step
            try:
                return run_single(*args, **kwargs)
            finally:
                harness.step_full = step_full

        rebind(run_single, timed_run_single)


def current_rss_bytes() -> int:
    """Resident set size of this process now (not the peak)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    return pages * resource.getpagesize()


class FftCounter:
    """Counts calls, scalar transforms and computed bytes per FFT entry point."""

    def __init__(self):
        self.tracer = None  # set by Tracer; counting happens only while active
        self.installed: list[str] = []

    def install(self) -> None:
        import numpy.fft

        modules = [("numpy.fft", numpy.fft)]
        try:
            import scipy.fft

            modules.append(("scipy.fft", scipy.fft))
        except ImportError:
            pass
        for mod_name, mod in modules:
            for fn_name in FFT_NAMES:
                fn = getattr(mod, fn_name, None)
                if fn is None or getattr(fn, "_perfbench_wrapped", False):
                    continue
                setattr(mod, fn_name, self._wrap(fn, fn_name))
                self.installed.append(f"{mod_name}.{fn_name}")

    def _wrap(self, fn, fn_name):
        counter = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = counter.tracer
            if tracer is None or not tracer.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            a = args[0] if args else kwargs.get("a", kwargs.get("x"))
            in_bytes = getattr(a, "nbytes", 0)
            tracer.count_fft(_transforms(fn_name, out, args, kwargs),
                             in_bytes + out.nbytes, elapsed)
            return out

        wrapper._perfbench_wrapped = True
        return wrapper


def _transforms(fn_name: str, out: np.ndarray, args: tuple, kwargs: dict) -> int:
    """Number of independent transforms in one call: output size over the
    size of one transform (the product of the transformed axes)."""
    ndim = out.ndim
    if fn_name in _ONE_D:
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        axes = (axis,)
    else:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            s = kwargs.get("s", args[1] if len(args) > 1 else None)
            if fn_name in _TWO_D:
                axes = (-2, -1)
            elif s is not None:
                axes = tuple(range(-len(s), 0))
            else:
                axes = tuple(range(ndim))
    per = 1
    for ax in axes:
        per *= out.shape[ax % ndim]
    return out.size // per if per else 0


class Tracer:
    """Span recorder plus per-span-name FFT counters."""

    def __init__(self, fft_counter: FftCounter | None = None):
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[tuple[int, str]] = []
        self.fft_self = defaultdict(lambda: [0, 0, 0, 0.0])   # calls, transforms, bytes, s
        self.fft_incl = defaultdict(lambda: [0, 0, 0, 0.0])
        self.fft_total = [0, 0, 0, 0.0]
        self.missing: list[str] = []
        self.op_bytes: list[int] = []
        self.bytes_written: list[int] = []
        self.load_rss_delta: list[int] = []
        self.load_held: list[int] = []
        self.audit_snapshots: list[int] = []
        self.hook_errors: list[str] = []
        if fft_counter is not None:
            fft_counter.tracer = self

    # -- recording -------------------------------------------------------

    def count_fft(self, transforms: int, nbytes: int, seconds: float) -> None:
        inner = self._stack[-1][1] if self._stack else "(root)"
        accs = [self.fft_total, self.fft_self[inner]]
        accs += [self.fft_incl[name] for name in {name for _, name in self._stack}]
        for acc in accs:
            acc[0] += 1
            acc[1] += transforms
            acc[2] += nbytes
            acc[3] += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's own root spans)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append((idx, name))
        return idx

    def _close(self, idx: int) -> None:
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    # -- installing span wrappers -----------------------------------------

    def install_spans(self, targets=SPAN_TARGETS) -> None:
        for mod_name, attr, span_name in targets:
            mod = sys.modules.get(mod_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = mod
            if mod is not None and owner_name:
                owner = getattr(mod, owner_name, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None or not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, span_name)
            if owner_name:
                setattr(owner, leaf, wrapper)
            else:
                rebind(fn, wrapper)

    def _wrap(self, fn, span_name: str):
        tracer = self
        hook = _HOOKS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rss0 = current_rss_bytes() if span_name == "harness.load_snapshots" else 0
            idx = tracer._open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                try:
                    hook(tracer, out, rss0)
                except (AttributeError, TypeError, ValueError, OSError):
                    tracer.hook_errors.append(span_name)
            return out

        return wrapper

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> np.ndarray:
        return np.array([end - start for n, start, end, _ in self.spans if n == name])

    def self_times(self) -> np.ndarray:
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return np.array([end - start for _, start, end, _ in self.spans]) - child

    def summary(self) -> dict:
        """Per span name: count, total, self total, p50 and p99 duration."""
        selfs = self.self_times()
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, _, _, _) in enumerate(self.spans):
            by_name[name].append(i)
        out = {}
        for name, idxs in sorted(by_name.items()):
            d = np.array([self.spans[i][2] - self.spans[i][1] for i in idxs])
            out[name] = {
                "count": len(idxs),
                "total_s": float(d.sum()),
                "self_s": float(selfs[idxs].sum()),
                "p50_s": float(np.percentile(d, 50)),
                "p99_s": float(np.percentile(d, 99)),
                "fft_self": fft_dict(self.fft_self.get(name)),
                "fft_inclusive": fft_dict(self.fft_incl.get(name)),
            }
        return out

    def layer_self_seconds(self) -> dict:
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += float(selfs[i])
        return dict(out)


def fft_dict(acc) -> dict:
    calls, transforms, nbytes, seconds = acc if acc is not None else (0, 0, 0, 0.0)
    return {"calls": calls, "transforms": transforms, "bytes": nbytes, "seconds": seconds}


# Counters taken at span boundaries from the wrapped call's result.

def _op_hook(tracer: Tracer, op, _rss0) -> None:
    tracer.op_bytes.append(
        sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray))
    )


def _write_hook(tracer: Tracer, paths, _rss0) -> None:
    tracer.bytes_written.append(sum(p.stat().st_size for p in paths.values() if p.exists()))


def _load_hook(tracer: Tracer, result, rss0) -> None:
    # measured while the loaded snapshots are still referenced by the caller
    tracer.load_rss_delta.append(current_rss_bytes() - rss0)
    tracer.load_held.append(held_bytes(result[1]))


def held_bytes(snapshots) -> int:
    """Bytes of the whole arrays that the snapshots' field values keep alive:
    each value is followed through ``.base`` to the array that owns its
    data, and each such array is counted once (computed, not measured)."""
    owners = {}
    for _, full, limit in snapshots:
        for state in (full, limit):
            for fld in vars(state).values():
                a = fld.values
                while isinstance(a.base, np.ndarray):
                    a = a.base
                owners[id(a)] = a.nbytes
    return sum(owners.values())


def _audit_hook(tracer: Tracer, report, _rss0) -> None:
    tracer.audit_snapshots.append(len(report.times) + 2)  # interior points + ends


_HOOKS = {
    "integrator.build_stiff_operator": _op_hook,
    "harness.write_record": _write_hook,
    "harness.load_snapshots": _load_hook,
    "diagnostics.energy_identity_audit": _audit_hook,
}


# ---------------------------------------------------------------------------
# per-layer metrics

LAYER_UNITS = {
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_transforms_per_step": "count",
    "spectral.fft_bytes_per_step": "B",
    "spectral.fft_share": "share",
    "spectral.leray_ms": "ms",
    "model.full_rate_ms": "ms",
    "model.limit_rate_ms": "ms",
    "model.rate_share": "share",
    "integrator.build_op_s": "s",
    "integrator.op_bytes": "B",
    "integrator.step_full_ms_p50": "ms",
    "integrator.step_full_ms_p99": "ms",
    "integrator.step_limit_ms_p50": "ms",
    "integrator.step_limit_ms_p99": "ms",
    "integrator.apply_half_ms": "ms",
    "integrator.linear_rate_ms": "ms",
    "integrator.limit_share": "share",
    "initdata.limit_data_s": "s",
    "initdata.well_prepared_s": "s",
    "initdata.certificate_s": "s",
    "diagnostics.ledger_row_ms": "ms",
    "diagnostics.ledger_share": "share",
    "diagnostics.audit_snapshot_ms": "ms",
    "diagnostics.audit_s": "s",
    "harness.write_record_s": "s",
    "harness.bytes_written": "B",
    "harness.load_snapshots_s": "s",
    "harness.load_held_mb": "MB",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _pct(values, q: float, scale: float = 1.0) -> float:
    """Percentile of a list (0.0 when the span never occurred)."""
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, unit_wall: float, untraced_wall: float,
                  import_s: float) -> tuple[dict, dict]:
    """The per-layer metrics of one traced unit (plus its read-back probe).

    Per-step FFT figures count the calls made inside step_full and
    step_limit, per paired step.  Shares are of the traced unit's wall time.
    """
    d = tracer.durations
    steps = len(d("integrator.step_full"))
    step_fft = [a + b for a, b in zip(tracer.fft_incl.get("integrator.step_full", [0] * 4),
                                      tracer.fft_incl.get("integrator.step_limit", [0] * 4))]
    full_t = d("integrator.step_full").sum()
    limit_t = d("integrator.step_limit").sum()
    audit = d("diagnostics.energy_identity_audit")
    metrics = {
        "spectral.fft_calls_per_step": _ratio(step_fft[0], steps),
        "spectral.fft_transforms_per_step": _ratio(step_fft[1], steps),
        "spectral.fft_bytes_per_step": _ratio(step_fft[2], steps),
        "spectral.fft_share": _ratio(tracer.fft_incl.get("bench.unit", [0] * 4)[3], unit_wall),
        "spectral.leray_ms": _pct(d("spectral.array_leray_project"), 50, 1e3),
        "model.full_rate_ms": _pct(d("model._full_rate"), 50, 1e3),
        "model.limit_rate_ms": _pct(d("model._limit_rate"), 50, 1e3),
        "model.rate_share": _ratio(d("model._full_rate").sum() + d("model._limit_rate").sum(),
                                   unit_wall),
        "integrator.build_op_s": _pct(d("integrator.build_stiff_operator"), 50),
        "integrator.op_bytes": _pct(tracer.op_bytes, 50),
        "integrator.step_full_ms_p50": _pct(d("integrator.step_full"), 50, 1e3),
        "integrator.step_full_ms_p99": _pct(d("integrator.step_full"), 99, 1e3),
        "integrator.step_limit_ms_p50": _pct(d("integrator.step_limit"), 50, 1e3),
        "integrator.step_limit_ms_p99": _pct(d("integrator.step_limit"), 99, 1e3),
        "integrator.apply_half_ms": _pct(d("integrator.apply_half"), 50, 1e3),
        "integrator.linear_rate_ms": _pct(d("integrator.linear_rate"), 50, 1e3),
        "integrator.limit_share": _ratio(limit_t, full_t + limit_t),
        "initdata.limit_data_s": _pct(d("initdata.make_limit_data"), 50),
        "initdata.well_prepared_s": _pct(d("initdata.make_well_prepared"), 50),
        "initdata.certificate_s": _pct(d("initdata.hypothesis_certificate"), 50),
        "diagnostics.ledger_row_ms": _pct(d("diagnostics.make_energy_ledger"), 50, 1e3),
        "diagnostics.ledger_share": _ratio(d("diagnostics.make_energy_ledger").sum(), unit_wall),
        "diagnostics.audit_snapshot_ms": _ratio(audit.sum() * 1e3, sum(tracer.audit_snapshots)),
        "diagnostics.audit_s": _pct(audit, 50),
        "harness.write_record_s": _pct(d("harness.write_record"), 50),
        "harness.bytes_written": float(sum(tracer.bytes_written)),
        "harness.load_snapshots_s": _pct(d("harness.load_snapshots"), 50),
        "harness.load_held_mb": _pct(tracer.load_held, 50) / (1 << 20),
        "cli.import_s": import_s,
        "trace.overhead_ratio": _ratio(unit_wall, untraced_wall),
    }
    return metrics, dict(LAYER_UNITS)
