"""Span tracing for the benchmark, applied from outside the package.

``install`` replaces public nvisc functions with timing wrappers at every
name they are bound under (``nvisc.psb.convolve`` is the same object as
``nvisc.gridfn.convolve``, and both are wrapped).  A target that no longer
exists is skipped and listed in ``Tracer.missing``; it then records zero
calls.  Wrappers record only while an op is open, so set-up and the
correctness checks between ops leave no spans.  Spans stay in memory as
lists ``[name, op, parent, start, end, qty]``, where ``parent`` is the
index of the enclosing span and ``qty`` a per-call size (grid nodes or
bytes) for the targets that define one.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _nodes(result, args):
    return result.size


def _convolve_bytes(result, args):
    # two operands read, one result written; computed from array sizes
    return 8 * (args[0].size + args[1].size + result.size)


# (module, attribute path, span name, per-call quantity)
TARGETS = [
    ("nvisc.cli", "main", "cli.main", None),
    ("nvisc.cli", "load_config", "cli.config", None),
    ("nvisc.gridfn", "read_csv", "io.read", None),
    ("nvisc.gridfn", "IntervalSet.from_csv", "io.read", None),
    ("nvisc.mixing", "MixSeries.from_csv", "io.read", None),
    ("nvisc.inference", "LifetimeSeries.from_csv", "io.read", None),
    ("nvisc.inference", "LifetimeCurves.from_csv", "io.read", None),
    ("nvisc.gridfn", "write_csv", "io.write", None),
    ("nvisc.gridfn", "IntervalSet.to_csv", "io.write", None),
    ("nvisc.mixing", "MixSeries.to_csv", "io.write", None),
    ("nvisc.inference", "LifetimeSeries.to_csv", "io.write", None),
    ("nvisc.inference", "LifetimeCurves.to_csv", "io.write", None),
    ("nvisc.psb", "PsbModel.from_manifest", "psb.load", None),
    ("nvisc.psb", "PsbModel.from_overlap", "psb.load", None),
    ("nvisc.psb", "extract_one_phonon", "psb.extract", None),
    ("nvisc.psb", "PsbModel.calibrated_overlap", "psb.overlap_lookup", None),
    ("nvisc.psb", "thermal_overlap", "psb.overlap", _nodes),
    ("nvisc.psb", "forward_sideband", "psb.forward", None),
    ("nvisc.psb", "PsbModel.roundtrip_residual", "psb.forward", None),
    ("nvisc.gridfn", "convolve", "gridfn.convolve", _convolve_bytes),
    ("nvisc.gridfn", "GridFunction.sample", "gridfn.sample", None),
    ("nvisc.rates", "gamma_a1", "rates.a1", None),
    ("nvisc.rates", "gamma_e12_lowT", "rates.e12_lowt", None),
    ("nvisc.rates", "e12_a1_ratio", "rates.e12_lowt", None),
    ("nvisc.rates", "gamma_e12_finiteT", "rates.e12_finite", None),
    ("nvisc.rates", "gamma_e12_spectral", "rates.e12_spectral", None),
    ("nvisc.mixing", "alpha_const", "mixing.alpha", None),
    ("nvisc.mixing", "gamma_mix", "mixing.rate", None),
    ("nvisc.mixing", "gamma_mix_spectral", "mixing.rate", None),
    ("nvisc.mixing", "gamma_mix_one_phonon", "mixing.rate", None),
    ("nvisc.mixing", "extract_eta", "mixing.eta_fit", None),
    ("nvisc.inference", "infer_delta", "inference.delta", None),
    ("nvisc.inference", "infer_omega", "inference.omega", None),
    ("nvisc.inference", "asymptotic_ratio", "inference.omega", None),
    ("nvisc.inference", "lowT_error_map", "inference.lowt_map", None),
    ("nvisc.inference", "fit_mott_seitz", "inference.mott_seitz", None),
    ("nvisc.inference", "lifetime_curves", "inference.lifetime", None),
    ("nvisc.inference", "isc_sensitivity", "inference.sensitivity", None),
    ("nvisc.inference", "low_delta_exclusion", "inference.sensitivity", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = None

    def begin_op(self, op_id, name: str = "op") -> None:
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append([name, op_id, None, perf_counter(), None, None])

    def end_op(self) -> None:
        self.spans[self._stack[0]][4] = perf_counter()
        self._op = None
        self._stack = []

    def wrap(self, fn, name, qty=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            span = [name, tracer._op, tracer._stack[-1], perf_counter(), None, None]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                tracer._stack.pop()
            if qty is not None:
                span[5] = qty(result, args)
            return result

        return traced


def _rebind(old, new) -> None:
    """Point every nvisc module attribute bound to ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "nvisc" or modname.startswith("nvisc.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Wrap each target of an already imported module; modules the
    process never imported are left alone."""
    for modname, path, name, qty in targets:
        owner = sys.modules.get(modname)
        if owner is None:
            continue
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            tracer.missing.append(f"{modname}.{path}")
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(tracer.wrap(raw.__func__, name, qty)))
        elif callable(raw):
            wrapped = tracer.wrap(raw, name, qty)
            if outer:
                setattr(owner, attr, wrapped)
            else:
                _rebind(raw, wrapped)
        else:
            tracer.missing.append(f"{modname}.{path}")
