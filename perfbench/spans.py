"""In-memory span tracer attached to dickeqb from outside the package.

Each hook replaces one name in the namespace where its caller looks it up
(``dickeqb.dynamics.build_H_static``, not ``dickeqb.model.build_H_static``),
so a call is traced exactly where it crosses from one module into another
and calls inside a module stay untraced.  A dotted name ``A.B`` replaces
``A`` in the caller's namespace: a module by a proxy module whose ``B`` is
wrapped, a class by a subclass whose method ``B`` is wrapped.

Matrix-vector products are counted at SciPy's sparse boundary
(``_cs_matrix._matmul_vector`` / ``_matmul_multivector``) and attributed to
the innermost open span.  The kernel's products are all those made inside
``dynamics.propagate`` but outside an observables or model span, whether or
not a ``kernels.apply`` span encloses them, so the counts do not depend on
which dickeqb module makes the product.

A hook whose target is missing is logged and its metrics are reported as
null; it never fails the run.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

# (caller module, name as the caller looks it up, span name).  The layer of a
# span is the text before the first dot of its name.
HOOKS = (
    ("dickeqb.cli", "propagate", "dynamics.propagate"),
    ("dickeqb.cli", "static_hamiltonian", "model.static_hamiltonian"),
    ("dickeqb.cli", "observables.ground_state", "observables.ground_state"),
    ("dickeqb.dynamics", "build_H_battery", "model.build_H_battery"),
    ("dickeqb.dynamics", "build_H_static", "model.build_H_static"),
    ("dickeqb.dynamics", "drive_operator", "model.drive_operator"),
    ("dickeqb.dynamics", "CsrExpm.apply", "kernels.apply"),
    ("dickeqb.dynamics", "obs.stored_energy", "observables.stored_energy"),
    ("dickeqb.dynamics", "obs.charging_power", "observables.charging_power"),
    ("dickeqb.dynamics", "obs.energy_fluctuation", "observables.energy_fluctuation"),
    ("dickeqb.dynamics", "obs.jz_mean", "observables.jz_mean"),
)

MATVEC_HOOK = "scipy.sparse matvec"
RECORD_SPANS = (
    "observables.stored_energy",
    "observables.charging_power",
    "observables.energy_fluctuation",
    "observables.jz_mean",
)
MODEL_SPANS = tuple(span for _, _, span in HOOKS if span.startswith("model."))
# Spans whose own matvecs are the kernel's (see the module docstring), and
# the hooks that separate those matvecs from the rest.
KERNEL_MATVEC_SPANS = ("kernels.apply", "dynamics.propagate")
KERNEL_MATVEC_HOOKS = ("dynamics.propagate", MATVEC_HOOK, *RECORD_SPANS, *MODEL_SPANS)

# Per-layer metric -> (unit, hooks it needs).  A metric whose hook is
# missing is reported as null.
METRICS = {
    "kernels.apply_s": ("s", ("kernels.apply",)),
    "kernels.exp_calls": ("count", ("kernels.apply",)),
    "kernels.matvecs": ("count", KERNEL_MATVEC_HOOKS),
    "kernels.terms_per_exp": ("count", ("kernels.apply", *KERNEL_MATVEC_HOOKS)),
    "kernels.ns_per_matvec_nnz": ("ns/nnz", ("kernels.apply", *KERNEL_MATVEC_HOOKS)),
    "kernels.bytes_computed": ("B", KERNEL_MATVEC_HOOKS),
    "dynamics.self_s": ("s", ("dynamics.propagate",)),
    "dynamics.samples": ("count", ("dynamics.propagate", "observables.stored_energy")),
    "model.assemble_s": ("s", MODEL_SPANS),
    "model.assemble_calls": ("count", MODEL_SPANS),
    "model.dim": ("count", MODEL_SPANS),
    "model.nnz": ("count", MODEL_SPANS),
    "observables.ground_state_s": ("s", ("observables.ground_state",)),
    "observables.ground_state_calls": ("count", ("observables.ground_state",)),
    "observables.solver_matvecs": ("count", ("observables.ground_state", MATVEC_HOOK)),
    "observables.record_s": ("s", RECORD_SPANS),
    "cli.self_s": ("s", ()),
    "trace.wall_s": ("s", ()),
}

# Layers whose self times, with cli.self_s, add up to the traced wall time.
SELF_TIME_METRICS = (
    "kernels.apply_s",
    "dynamics.self_s",
    "model.assemble_s",
    "observables.ground_state_s",
    "observables.record_s",
    "cli.self_s",
)


class Tracer:
    """Records spans (id, name, start, end, parent) and matvec counters."""

    def __init__(self):
        self.spans = []  # closed: (id, name, start, end, parent, matvecs, nnz, bytes)
        self._open = []  # [id, name, start, parent, matvecs, nnz, bytes]
        self.model_dim = 0
        self.model_nnz = 0
        self.missing = []
        self._next_id = 0
        self._undo = []

    def enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else None
        self._open.append([self._next_id, name, time.perf_counter(), parent, 0, 0, 0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, parent, mv, nnz, nbytes = self._open.pop()
        self.spans.append((sid, name, start, end, parent, mv, nnz, nbytes))

    def wrap(self, name: str, fn):
        tracer = self
        note = self._note_model if name.startswith("model.") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if note is not None:
                note(result)
            return result

        return traced

    def _note_model(self, op) -> None:
        mat = getattr(op, "mat", None)
        if mat is not None:
            self.model_dim = max(self.model_dim, mat.shape[0])
            self.model_nnz = max(self.model_nnz, mat.nnz)

    def count_matvec(self, mat, columns: int) -> None:
        if not self._open:
            return
        top = self._open[-1]
        nnz = mat.nnz
        rows, cols = mat.shape
        top[4] += columns
        top[5] += nnz * columns
        # Computed from array sizes (CSR arrays read once, x read, y written
        # per column); cache behaviour is not measured.
        top[6] += (nnz * (mat.data.itemsize + mat.indices.itemsize)
                   + (rows + 1) * mat.indptr.itemsize
                   + columns * (cols + rows) * mat.data.itemsize)

    # -- installing and removing hooks -------------------------------------

    def install(self, hooks=HOOKS) -> None:
        """Attach every hook that resolves; log and remember the rest."""
        for module_name, attr, span in hooks:
            try:
                self._install_one(module_name, attr, span)
            except (ImportError, AttributeError) as exc:
                self.missing.append(span)
                print(f"perfbench: hook {module_name}.{attr} not found ({exc}); "
                      f"metrics that need {span} are null", file=sys.stderr)
        self._install_matvec()

    def _install_one(self, module_name: str, attr: str, span: str) -> None:
        module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
        head, _, tail = attr.partition(".")
        current = getattr(module, head)
        if not tail:
            self._set(module, head, self.wrap(span, current))
            return
        target = getattr(current, tail)
        if isinstance(current, types.ModuleType):
            if not getattr(current, "_perfbench_proxy", False):
                proxy = types.ModuleType(current.__name__)
                proxy.__dict__.update(current.__dict__)
                proxy._perfbench_proxy = True
                self._set(module, head, proxy)
                current = proxy
            setattr(current, tail, self.wrap(span, target))
        elif isinstance(current, type):
            if not current.__dict__.get("_perfbench_proxy", False):
                current = type(current.__name__, (current,), {"_perfbench_proxy": True})
                self._set(module, head, current)
            setattr(current, tail, self.wrap(span, target))
        else:
            raise AttributeError(f"{module_name}.{head} is neither a module nor a class")

    def _install_matvec(self) -> None:
        try:
            from scipy.sparse._compressed import _cs_matrix
            vector = _cs_matrix._matmul_vector
            multivector = _cs_matrix._matmul_multivector
        except (ImportError, AttributeError) as exc:
            self.missing.append(MATVEC_HOOK)
            print(f"perfbench: SciPy matvec boundary not found ({exc}); "
                  "matvec metrics are null", file=sys.stderr)
            return
        tracer = self

        def matmul_vector(mat, other):
            tracer.count_matvec(mat, 1)
            return vector(mat, other)

        def matmul_multivector(mat, other):
            tracer.count_matvec(mat, other.shape[1])
            return multivector(mat, other)

        self._set(_cs_matrix, "_matmul_vector", matmul_vector)
        self._set(_cs_matrix, "_matmul_multivector", matmul_multivector)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics from the closed spans; null where a hook is missing."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        calls = defaultdict(int)
        matvecs = defaultdict(int)
        mv_nnz = defaultdict(int)
        mv_bytes = defaultdict(int)
        wall = 0.0
        for sid, name, start, end, parent, mv, nnz, nbytes in self.spans:
            self_time[name] += (end - start) - child_time[sid]
            calls[name] += 1
            matvecs[name] += mv
            mv_nnz[name] += nnz
            mv_bytes[name] += nbytes
            if parent is None:
                wall += end - start

        def layer(prefix):
            return sum((v for k, v in self_time.items() if k.startswith(prefix)), 0.0)

        exp_calls = calls["kernels.apply"]
        apply_s = self_time["kernels.apply"]
        kernel_mv = sum(matvecs[s] for s in KERNEL_MATVEC_SPANS)
        kernel_nnz = sum(mv_nnz[s] for s in KERNEL_MATVEC_SPANS)
        values = {
            "kernels.apply_s": apply_s,
            "kernels.exp_calls": exp_calls,
            "kernels.matvecs": kernel_mv,
            "kernels.terms_per_exp": kernel_mv / exp_calls if exp_calls else 0.0,
            "kernels.ns_per_matvec_nnz": 1e9 * apply_s / kernel_nnz if kernel_nnz else 0.0,
            "kernels.bytes_computed": sum(mv_bytes[s] for s in KERNEL_MATVEC_SPANS),
            "dynamics.self_s": layer("dynamics."),
            "dynamics.samples": calls["observables.stored_energy"],
            "model.assemble_s": layer("model."),
            "model.assemble_calls": sum(calls[s] for s in MODEL_SPANS),
            "model.dim": self.model_dim,
            "model.nnz": self.model_nnz,
            "observables.ground_state_s": self_time["observables.ground_state"],
            "observables.ground_state_calls": calls["observables.ground_state"],
            "observables.solver_matvecs": matvecs["observables.ground_state"],
            "observables.record_s": sum(self_time[s] for s in RECORD_SPANS),
            "cli.self_s": layer("cli."),
            "trace.wall_s": wall,
        }
        missing = set(self.missing)
        return {
            name: None if missing.intersection(needs) else values[name]
            for name, (_, needs) in METRICS.items()
        }
