"""One fresh benchmark process: set-up, then timed or traced CLI sweeps.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``mode`` ("setup", "measure" or "trace"), ``argv`` and
``warmup_argv`` (rydshe CLI argv), ``seconds``, ``rows``, ``out_dir`` and,
for "trace", ``argv_threads2`` and ``argv_traced``.  The process prints one
JSON object as the last line of its standard output.

Set-up is ``import rydshe`` plus one warm-up sweep with two points per
axis, which pays the lazy work every CLI call pays (Gauss-Legendre nodes,
the phase-matrix cache of the shift workloads).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute looked up by the caller, span name).  The package binds
# these with `from ... import`, so each wrapper replaces the caller's binding.
BINDINGS = (
    ("rydshe.cli", "run_sweep", "sweeps.run_sweep"),
    ("rydshe.cli", "emit", "sweeps.emit"),
    ("rydshe.sweeps", "susceptibility", "quantum.susceptibility"),
    ("rydshe.quantum", "nonlocal_integral", "quantum.nonlocal_integral"),
    ("rydshe.sweeps", "stack_fresnel", "multilayer.stack_fresnel"),
    ("rydshe.sweeps", "shifts_from_coefficients",
     "beam_shift.shifts_from_coefficients"),
)


class Tracer:
    """In-memory spans (name, start, end, parent index) at layer boundaries."""

    def __init__(self):
        self.spans: list = []
        self._stack = threading.local()
        self._saved: list = []

    def span(self, name, fn, *args, **kwargs):
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else None])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        for mod_name, attr, name in BINDINGS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:       # layer no longer called this way: no spans
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


def layer_totals(spans: list, first: int) -> dict:
    """Per span name over spans[first:]: calls, busy time and self time
    (busy minus the time of its child spans)."""
    child_time = [0.0] * (len(spans) - first)
    for name, t0, t1, parent in spans[first:]:
        if parent is not None and parent >= first:
            child_time[parent - first] += t1 - t0
    out: dict = {}
    for (name, t0, t1, _), ct in zip(spans[first:], child_time):
        calls, busy, self_ = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, busy + (t1 - t0), self_ + (t1 - t0 - ct))
    return out


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _timed_main(main, argv) -> float:
    t0 = time.perf_counter()
    rc = main(argv)
    dt = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"rydshe {' '.join(argv)} exited with {rc}")
    return dt


def _setup(spec):
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from rydshe.cli import main
    _timed_main(main, spec["warmup_argv"])
    return main, time.perf_counter() - t0


def _out_path(argv) -> str:
    return argv[argv.index("--out") + 1]


def python_kernel() -> float:
    """Seconds for a fixed interpreter loop and batch of small solves."""
    import numpy as np
    a = np.eye(8, dtype=complex)[None].repeat(64, axis=0) * 2.0 + 0.1
    b = np.ones((64, 8, 1), dtype=complex)
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    for _ in range(150):
        np.linalg.solve(a, b)
    return time.perf_counter() - t0


def _phase_sized_matrix():
    """A complex exponential matrix of the shift stage's phase matrix size
    (2049 x 2049, 67 MB), built the way the package builds it."""
    import numpy as np
    n = 2049
    return np.exp(1j * np.outer(np.arange(n) / n, np.arange(n)))


def _matvecs(m) -> None:
    """20 products of `m` with a vector (BLAS threads as found)."""
    import numpy as np
    v = np.ones(m.shape[1], dtype=complex)
    for _ in range(20):
        m @ v


def blas_kernel():
    """Return a function timing 20 products of a phase-matrix-sized matrix
    with a vector."""
    m = _phase_sized_matrix()

    def kernel() -> float:
        t0 = time.perf_counter()
        _matvecs(m)
        return time.perf_counter() - t0
    return kernel


def setup_kernel() -> float:
    """Seconds for the kinds of work set-up does: the python kernel, then
    building a phase-sized matrix and multiplying it with vectors."""
    t0 = time.perf_counter()
    python_kernel()
    _matvecs(_phase_sized_matrix())
    return time.perf_counter() - t0


def _timed(kernel) -> float:
    """Median of KERNEL_PASSES timings of `kernel`, so that one pass slowed
    by a scheduling blip does not count."""
    return statistics.median(kernel() for _ in range(KERNEL_PASSES))


# The host's speed drifts by up to 2x over tens of seconds, differently for
# interpreter-bound and memory-bound work; run.py scales each sweep by the
# workload's reference kernel timed right after it, in the same process, and
# each set-up by setup_kernel timed right after it.  One kernel for every
# workload's sweeps tracked the host worse (on the 2-vCPU VM, eight runs of
# shift-angle spread by 0.22 against 0.09 with the BLAS kernel):
# chi-detuning sweeps follow the python kernel, shift sweeps the BLAS one.
REFERENCE_KERNELS = {"python": lambda: python_kernel, "blas": blas_kernel}
KERNEL_PASSES = 3


def _more(start, last, seconds) -> bool:
    """Start another sweep only if it should end inside the run."""
    return time.perf_counter() - start + last <= seconds


def measure(spec) -> dict:
    """Sweeps, each followed by the reference kernel (cals[i] after walls[i]).

    Peak RSS is read after one untimed sweep, before the kernel allocates
    anything."""
    main, setup_s = _setup(spec)
    _timed_main(main, spec["argv"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_cal = _timed(setup_kernel)
    kernel = REFERENCE_KERNELS[spec["reference"]]()
    walls, digests, cals = [], [], []
    start = time.perf_counter()
    while not walls or _more(start, walls[-1], spec["seconds"]):
        walls.append(_timed_main(main, spec["argv"]))
        cals.append(_timed(kernel))
        digests.append(_digest(_out_path(spec["argv"])))
    return {"setup_s": setup_s, "setup_cal_s": setup_cal, "walls": walls,
            "cals": cals, "digests": digests, "peak_rss_mb": rss_kb / 1024.0}


def trace(spec) -> dict:
    """Cycles of (untraced, traced, untraced --threads 2) sweeps."""
    main, setup_s = _setup(spec)
    tracer = Tracer()
    argv, argv2, argv_t = spec["argv"], spec["argv_threads2"], spec["argv_traced"]
    walls1, walls2, traced, digests = [], [], [], set()
    start = time.perf_counter()
    cycle = 0.0
    while not traced or _more(start, cycle, spec["seconds"]):
        t_cycle = time.perf_counter()
        walls1.append(_timed_main(main, argv))
        first = len(tracer.spans)
        tracer.install()
        try:
            tracer.span("cli.main", _timed_main, main, argv_t)
        finally:
            tracer.uninstall()
        traced.append(layer_totals(tracer.spans, first))
        walls2.append(_timed_main(main, argv2))
        digests |= {_digest(_out_path(a)) for a in (argv, argv2, argv_t)}
        cycle = time.perf_counter() - t_cycle
    spans_path = Path(spec["out_dir"]) / "spans.json"
    spans_path.write_text(json.dumps(tracer.spans))

    import rydshe.quantum as quantum

    def med(name, field):
        return statistics.median(t.get(name, (0, 0.0, 0.0))[field]
                                 for t in traced)

    def calls(name):
        return traced[-1].get(name, (0, 0.0, 0.0))[0]

    rows = spec["rows"]
    t1 = statistics.median(walls1)
    metrics = {
        "quantum.susceptibility.calls": calls("quantum.susceptibility"),
        "quantum.susceptibility.busy_s": med("quantum.susceptibility", 1),
        "quantum.susceptibility.self_s": med("quantum.susceptibility", 2),
        "quantum.nonlocal_integral.calls": calls("quantum.nonlocal_integral"),
        "quantum.nonlocal_integral.busy_s": med("quantum.nonlocal_integral", 1),
        # computed: one batched 8x8 solve per quadrature node
        "quantum.solves_8x8": calls("quantum.nonlocal_integral")
                              * quantum.DEFAULT_QUAD_NODES,
        "multilayer.stack_fresnel.calls": calls("multilayer.stack_fresnel"),
        "multilayer.stack_fresnel.busy_s": med("multilayer.stack_fresnel", 1),
        "beam_shift.shifts_from_coefficients.calls":
            calls("beam_shift.shifts_from_coefficients"),
        "beam_shift.shifts_from_coefficients.busy_s":
            med("beam_shift.shifts_from_coefficients", 1),
        "sweeps.run_sweep.busy_s": med("sweeps.run_sweep", 1),
        "sweeps.self_s": med("sweeps.run_sweep", 2),
        "sweeps.chi_reuse_ratio": 1.0 - calls("quantum.susceptibility") / rows,
        "sweeps.emit.busy_s": med("sweeps.emit", 1),
        "sweeps.emit.bytes": os.path.getsize(_out_path(argv_t)),
        "sweeps.threads2_speedup": t1 / statistics.median(walls2),
        "cli.main.busy_s": med("cli.main", 1),
        "cli.self_s": med("cli.main", 2),
        "trace.overhead_frac": med("cli.main", 1) / t1 - 1.0,
    }
    return {"setup_s": setup_s, "metrics": metrics,
            "sweeps": len(walls1) + len(walls2) + len(traced),
            "identical_outputs": len(digests) == 1}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = {"setup": lambda s: {"setup_s": _setup(s)[1],
                                  "setup_cal_s": _timed(setup_kernel)},
              "measure": measure, "trace": trace}[spec["mode"]](spec)
    print(json.dumps(result))
