"""Outside-in tracing of maccoop: timing wrappers on module attributes.

The benchmark never edits the package.  For a traced run it replaces
each target function with a wrapper in every maccoop module that bound
it (``from .model import enumerate_partitions`` copies the name into
the importing module, so patching only the defining module would miss
those calls), records one span per call and counters per target, and
puts every original back in :meth:`Tracer.restore`.

Self time is computed online: each open span accumulates the durations
of its direct children, so no span list is needed for the metrics.
Spans are still kept (up to ``MAX_SPANS``) and written out for
inspection.  Generators are timed per ``next()``.

Under the numba backend the kernels call each other inside compiled
code, which bypasses module attributes, so ``_kernels`` targets are
only wrapped when ``maccoop.BACKEND == "numpy"``.

Span and metric names are ``<layer>.<function>``; metric names must
start with a letter, so ``maccoop._kernels`` is the ``kernels`` layer
and ``maccoop._exact_lp`` the ``exact_lp`` layer.
"""

from __future__ import annotations

import csv
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

MAX_SPANS = 100_000
OP_SPAN = "op"


def _iters(tr, args, ret):
    tr.add("kernels.pa_maximize.iters", int(ret[3]))


def _rounds(tr, args, ret):
    tr.add("kernels.sud_fixed_point.rounds", int(ret[2]))


def _rows(tr, args, ret):
    tr.add("kernels.single_rx_table_numpy.rows", int(args[0].shape[0]))


def _certificate(tr, args, ret):
    if ret.certificate is not None:
        tr.add("cores.certificates", 1)


def _bytes(tr, args, ret):
    # the CLI opens a fresh file for every table, so its offset is the size
    tr.add("io.bytes_written", args[0].tell())


@dataclass(frozen=True)
class Target:
    """One function to wrap: span name, defining module, attribute."""

    name: str
    module: str
    attr: str
    generator: bool = False
    on_return: Callable | None = None
    nonconvergence: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


TARGETS = (
    Target("model.enumerate_partitions", "maccoop.model", "enumerate_partitions",
           generator=True),
    Target("equilibrium.utility_table", "maccoop.equilibrium", "utility_table"),
    Target("equilibrium.ne_utilities", "maccoop.equilibrium", "ne_utilities",
           nonconvergence=True),
    Target("kernels.waterfill", "maccoop._kernels", "waterfill"),
    Target("kernels.pa_maximize", "maccoop._kernels", "pa_maximize", on_return=_iters),
    Target("kernels.project_capped_psd", "maccoop._kernels", "project_capped_psd"),
    Target("kernels.sic_backward", "maccoop._kernels", "sic_backward"),
    Target("kernels.sud_fixed_point", "maccoop._kernels", "sud_fixed_point",
           on_return=_rounds),
    Target("kernels.single_rx_table_numpy", "maccoop._kernels", "single_rx_table_numpy",
           on_return=_rows),
    Target("capacity.interference_free_rate", "maccoop.capacity", "interference_free_rate"),
    Target("cores.check_core", "maccoop.cores", "check_core"),
    Target("cores.demand_vector", "maccoop.cores", "demand_vector"),
    Target("cores.grand_value", "maccoop.cores", "grand_value"),
    Target("cores.check_core_from_demands", "maccoop.cores", "check_core_from_demands",
           on_return=_certificate),
    Target("cores.linprog", "maccoop.cores", "linprog"),
    Target("exact_lp.exact_lp_max", "maccoop._exact_lp", "exact_lp_max"),
    Target("analysis.snr_boundary", "maccoop.analysis", "snr_boundary"),
    Target("analysis.verify_superadditivity", "maccoop.analysis", "verify_superadditivity"),
    Target("analysis.classify_externalities", "maccoop.analysis", "classify_externalities"),
    Target("io.load_scenario", "maccoop.io", "load_scenario"),
    Target("io.write_table", "maccoop.io", "write_table", on_return=_bytes),
    Target("cli.main", "maccoop.cli", "main"),
)

COUNTERS = (
    "kernels.pa_maximize.iters",
    "kernels.sud_fixed_point.rounds",
    "kernels.single_rx_table_numpy.rows",
    "cores.certificates",
    "io.bytes_written",
    "equilibrium.nonconvergence",
)


class _Stat:
    __slots__ = ("calls", "items", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.items = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span recorder plus the install/restore of wrappers.

    Use ``install()`` before the traced ops and ``restore()`` in a
    ``finally``; ``op(i)`` brackets one benchmark operation so spans
    carry its id and the op's wall time is known.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names = [OP_SPAN] + [t.name for t in self.targets]
        self.stats = {name: _Stat() for name in self.names}
        self.counters = {name: 0 for name in COUNTERS}
        self.absent: list[str] = []
        self.untraced: list[str] = []
        self.dropped = 0
        # spans as columns: id, name index, parent id, op id, start, end
        self._cols = (array("q"), array("q"), array("q"), array("q"), array("d"), array("d"))
        self._stack: list[list] = []  # [span id, name index, start, child time]
        self._next_id = 1
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []
        self.top_level_s = 0.0

    # -- recording ---------------------------------------------------------

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] += n

    def _enter(self, idx: int) -> list:
        frame = [self._next_id, idx, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        span_id, idx, start, child = frame
        self._stack.pop()
        dur = end - start
        stat = self.stats[self.names[idx]]
        stat.s += dur
        stat.self_s += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
            if parent[1] == 0:
                self.top_level_s += dur
        if len(self._cols[0]) < MAX_SPANS:
            for col, value in zip(self._cols, (span_id, idx, parent[0] if parent else 0,
                                               self._op, start, end)):
                col.append(value)
        else:
            self.dropped += 1
        return dur

    def op(self, op_id: int):
        return _OpSpan(self, op_id)

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, target: Target, idx: int, fn):
        tracer = self
        stat = self.stats[target.name]

        def traced(*args, **kwargs):
            stat.calls += 1
            frame = tracer._enter(idx)
            try:
                ret = fn(*args, **kwargs)
            except Exception as exc:
                tracer._exit(frame)
                if target.nonconvergence and type(exc).__name__ == "NonConvergence":
                    tracer.add("equilibrium.nonconvergence", 1)
                raise
            tracer._exit(frame)
            if target.on_return is not None:
                target.on_return(tracer, args, ret)
            return ret

        return traced

    def _wrap_generator(self, target: Target, idx: int, fn):
        tracer = self
        stat = self.stats[target.name]

        def traced(*args, **kwargs):
            stat.calls += 1
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    frame = tracer._enter(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._exit(frame)
                        return
                    except Exception:
                        tracer._exit(frame)
                        raise
                    tracer._exit(frame)
                    stat.items += 1
                    yield item

            return timed()

        return traced

    def install(self) -> None:
        """Wrap every present target wherever a maccoop module bound it."""
        import maccoop

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "maccoop" or n.startswith("maccoop."))]
        for idx, target in enumerate(self.targets, start=1):
            if target.module == "maccoop._kernels" and maccoop.BACKEND != "numpy":
                self.untraced.append(target.name)
                continue
            home = sys.modules.get(target.module)
            original = getattr(home, target.attr, None) if home is not None else None
            if original is None:
                self.absent.append(target.name)
                continue
            make = self._wrap_generator if target.generator else self._wrap_call
            wrapper = make(target, idx, original)
            wrapper.__wrapped__ = original
            wrapper.__perfbench__ = True
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every original binding back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- output --------------------------------------------------------------

    def metrics(self, overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, counts and times averaged over the traced ops."""
        op = self.stats[OP_SPAN]
        ops = max(op.calls, 1)
        out: dict[str, tuple[float, str]] = {
            "op.s": (op.s / ops, "s/op"),
            "op.self_s": (op.self_s / ops, "s/op"),
        }
        for target in self.targets:
            stat = self.stats[target.name]
            out[f"{target.name}.calls"] = (stat.calls / ops, "count/op")
            if target.generator:
                out[f"{target.name}.items"] = (stat.items / ops, "count/op")
            out[f"{target.name}.s"] = (stat.s / ops, "s/op")
            out[f"{target.name}.self_s"] = (stat.self_s / ops, "s/op")
        for name, value in self.counters.items():
            out[name] = (value / ops, "B/op" if name == "io.bytes_written" else "count/op")
        verdicts = self.stats["cores.check_core_from_demands"].calls
        boundaries = self.stats["analysis.snr_boundary"].calls
        out["cores.lp_per_verdict"] = (
            self.stats["cores.linprog"].calls / verdicts if verdicts else 0.0, "1")
        out["cores.exact_hit_ratio"] = (
            self.stats["exact_lp.exact_lp_max"].calls / verdicts if verdicts else 0.0, "1")
        # every verdict of snr_sweep happens inside snr_boundary
        out["analysis.verdicts_per_boundary"] = (
            verdicts / boundaries if boundaries else 0.0, "1")
        out["trace.ops"] = (float(op.calls), "count")
        out["trace.coverage"] = (self.top_level_s / op.s if op.s else 0.0, "1")
        out["trace.overhead"] = (overhead, "1")
        out["trace.absent"] = (float(len(self.absent)), "count")
        return out

    def layer_shares(self) -> dict[str, float]:
        """Self time per layer as a share of op wall time."""
        total = self.stats[OP_SPAN].s or 1.0
        shares: dict[str, float] = {"bench": self.stats[OP_SPAN].self_s / total}
        for target in self.targets:
            shares[target.layer] = (shares.get(target.layer, 0.0)
                                    + self.stats[target.name].self_s / total)
        return shares

    def write_spans(self, path) -> None:
        """Write the kept spans as CSV."""
        ids, names, parents, ops, starts, ends = self._cols
        t0 = starts[0] if len(starts) else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# spans kept: {len(ids)}, dropped: {self.dropped}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "parent", "op", "start_s", "end_s"])
            for row in zip(ids, names, parents, ops, starts, ends):
                writer.writerow([row[0], self.names[row[1]], row[2], row[3],
                                 f"{row[4] - t0:.9f}", f"{row[5] - t0:.9f}"])


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id
        self.frame = None

    def __enter__(self):
        self.tracer._op = self.op_id
        self.tracer.stats[OP_SPAN].calls += 1
        self.frame = self.tracer._enter(0)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame)
        self.tracer._op = -1
        return False


def leftover_wrappers() -> list[str]:
    """Names of maccoop attributes that are still tracing wrappers."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "maccoop" or name.startswith("maccoop.")):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__perfbench__", False):
                found.append(f"{name}.{attr}")
    return found
