"""Spans and counts recorded from outside the program.

`Tracer.install` replaces each layer function named in
`workloads.LAYER_FUNCTIONS` with a timing wrapper at every place it is
bound: the defining module, and every `ratar` module that imported it with
`from ... import`.  Methods are wrapped on their class.  The public tensor
ops of `numcore` get a cheaper wrapper that only counts calls, and how many
of them recorded onto a tape.  `uninstall` puts the originals back.

Spans stay in memory as (id, parent id, name, start, end, run) tuples until
`write` puts them in a CSV file.  A span's self time is its duration minus
the time its child spans cover; spans nest strictly, because the program
is single-threaded.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

from workloads import LAYER_FUNCTIONS, MODULES, NON_OPS, ROW_GROUPS


class TracerError(RuntimeError):
    """A layer function the benchmark names cannot be found or wrapped."""


def _resolve(module, path):
    owner, name = module, path
    if "." in path:
        cls_name, name = path.split(".", 1)
        owner = getattr(module, cls_name, None)
        if not inspect.isclass(owner):
            raise TracerError(f"{module.__name__}.{cls_name} is not a class")
    fn = owner.__dict__.get(name) if inspect.isclass(owner) else getattr(owner, name, None)
    if not callable(fn):
        raise TracerError(f"layer function {module.__name__}.{path} does not exist")
    return owner, name, fn


class Tracer:
    """Span and count recorder for one workload process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.run = "setup"
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._t0 = time.perf_counter()
        self.counts = dict.fromkeys(
            ("ops", "ops_traced", "pairs", "matched", "entries", "refined"), 0)

    # -- recording -----------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, self.run))

    @contextmanager
    def span(self, name):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def _span_wrapper(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out
        return wrapper

    def _op_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["ops"] += 1
            if out.tape is not None:
                counts["ops_traced"] += 1
            return out
        return wrapper

    def _on_retrieve(self, signature):
        def hook(args, kwargs, result):
            residuals = signature.bind(*args, **kwargs).arguments["residuals"]
            flags = result.flags
            if any(f.startswith("degenerate_query:") for f in flags):
                return
            skipped = sum(f.startswith(("insufficient_overlap:", "zero_norm:"))
                          for f in flags)
            self.counts["pairs"] += len(residuals) - 1 - skipped
            self.counts["matched"] += len(result.matched)
        return hook

    def _on_refine(self, args, kwargs, result):
        self.counts["entries"] += len(result.entries)
        self.counts["refined"] += result.n_refined

    # -- installation --------------------------------------------------

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _bind_everywhere(self, original, wrapper):
        """Replace every module-level binding of `original` in ratar."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ratar" or mod_name.startswith("ratar.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise TracerError("tracer already installed")
        mods = {m: importlib.import_module(f"ratar.{m}") for m in MODULES}
        for mod_name, path in LAYER_FUNCTIONS:
            owner, name, fn = _resolve(mods[mod_name], path)
            hook = None
            if path == "retrieve":
                hook = self._on_retrieve(inspect.signature(fn))
            elif path == "refine_labels":
                hook = self._on_refine
            wrapper = self._span_wrapper(f"{mod_name}.{path}", fn, hook)
            if inspect.isclass(owner):
                self._patch(owner, name, wrapper)
            else:
                self._bind_everywhere(fn, wrapper)
        nc = mods["numcore"]
        for name, fn in list(vars(nc).items()):
            if (inspect.isfunction(fn) and fn.__module__ == nc.__name__
                    and not name.startswith("_") and name not in NON_OPS):
                self._bind_everywhere(fn, self._op_wrapper(fn))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def reset_counts(self):
        for key in self.counts:
            self.counts[key] = 0

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "parent", "name", "start", "end", "workload", "run"])
            for sid, parent, name, start, end, run in self.spans:
                out.writerow([sid, parent, name, repr(start - self._t0),
                              repr(end - self._t0), self.workload, run])


def row_of(name):
    for row, members in ROW_GROUPS.items():
        if name in members:
            return row
    return name


def layer_rows(spans):
    """Per-row calls, seconds and self seconds, plus per-module self seconds.

    Every layer row is present; a row whose functions did not run reads 0.

    `.s` sums only spans with no ancestor in the same row, so recursion
    is not counted twice.  A module's self time is the self time of all
    its rows; the root span (`pipeline.<entry>`) counts for `pipeline`.
    """
    by_id = {sid: (parent, row_of(name)) for sid, parent, name, *_ in spans}
    child = {}
    for sid, parent, _name, start, end, _run in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    rows = {row_of(f"{mod}.{path}"): (0, 0.0, 0.0) for mod, path in LAYER_FUNCTIONS}
    modules = dict.fromkeys(MODULES, 0.0)
    for sid, parent, name, start, end, _run in spans:
        row = row_of(name)
        dur = end - start
        self_s = dur - child.get(sid, 0.0)
        calls, total, own = rows.get(row, (0, 0.0, 0.0))
        ancestor = parent
        while ancestor != -1 and by_id[ancestor][1] != row:
            ancestor = by_id[ancestor][0]
        outer = ancestor == -1
        rows[row] = (calls + 1, total + (dur if outer else 0.0), own + self_s)
        modules[row.split(".", 1)[0]] += self_s
    return rows, modules
