"""Call tracing from the benchmark's own code, for the traced run.

The tracer wraps public functions of each spreadsmith module and rebinds
every name that refers to them, including the copies other modules took
with ``from ... import`` (``cli.build_parallelism``,
``spreads.line_through``, ``parallelisms.line_through``, ...).  Without
the rebinding those calls would not be seen.

Every wrapped call keeps a frame on one stack, so a function's self time
is its duration minus the time of the wrapped calls it made.  Boundary
functions also record a span (name, start, end, parent span, job id).
Hot leaf functions, called up to millions of times per job, are only
aggregated into calls and seconds: a span each would take hundreds of MB.
Their time still counts as child time of the enclosing span.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("field_tower", "proj_geometry", "spreads", "goodsets",
          "parallelisms", "equivalence", "serialization", "cli")

SPAN, HOT, GEN = "span", "hot", "gen"

# (module, attribute, kind).  An attribute "Class.method" wraps a method.
TARGETS = (
    ("field_tower", "lambda_for_q", SPAN),
    ("field_tower", "build_lambda", SPAN),
    ("field_tower", "FieldSpec.__init__", SPAN),
    ("proj_geometry", "rref", HOT),
    ("proj_geometry", "line_through", HOT),
    ("proj_geometry", "lines_meet", HOT),
    ("proj_geometry", "Collineation.apply_point", HOT),
    ("proj_geometry", "Collineation.then", HOT),
    ("proj_geometry", "AmbientSpace.sigma_points", SPAN),
    ("spreads", "Geometry.sigma_eta_lines", SPAN),
    ("spreads", "Geometry.line_set_L", SPAN),
    ("spreads", "Geometry.pencil", HOT),
    ("spreads", "Geometry.desarguesian_spread", HOT),
    ("spreads", "Geometry.spread_from_transversal", HOT),
    ("spreads", "Geometry.hall_spread", SPAN),
    ("spreads", "Geometry.transversals_of", SPAN),
    ("spreads", "Geometry.is_spread", SPAN),
    ("goodsets", "enumerate_good_sets", GEN),
    ("goodsets", "is_good", HOT),
    ("goodsets", "count_good_sets", SPAN),
    ("goodsets", "census", SPAN),
    ("goodsets", "flip_canonical", HOT),
    ("parallelisms", "build_parallelism", SPAN),
    ("parallelisms", "assemble_spread_family", SPAN),
    ("parallelisms", "verify_parallelism", SPAN),
    ("parallelisms", "family_checksum", SPAN),
    ("parallelisms", "characterize", SPAN),
    ("parallelisms", "is_E_invariant", SPAN),
    ("equivalence", "stabilizer_group", SPAN),
    ("equivalence", "close_group", SPAN),
    ("equivalence", "label_action", SPAN),
    ("equivalence", "apply_label_action", HOT),
    ("equivalence", "classify", SPAN),
    ("serialization", "dumps", HOT),
    ("serialization", "goodset_record", HOT),
    ("serialization", "parse_goodset_record", HOT),
    ("serialization", "write_parallelism_file", SPAN),
    ("serialization", "read_parallelism_file", SPAN),
    ("cli", "main", SPAN),
)

JOB = "job"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}          # name -> [calls, s, self_s]
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list = []
        self.job_id = -1
        self._stack = [[0.0, -1]]                 # frames: [child seconds, span id]
        self._undo: list = []
        self._hall_seen = weakref.WeakKeyDictionary()

    # -- installing ----------------------------------------------------------

    def install(self):
        for module, attr, kind in TARGETS:
            mod = importlib.import_module(f"spreadsmith.{module}")
            owner = mod
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            name = f"{module}.{attr}"
            if kind == GEN:
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap(name, original, kind == SPAN,
                                     self._after_hook(name))
            self._rebind(owner, leaf, original, wrapped)
            if owner is mod:
                for other in list(sys.modules.values()):
                    if other is not mod and getattr(other, "__name__", "").startswith("spreadsmith"):
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._rebind(other, key, original, wrapped)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, record, after):
        stack, spans, tracer = self._stack, self.spans, self
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = parent[1]
            if record:
                sid = len(spans)
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if record:
                    spans[sid] = (name, start, start + dur, parent[1], tracer.job_id)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """A generator's time is the time spent inside its resumptions."""
        stack, counters = self._stack, self.counters
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def drive(it):
            while True:
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = clock() - start
                    stack.pop()
                    stack[-1][0] += dur
                    stat[1] += dur
                    stat[2] += dur - frame[0]
                counters[f"{name}.sets"] += 1
                yield item

        def traced(*args, **kwargs):
            stat[0] += 1
            return drive(fn(*args, **kwargs))

        return traced

    def _after_hook(self, name):
        counters = self.counters
        if name.endswith("_parallelism_file"):
            def after(args, result):
                counters[f"{name}.bytes"] += os.path.getsize(args[0])
            return after
        if name == "equivalence.close_group":
            def after(args, result):
                counters[f"{name}.elements"] += len(result)
            return after
        if name == "spreads.Geometry.hall_spread":
            seen_by_geo = self._hall_seen

            def after(args, result):
                geo, line = args[0], args[1]
                seen = seen_by_geo.setdefault(geo, set())
                if line not in seen:
                    seen.add(line)
                    counters[f"{name}.new"] += 1
            return after
        return None

    # -- jobs ----------------------------------------------------------------

    def run_job(self, job_id: int, fn):
        """Run one request.  Every span inside carries this job id, and the
        job's own self time is the time no wrapped call accounts for."""
        self.job_id = job_id
        try:
            return self._wrap(JOB, fn, True, None)()
        finally:
            self.job_id = -1

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            if name != JOB:
                out[name.split(".", 1)[0]] += self_s
        return out

    def job_wall_s(self) -> float:
        return self.stats.get(JOB, [0, 0.0, 0.0])[1]

    def unattributed_s(self) -> float:
        return self.stats.get(JOB, [0, 0.0, 0.0])[2]

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

