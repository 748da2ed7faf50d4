"""The workloads.  Each is a closed loop with one client: the next
command or call starts only when the previous one has finished, so at most
two processes run at once (this one and its child).

A workload has a set-up step, timed on its own, and work items.  Every
item checks the program's outputs; a wrong exit code, verdict or output
counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spreadsmith import field_tower, goodsets, parallelisms, serialization, spreads

import sampler
from procs import Outcome, run_child, run_inprocess

# Captured before a tracer rebinds the names: repeated set-ups in one
# process must pay for the field tables again.
_CLEAR_FIELD_CACHES = (field_tower.field_for_q.cache_clear,
                       field_tower.lambda_for_q.cache_clear)


class Context:
    """Where a run works and how it runs commands (child process for timed
    runs, ``cli.main`` in-process for traced runs)."""

    def __init__(self, root: Path, work: Path, seed: int, inprocess: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.inprocess = inprocess
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}".strip())
        return ok

    def cli(self, sample: str | None, argv: list[str]) -> Outcome:
        out = run_inprocess(argv) if self.inprocess else run_child(self.root, argv, self.work)
        self.peak_rss_kb = max(self.peak_rss_kb, out.peak_rss_kb)
        if sample:
            self.samples[sample].append(out.wall_s)
        return out

    def time(self, sample: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.samples[sample].append(time.perf_counter() - start)
        return result


def _tail(out: Outcome) -> str:
    text = (out.stderr or out.stdout).strip().splitlines()
    return f"rc={out.rc} {text[-1] if text else ''}"


class Workload:
    name = ""
    setup_repeats = 1
    setup_argv: list[str] | None = None     # CLI workloads: set-up is this command
    trace_items = 1                         # items in the traced job list

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.items: list = []

    def item_input(self, i: int):
        """Inputs of item ``i``, drawn from the seeded stream on demand."""
        while len(self.items) <= i:
            self.items.append(self.make_input(len(self.items)))
        return self.items[i]

    def make_input(self, i: int):
        return None

    def attempt(self, fn, *args) -> bool:
        """Run a set-up or an item.  An exception, such as output that does
        not parse or the never-run m = 3 path failing, is a failed
        operation: it is counted and reported, and the run goes on."""
        try:
            return fn(*args)
        except Exception:
            return self.ctx.check(f"{self.name} {fn.__name__}", False,
                                  traceback.format_exc().strip().splitlines()[-1])

    def setup(self) -> bool:
        out = self.ctx.cli(None, self.setup_argv)
        ok = out.rc == 0 and json.loads(out.stdout)["q"] == int(self.setup_argv[2])
        return self.ctx.check("field-info", ok, _tail(out))

    def run_item(self, i: int) -> bool:
        raise NotImplementedError

    def detail(self, loop_wall: float, good_items: int) -> dict:
        return {}


# ---------------------------------------------------------------------------


class CliRoundtrip(Workload):
    name = "cli-roundtrip-q9"
    q = 9
    setup_repeats = 7
    setup_argv = ["field-info", "--q", "9", "--format", "json"]

    def __init__(self, ctx):
        super().__init__(ctx)
        self.lam = field_tower.lambda_for_q(self.q)
        self.rng = random.Random(ctx.seed)
        self.slots = sampler.slot_table(self.lam)

    def make_input(self, i):
        gs = sampler.draw(self.lam, self.rng, self.slots)
        record = self.ctx.work / f"goodset_{i}.jsonl"
        record.write_text(serialization.goodset_record(self.lam, gs) + "\n")
        expected = serialization.goodset_record(
            self.lam, goodsets.flip_canonical(self.lam, gs))
        return record, expected

    def run_item(self, i):
        record, expected = self.item_input(i)
        par = self.ctx.work / f"parallelism_{i}.jsonl"
        ctx, q = self.ctx, str(self.q)
        built = ctx.cli("build_s", ["parallelism", "build", str(record), "--q", q,
                                    "--output", str(par)])
        stored = _stored_checksum(par) if built.rc == 0 else None
        ok = ctx.check("parallelism build", built.rc == 0 and stored is not None
                       and f"checksum {stored[:16]}.." in built.stdout, _tail(built))
        if not ok:
            return False
        verified = ctx.cli("verify_s", ["parallelism", "verify", str(par)])
        ok &= ctx.check("parallelism verify", verified.rc == 0
                        and f"checksum: {stored[:16]}.." in verified.stdout
                        and verified.stdout.rstrip().endswith("verdict: pass"),
                        _tail(verified))
        found = ctx.cli("characterize_s", ["parallelism", "characterize", str(par)])
        ok &= ctx.check("parallelism characterize",
                        found.rc == 0 and found.stdout == expected + "\n", _tail(found))
        par.unlink()
        return ok

    def detail(self, loop_wall, good_items):
        return _medians(self.ctx, ("build_s", "verify_s", "characterize_s"))


def _stored_checksum(path: Path) -> str | None:
    with open(path) as fh:
        last = fh.readlines()[-1]
    cert = json.loads(last)
    return cert.get("checksum") if cert.get("type") == "certificate" else None


# ---------------------------------------------------------------------------


class BatchQ8(Workload):
    name = "batch-q8"
    q = 8
    setup_repeats = 3
    trace_items = 3                         # the warm steady state, not one item

    def __init__(self, ctx):
        super().__init__(ctx)
        lam = field_tower.lambda_for_q(self.q)
        self.rng = random.Random(ctx.seed)
        self.slots = sampler.slot_table(lam)
        # the warm-up set comes from its own stream, so the timed stream is
        # the same whether or not set-up ran
        self.warmup = self._expected(lam, sampler.draw(
            lam, random.Random(f"warm-up {ctx.seed}"), self.slots))
        self.lam = lam
        self.geo = None

    @staticmethod
    def _expected(lam, gs):
        return gs, goodsets.flip_canonical(lam, gs)

    def make_input(self, i):
        return self._expected(self.lam, sampler.draw(self.lam, self.rng, self.slots))

    def setup(self):
        for clear in _CLEAR_FIELD_CACHES:
            clear()
        lam = field_tower.lambda_for_q(self.q)
        geo = spreads.Geometry(lam)
        geo.sigma_eta_lines()
        geo.line_set_L()
        self.geo = geo
        return self._process(self.warmup, timed=False)

    def run_item(self, i):
        return self._process(self.item_input(i), timed=True)

    def attempt(self, fn, *args) -> bool:
        # the program runs in this process, so its peak RSS is this process's
        try:
            return super().attempt(fn, *args)
        finally:
            self.ctx.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _process(self, inputs, timed: bool) -> bool:
        gs, expected = inputs
        ctx, geo = self.ctx, self.geo

        def step(sample, fn, *args):
            return ctx.time(sample, fn, *args) if timed else fn(*args)

        par = step("build_s", parallelisms.build_parallelism, geo, gs)
        cert = step("verify_s", parallelisms.verify_parallelism, geo, par)
        ok = ctx.check("verify_parallelism", cert.ok, str(cert.reason()))
        res = step("characterize_s", parallelisms.characterize, geo, par)
        return ctx.check("characterize", res.ok and res.good_set == expected,
                         f"{res.reason} {res.good_set}") and ok

    def detail(self, loop_wall, good_items):
        out = _medians(self.ctx, ("build_s", "verify_s", "characterize_s"))
        out["parallelisms_per_s"] = {"value": good_items / loop_wall, "unit": "1/s",
                                     "n": good_items}
        return out


# ---------------------------------------------------------------------------


class ClassifyQ4(Workload):
    name = "classify-q4"
    q = 4
    setup_repeats = 7
    setup_argv = ["field-info", "--q", "4", "--format", "json"]

    def __init__(self, ctx):
        super().__init__(ctx)
        self.report_digest = None

    def run_item(self, i):
        out_dir = self.ctx.work / f"classify_{i}"
        ran = self.ctx.cli("classify_s", ["classify", "--q", str(self.q),
                                          "--output", str(out_dir)])
        if not self.ctx.check("classify", ran.rc == 0, _tail(ran)):
            return False
        raw = (out_dir / "report.json").read_bytes()
        report = json.loads(raw)
        sizes = sorted(o["orbit_size"] for o in report["orbits"])
        files_ok = all((out_dir / o["file"]).is_file() for o in report["orbits"])
        ok = self.ctx.check("classify report",
                            report["group_order"] == 4800 and sizes == [5, 5, 5, 5, 50, 50]
                            and report["family_size"] == 120 and files_ok,
                            f"group {report['group_order']} sizes {sizes}")
        digest = hashlib.sha256(raw).hexdigest()
        self.report_digest = self.report_digest or digest
        ok &= self.ctx.check("classify report bytes", digest == self.report_digest,
                             "report.json differs between iterations")
        return ok

    def detail(self, loop_wall, good_items):
        out = _medians(self.ctx, ("classify_s",))
        out["seed_used"] = False
        return out


# ---------------------------------------------------------------------------


class GoodsetsStreamQ7(Workload):
    name = "goodsets-stream-q7"
    q = 7
    setup_repeats = 7
    setup_argv = ["field-info", "--q", "7", "--format", "json"]
    enumerate_limit = 40000
    verify_good = 6000
    verify_bad = 12

    def __init__(self, ctx):
        super().__init__(ctx)
        lam = field_tower.lambda_for_q(self.q)
        good = sampler.draws(lam, ctx.seed, self.verify_good)
        rows = [serialization.goodset_record(lam, gs) for gs in good]
        rng = random.Random(f"planted {ctx.seed}")
        total = self.verify_good + self.verify_bad
        self.planted = sorted(rng.sample(range(1, total + 1), self.verify_bad))
        for lineno in self.planted:
            bad = sampler.bad_variant(lam, rng.choice(good), rng)
            rows.insert(lineno - 1, serialization.goodset_record(lam, bad))
        self.verify_file = ctx.work / "verify_q7.jsonl"
        self.verify_file.write_text("\n".join(rows) + "\n")
        self.enumerate_digest = None
        self.count_output = None

    def run_item(self, i):
        ctx, q = self.ctx, str(self.q)
        out_file = ctx.work / "enumerate_q7.jsonl"
        made = ctx.cli("enumerate_s", ["goodsets", "enumerate", "--q", q, "--limit",
                                       str(self.enumerate_limit), "--output", str(out_file)])
        ok = ctx.check("goodsets enumerate", made.rc == 0, _tail(made))
        if ok:
            raw = out_file.read_bytes()
            rows = raw.splitlines()
            ok &= ctx.check("enumerate records",
                            len(rows) == len(set(rows)) == self.enumerate_limit,
                            f"{len(rows)} rows, {len(set(rows))} distinct")
            digest = hashlib.sha256(raw).hexdigest()
            self.enumerate_digest = self.enumerate_digest or digest
            ok &= ctx.check("enumerate bytes", digest == self.enumerate_digest,
                            "output differs between iterations")
            out_file.unlink()
        checked = ctx.cli("verify_s", ["goodsets", "verify", str(self.verify_file), "--q", q])
        flagged = sorted(int(line.split()[1].rstrip(":"))
                         for line in checked.stdout.splitlines() if line.startswith("line "))
        ok &= ctx.check("goodsets verify", checked.rc == 1 and flagged == self.planted,
                        f"rc={checked.rc}, flagged {flagged}, planted {self.planted}")
        counted = ctx.cli("count_s", ["goodsets", "count", "--q", "16", "--format", "json"])
        self.count_output = self.count_output or counted.stdout
        ok &= ctx.check("goodsets count", counted.rc == 0
                        and json.loads(counted.stdout)["count"] > 0
                        and counted.stdout == self.count_output, _tail(counted))
        return ok

    def detail(self, loop_wall, good_items):
        out = _medians(self.ctx, ("enumerate_s", "verify_s", "count_s"))
        s = self.ctx.samples
        for name, records, sample in (
                ("enumerate_records_per_s", self.enumerate_limit, "enumerate_s"),
                ("verify_records_per_s", self.verify_good + self.verify_bad, "verify_s")):
            out[name] = {"value": records / statistics.median(s[sample]), "unit": "1/s",
                         "n": len(s[sample])}
        return out


# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else None


def _medians(ctx: Context, names) -> dict:
    return {name: {"value": _median(ctx.samples[name]), "unit": "s",
                   "n": len(ctx.samples[name])} for name in names}


WORKLOADS = {w.name: w for w in (CliRoundtrip, BatchQ8, ClassifyQ4, GoodsetsStreamQ7)}
