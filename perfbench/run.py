"""Benchmark for rvq, run from the root of a source checkout.

    python3 perfbench/run.py --workload {enumerate,walks,group,cli} \\
        --seed N --seconds S --trace {0,1}

Workloads (BENCHMARK.json says why each exists):

* ``enumerate``: ``load_or_enumerate(table1(1), reduced_labels=True)`` in a
  fresh process against an empty class-cache directory, then again in fresh
  processes that read the cache back.
* ``walks``: 170 seeded mixed t/b/T/B walks from each of six bases, each
  checked for M.Omega.M^T = Omega_end and det = +-1.  A second pass in the
  same process runs with rvq's in-process caches warm.
* ``group``: seven mod-p images of Rauzy-Veech groups with known orders, once
  cold and once warm in each fresh process.
* ``cli``: a fixed script of fresh ``python -m rvq.cli`` processes against an
  empty cache directory, then the same script again warm.

Every workload is a closed loop with one process working at a time.  Inputs
are generated from ``--seed`` in a separate process, so each timed process
starts with rvq's in-process caches empty.  Each run uses fresh class-cache
directories under ``perfbench/.work`` and removes them at the end.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with spans recorded around rvq's public
functions, and reports the per-layer metrics and the tracing overhead.  Every
metric is printed by name with its unit, then one JSON report line, then the
result line the BENCHMARK.json contract asks for.  The exit code is 1 when an
exact anchor is missed or a child fails, and 2 when ``src/rvq`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(HERE, ".work")
PROBE_DIR = os.path.join(HERE, "probe")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402  (constants only; importing it loads no rvq code)

WORKLOADS = ("enumerate", "walks", "group", "cli")
SETUP_PROBES = 9


class ChildFailed(Exception):
    pass


class Proc:
    def __init__(self, code, t0, t1, out, err, rss_kb, clock):
        self.code, self.t0, self.t1 = code, t0, t1
        self.out, self.err, self.rss_kb = out, err, rss_kb
        self.clock = clock        # speed.Clock of the child's probe samples

    def seconds(self):
        """Reference seconds from spawn to exit."""
        return self.clock.seconds(self.t0, self.t1)


class Run:
    """Scratch directory, environment and child processes of one run."""

    def __init__(self, seed):
        os.makedirs(WORK_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
        self.seed = seed
        self._made = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    def path(self, name):
        return os.path.join(self.dir, name)

    def fresh_cache(self):
        self._made += 1
        path = self.path("cache-%d" % self._made)
        os.makedirs(path)
        return path

    def spawn(self, argv, cache):
        """Run one child to completion; its peak RSS comes from wait4."""
        samples = self.path("speed-samples")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + PROBE_DIR
        env["PYTHONHASHSEED"] = str(self.seed % (1 << 32))
        env["RVQ_CACHE_DIR"] = cache
        env["PERFBENCH_PROBE_FILE"] = samples
        with open(self.path("stderr"), "w+b") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=self.dir, env=env,
                                 stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, stderr=err)
            try:
                out = p.stdout.read()
                p.stdout.close()
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            t1 = time.perf_counter()
            p.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode("utf-8", "replace")
        try:
            clock = speed.Clock.load(samples)
            os.remove(samples)
        except (OSError, ValueError):
            clock = None
        return Proc(p.returncode, t0, t1, out.decode("utf-8", "replace"),
                    err_text, usage.ru_maxrss, clock)

    def worker(self, args, cache, out=None):
        """Run a worker phase; returns its JSON result and its Proc."""
        proc = self.spawn([sys.executable, WORKER] + args, cache)
        if proc.code != 0 or proc.clock is None:
            raise ChildFailed("worker %s exited %d:\n%s"
                              % (" ".join(args[:2]), proc.code,
                                 proc.err[-3000:]))
        if out is None:
            return None, proc
        with open(out) as fh:
            return json.load(fh), proc


class Measure:
    """Walls, latencies, memory, failures and traces of one workload."""

    def __init__(self, work):
        self.work = work          # units of work in one cold or warm pass
        self.cold: list[float] = []   # reference seconds per pass
        self.warm: list[float] = []
        self.raw: dict[str, list[float]] = {"cold": [], "warm": []}
        self.latencies_ms: list[float] = []
        self.rss_kb: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.traces: list[dict] = []

    def add(self, res, clock):
        """Take a worker pass; ``clock`` turns its op spans into seconds."""
        for phase, ops in res["passes"]:
            t0, t1 = ops[0][0], ops[-1][1]
            (self.cold if phase == "cold" else self.warm).append(
                clock.seconds(t0, t1))
            self.raw[phase].append(clock.wall_seconds(t0, t1))
            if phase == "cold" and len(ops) > 1:
                self.latencies_ms += [clock.seconds(a, b) * 1e3
                                      for a, b in ops]
        self.rss_kb.append(res["rss_kb"])
        self.attempted += res["attempted"]
        self.failures += res["failures"]
        if "trace" in res:
            self.traces.append(res["trace"])

    def wall(self):
        return sum(self.cold) + sum(self.warm)


def _fill(step, t0, seconds):
    """Call ``step``, then again while another call would end by t0+seconds."""
    while True:
        t = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - t0 + (now - t) > seconds:
            return


# -- workloads -------------------------------------------------------------

def _pass(m, run, workload, inputs_path, trace, phase, cache):
    out = run.path("pass.json")
    res, proc = run.worker(["pass", workload, inputs_path, out,
                            "1" if trace else "0", phase], cache, out)
    m.add(res, proc.clock)


def measure_inprocess(run, workload, inputs_path, inputs, seconds, trace):
    """enumerate, walks and group: timed inside fresh worker processes."""
    work = {"enumerate": worker.ENUMERATE_VERTICES, "walks": inputs.get("steps"),
            "group": len(worker.GROUP_CASES)}[workload]
    m = Measure(work)
    t0 = time.perf_counter()
    if workload == "enumerate":
        cache = run.fresh_cache()
        _pass(m, run, workload, inputs_path, trace, "cold", cache)
        # a warm read is short, so take the median of at least three
        _pass(m, run, workload, inputs_path, trace, "warm", cache)
        _fill(lambda: _pass(m, run, workload, inputs_path, trace, "warm",
                            cache), t0, seconds)
    else:
        _fill(lambda: _pass(m, run, workload, inputs_path, trace, "cold",
                            run.fresh_cache()), t0, seconds)
    return m


def _expect_line(text):
    def check(out, err, found):
        got = out.strip()
        return None if got == text else "printed %r, expected %r" % (got, text)
    return check


def _check_verify_table(out, err, found):
    lines = out.splitlines()
    passed = [ln for ln in lines if ln.endswith(": PASS")]
    if len(lines) != 12 or len(passed) != 12:
        return "%d lines, %d PASS; expected 12 PASS lines" % (len(lines),
                                                             len(passed))
    return None


def _check_search(out, err, found):
    lines = out.splitlines()
    if len(lines) < 2 or lines[-1] != "%d witness chain(s)" % (len(lines) - 1):
        return "unexpected search output %r" % out[-200:]
    found.update(lines[:-1])
    return None


def _check_validate(out, err, found):
    if out or not err.startswith("LetterCountError"):
        return "expected a LetterCountError on stderr, got %r" % err[-200:]
    return None


def _check_cocycle(out, err, found):
    lines = out.splitlines()
    try:
        (a, b), (c, d) = [tuple(int(x) for x in ln.split()) for ln in lines[1:3]]
    except ValueError:
        return "unparsable matrix %r" % out
    if lines[0] != "letters: 1 2" or a * d - b * c not in (1, -1) \
            or not lines[3].startswith("end: "):
        return "matrix %r is not in GL(2, Z) or output malformed" % out
    return None


def _check_extend(out, err, found):
    if not out.rstrip().endswith("[Q(3,3,-1,-1) genus=2]"):
        return "split did not land in Q(3,3,-1,-1): %r" % out
    return None


def cli_script(inputs):
    """(arguments, expected exit code, output check) of every command."""
    witness = "1 2 3 A A 4 / 4 3 B B 2 1"
    script = [
        (["verify-table"], 0, _check_verify_table),
        (["search", "--from", "1 2 3 4 / 4 3 2 1", "--target-stratum",
          ",".join(str(o) for o in worker.SEARCH_TARGET), "--nonhyp"],
         0, _check_search),
    ]
    script += [(["identify", text], 0, _expect_line(label))
               for text, label in inputs["identify"]]
    script += [
        (["stratum", witness], 0, _expect_line("Q(6,-1,-1) genus=2")),
        (["validate", "1 2 / 2 2 1"], 1, _check_validate),
        (["cover", witness], 0,
         _expect_line("H(3,3) + 2 marked genus=4 minus_eligible=True")),
        (["cocycle", "1 2 / 2 1", "--walk", "tbTB"], 0, _check_cocycle),
        (["extend", witness, "--singularity", "1", "--orders", "3,3"], 0,
         _check_extend),
    ]
    return script


def measure_cli(run, inputs, seconds, trace):
    """The script once against an empty cache directory, then warm again
    while another warm pass fits in ``seconds``."""
    script = cli_script(inputs)
    m = Measure(len(script))
    cache = run.fresh_cache()
    found: set[str] = set()
    summary = run.path("cli-trace.json")

    def script_pass(phase):
        walls, raw = [], []
        for args, code, check in script:
            if trace:
                argv = [sys.executable, WORKER, "cli", summary, "--"]
            else:
                argv = [sys.executable, "-m", "rvq.cli"]
            p = run.spawn(argv + ["--cache-dir", cache] + args, cache)
            m.attempted += 1
            problem = ("exit code %d, expected %d: %s"
                       % (p.code, code, p.err[-300:])
                       if p.code != code else check(p.out, p.err, found))
            if p.clock is None:
                raise ChildFailed("%s left no speed samples:\n%s"
                                  % (args[0], p.err[-3000:]))
            if problem:
                m.failures.append("%s %s (%s): %s" % (
                    args[0], " ".join(repr(a) for a in args[1:]), phase,
                    problem))
            walls.append(p.seconds())
            raw.append(p.clock.wall_seconds(p.t0, p.t1))
            m.rss_kb.append(p.rss_kb)
            if trace:
                with open(summary) as fh:
                    m.traces.append(json.load(fh))
                os.remove(summary)
        m.latencies_ms += [w * 1e3 for w in walls]
        (m.cold if phase == "cold" else m.warm).append(sum(walls))
        m.raw[phase].append(sum(raw))

    t0 = time.perf_counter()
    script_pass("cold")
    _fill(lambda: script_pass("warm"), t0, seconds)
    check_in = run.path("check-in.json")
    with open(check_in, "w") as fh:
        json.dump(dict(inputs, search_found=sorted(found)), fh)
    out = run.path("check.json")
    res, _ = run.worker(["check-cli", check_in, out], cache, out)
    m.attempted += res["attempted"]
    m.failures += res["failures"]
    return m


def measure(run, workload, inputs_path, inputs, seconds, trace):
    if workload == "cli":
        return measure_cli(run, inputs, seconds, trace)
    return measure_inprocess(run, workload, inputs_path, inputs, seconds,
                             trace)


def measure_setup(run, workload, inputs_path):
    """Median, in reference seconds, of fresh processes that import rvq and
    load the inputs."""
    if workload == "cli":
        argv = [sys.executable, "-m", "rvq.cli", "--help"]
    else:
        argv = [sys.executable, WORKER, "setup", workload, inputs_path]
    cache = run.fresh_cache()
    walls = []
    for _ in range(SETUP_PROBES):
        p = run.spawn(argv, cache)
        if p.code != 0 or p.clock is None:
            raise ChildFailed("set-up probe exited %d:\n%s"
                              % (p.code, p.err[-3000:]))
        walls.append(p.seconds())
    return statistics.median(walls)


# -- metrics -----------------------------------------------------------------

def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, and its value."""
    xs = sorted(values)
    n = len(xs)
    for q in [99.9, 99.5] + list(range(99, 69, -1)):
        k = math.ceil(q / 100 * n)
        if k >= 1 and n - k >= 10:
            return q, xs[k - 1]
    return None, None


def end_to_end(setup_s, m):
    """(value, unit) of every end-to-end metric the workload has."""
    out = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (statistics.median(m.work / w for w in m.cold),
                       "units/s"),
        "warm_work_per_s": (statistics.median(m.work / w for w in m.warm),
                            "units/s"),
        # the same, in wall seconds not scaled by the speed probe
        "wall_work_per_s": (statistics.median(m.work / w
                                              for w in m.raw["cold"]),
                            "units/s"),
        "wall_warm_work_per_s": (statistics.median(m.work / w
                                                   for w in m.raw["warm"]),
                                 "units/s"),
        "peak_rss_mb": (max(m.rss_kb) / 1024, "MB"),
        "error_rate": (len(m.failures) / m.attempted, "ratio"),
    }
    if m.latencies_ms:
        out["op_p50_ms"] = (statistics.median(m.latencies_ms), "ms")
        q, v = tail_percentile(m.latencies_ms)
        if q is not None:
            out["op_tail_ms"] = (v, "ms")
            out["op_tail_percentile"] = (q, "%")
        out["op_samples"] = (len(m.latencies_ms), "count")
    return out


class Layer:
    """Totals of one traced function, split by span tag."""

    def __init__(self, rows):
        self.rows = rows          # tag -> [calls, inclusive ns, self ns]
        self.calls = sum(r[0] for r in rows.values())
        self.incl = sum(r[1] for r in rows.values())
        self.self = sum(r[2] for r in rows.values())

    def tagged(self, tag, k=0):
        return self.rows.get(tag, [0, 0, 0])[k]

    def ratio(self, tag):
        return self.tagged(tag) / self.calls if self.calls else None


def _per(num, den):
    return num / den if den else None


def _layer_metrics(layer, c):
    """(metric, unit, traced function, value from (Layer, counters))."""
    L = [
        ("gp.find_reduction.calls", "count", "gp.find_reduction",
         lambda f: f.calls),
        ("gp.find_reduction.self_us", "us", "gp.find_reduction",
         lambda f: f.self / 1e3),
        ("gp.find_reduction.reducible_ratio", "ratio", "gp.find_reduction",
         lambda f: f.ratio(tracer.REDUCIBLE)),
        ("gp.is_irreducible.calls", "count", "gp.is_irreducible",
         lambda f: f.calls),
        ("gp.is_irreducible.us", "us", "gp.is_irreducible",
         lambda f: f.incl / 1e3),
        ("gp.parse_gp.calls", "count", "gp.parse_gp", lambda f: f.calls),
        ("gp.parse_gp.us", "us", "gp.parse_gp", lambda f: f.incl / 1e3),
        ("induction.apply_arrow.calls", "count", "induction.apply_arrow",
         lambda f: f.calls),
        ("induction.apply_arrow.self_us", "us", "induction.apply_arrow",
         lambda f: f.self / 1e3),
        ("induction.apply_arrow.undefined_ratio", "ratio",
         "induction.apply_arrow", lambda f: f.ratio(tracer.RAISED)),
        ("induction.invert_arrow.calls", "count", "induction.invert_arrow",
         lambda f: f.calls),
        ("induction.invert_arrow.self_us", "us", "induction.invert_arrow",
         lambda f: f.self / 1e3),
        ("induction.invert_arrow.missing_ratio", "ratio",
         "induction.invert_arrow", lambda f: f.ratio(tracer.RAISED)),
        ("induction.enumerate_class.self_s", "s", "induction.enumerate_class",
         lambda f: f.self / 1e9),
        ("induction.enumerate_class.vertices_per_s", "1/s",
         "induction.enumerate_class",
         lambda f: _per(c.get("induction.enumerate_class.vertices", 0),
                        f.incl / 1e9)),
        ("induction.cache.write_s", "s", "induction.load_or_enumerate",
         lambda f: (f.tagged(tracer.MISS, 2)
                    + layer("induction.to_jsonl").incl) / 1e9),
        ("induction.cache.read_s", "s", "induction.load_or_enumerate",
         lambda f: f.tagged(tracer.HIT, 1) / 1e9),
        ("induction.cache.bytes", "B", "induction.load_or_enumerate",
         lambda f: c.get("induction.cache.bytes", 0)),
        ("induction.cache.hits", "count", "induction.load_or_enumerate",
         lambda f: c.get("induction.cache.hits", 0)),
        ("induction.cache.misses", "count", "induction.load_or_enumerate",
         lambda f: c.get("induction.cache.misses", 0)),
        ("homology.kz_walk.steps", "count", "homology.kz_walk",
         lambda f: c.get("homology.kz_walk.steps", 0)),
        ("homology.kz_walk.self_us_per_step", "us", "homology.kz_walk",
         lambda f: _per(f.self / 1e3, c.get("homology.kz_walk.steps", 0))),
        ("homology.intersection_form.calls", "count",
         "homology.intersection_form", lambda f: f.calls),
        ("homology.intersection_form.self_us", "us",
         "homology.intersection_form", lambda f: f.self / 1e3),
        ("homology.quotient_data.self_ms", "ms", "homology.quotient_data",
         lambda f: f.self / 1e6),
        ("homology.quotient_action.self_us", "us", "homology.quotient_action",
         lambda f: f.self / 1e3),
        ("linalg.mul.calls", "count", "linalg.mul", lambda f: f.calls),
        ("linalg.mul.self_us", "us", "linalg.mul", lambda f: f.self / 1e3),
        ("linalg.det.calls", "count", "linalg.det", lambda f: f.calls),
        ("linalg.det.self_us", "us", "linalg.det", lambda f: f.self / 1e3),
        ("groups.random_directed_cycles.self_s", "s",
         "groups.random_directed_cycles", lambda f: f.self / 1e9),
        ("groups.arrow_cycles.self_s", "s", "groups.arrow_cycles",
         lambda f: f.self / 1e9),
        ("groups.plus_generators_modp.self_s", "s",
         "groups.plus_generators_modp", lambda f: f.self / 1e9),
        ("groups.plus_generators_modp.kept_ratio", "ratio",
         "groups.plus_generators_modp",
         lambda f: _per(c.get("groups.plus_generators_modp.kept", 0),
                        c.get("groups.plus_generators_modp.cycles", 0))),
        ("groups.modp_closure.self_s", "s", "groups.modp_closure",
         lambda f: f.self / 1e9),
        ("groups.modp_closure.order", "count", "groups.modp_closure",
         lambda f: c.get("groups.modp_closure.order", 0)),
        ("components.identify_component.calls", "count",
         "components.identify_component", lambda f: f.calls),
        ("components.identify_component.self_s", "s",
         "components.identify_component", lambda f: f.self / 1e9),
        ("components.verify_row.self_s", "s", "components.verify_row",
         lambda f: f.self / 1e9),
        ("components.hyperelliptic_test.calls", "count",
         "components.hyperelliptic_test", lambda f: f.calls),
        ("components.hyperelliptic_test.us", "us",
         "components.hyperelliptic_test", lambda f: f.incl / 1e3),
    ]
    for fn in ("search_extensions", "is_simple_extension", "insert_letter",
               "split_singularity"):
        name = "extensions." + fn
        L += [(name + ".calls", "count", name, lambda f: f.calls),
              (name + ".self_us", "us", name, lambda f: f.self / 1e3)]
    L += [
        ("strata.stratum_signature.calls", "count", "strata.stratum_signature",
         lambda f: f.calls),
        ("strata.stratum_signature.self_us", "us", "strata.stratum_signature",
         lambda f: f.self / 1e3),
        ("cover.cover_stratum.us", "us", "cover.cover_stratum",
         lambda f: f.incl / 1e3),
    ]
    for cmd in tracer.CLI_COMMANDS:
        name = "cli." + cmd
        L.append((name + ".ms", "ms", name,
                  lambda f: f.incl / 1e6 if f.calls else None))
    return L


def per_layer(traced, untraced):
    """(value, unit) of every per-layer metric; None where not measured."""
    merged = tracer.merge(traced.traces)
    by_name: dict[str, dict[int, list[int]]] = {}
    for key, row in merged["spans"].items():
        name, tag = key.rsplit("|", 1)
        by_name.setdefault(name, {})[int(tag)] = row

    def layer(name):
        return Layer(by_name.get(name, {}))

    c = merged["counters"]
    out = {}
    for metric, unit, fn, value in _layer_metrics(layer, c):
        out[metric] = (None if fn in merged["absent"] else value(layer(fn)),
                       unit)
    imports = [t["import_s"] for t in traced.traces if "import_s" in t]
    out["cli.import_s"] = (statistics.median(imports) if imports else None,
                           "s")
    overhead = traced.wall() - untraced.wall()
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_ratio"] = (overhead / untraced.wall(), "ratio")
    out["trace.spans"] = (merged["span_count"], "count")
    return out, merged


def exact_count_checks(workload, inputs, merged):
    """Counts the traced run must reproduce exactly: (description, ok)."""
    spans = merged["spans"]
    if workload == "enumerate":
        calls = sum(r[0] for k, r in spans.items()
                    if k.startswith("induction.apply_arrow|"))
        raised = spans.get("induction.apply_arrow|%d" % tracer.RAISED,
                           [0])[0]
        want = (worker.ENUMERATE_APPLY_CALLS, worker.ENUMERATE_UNDEFINED)
        return [("apply_arrow calls / MoveUndefined = %d / %d, expected "
                 "%d / %d" % ((calls, raised) + want), (calls, raised) == want)]
    if workload == "walks":
        steps = merged["counters"].get("homology.kz_walk.steps", 0)
        want = (1 + worker.WALK_WARM_PASSES) * inputs["steps"]
        return [("kz_walk steps %d, expected %d" % (steps, want),
                 steps == want)]
    return []


# -- reporting -----------------------------------------------------------------

def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rvq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _result_metrics(spec_list, values):
    out = {}
    for entry in spec_list:
        value, unit = values.get(entry["name"], (None, None))
        if value is None:
            continue
        if unit != entry["unit"]:
            raise SystemExit("metric %s: unit %s, BENCHMARK.json says %s"
                             % (entry["name"], unit, entry["unit"]))
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rvq", "__init__.py")):
        sys.stderr.write("perfbench: no rvq source tree at %s\n" % SRC)
        return 2
    spec = _spec()

    run = Run(args.seed)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(SRC, "rvq")], check=True,
                       stdout=subprocess.DEVNULL)
        inputs_path = run.path("inputs.json")
        run.worker(["gen", args.workload, str(args.seed), inputs_path],
                   run.fresh_cache())
        with open(inputs_path) as fh:
            inputs = json.load(fh)
        setup_s = measure_setup(run, args.workload, inputs_path)
        # A traced run measures one untraced and one traced pass structure.
        seconds = 0 if args.trace else args.seconds
        base = measure(run, args.workload, inputs_path, inputs, seconds, False)
        traced = (measure(run, args.workload, inputs_path, inputs, 0, True)
                  if args.trace else None)
    except (ChildFailed, subprocess.CalledProcessError) as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    finally:
        run.close()

    values = end_to_end(setup_s, base)
    attempted, failures = base.attempted, list(base.failures)
    merged = None
    if traced is not None:
        layer_values, merged = per_layer(traced, base)
        values.update(layer_values)
        attempted += traced.attempted
        failures += ["traced: " + f for f in traced.failures]
        for text, ok in exact_count_checks(args.workload, inputs, merged):
            attempted += 1
            if not ok:
                failures.append("exact count: " + text)

    for name, (value, unit) in values.items():
        shown = "%.6g" % value if value is not None else "-"
        print("%-44s %14s %s" % (name, shown, unit))
    for f in failures:
        print("FAILED: %s" % f)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "passes": {"cold": len(base.cold), "warm": len(base.warm)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "failures": failures,
    }
    if args.workload == "group":
        names = [c[0] for c in worker.GROUP_CASES]
        report["case_ms"] = {
            name: statistics.median(base.latencies_ms[i::len(names)])
            for i, name in enumerate(names)}
    if merged is not None:
        report["absent"] = merged["absent"]
    print(json.dumps({"report": report}, sort_keys=True))
    key = "per_layer" if args.trace else "end_to_end"
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": _result_metrics(spec[key], values)}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
