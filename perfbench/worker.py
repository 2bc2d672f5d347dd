"""Code that runs in the benchmark's child processes.

Each phase runs in a fresh interpreter started by ``run.py``, so every timed
pass begins with rvq's in-process caches empty.  Usage::

    python worker.py gen WORKLOAD SEED OUT        write the seeded inputs
    python worker.py setup WORKLOAD INPUTS        import rvq, load inputs, exit
    python worker.py pass WORKLOAD INPUTS OUT TRACE [cold|warm]
    python worker.py cli OUT -- ARGV...           one traced rvq command
    python worker.py check-cli INPUTS OUT         class sizes the cli run left

Results go to OUT as JSON.  The class-cache directory comes from
``RVQ_CACHE_DIR``, which ``run.py`` points at a fresh directory per run.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# -- exact anchors -----------------------------------------------------------

# table1(1) with reduced labels (ROADMAP baseline).
ENUMERATE_ROW = 1
ENUMERATE_VERTICES = 307_336
ENUMERATE_ARROWS = 555_536
# Of the 2 x 307,336 moves tried, these raise MoveUndefined.
ENUMERATE_APPLY_CALLS = 2 * ENUMERATE_VERTICES
ENUMERATE_UNDEFINED = 59_136

WALK_BASES = ("1 2 / 2 1", "1 2 3 4 / 4 3 2 1", "1 2 3 A A 4 / 4 3 B B 2 1",
              ("table1", 1), ("table1", 7), ("table1", 11))
WALKS_PER_BASE = 170
WALK_MAXLEN = 50
# A warm pass takes well under a second; its median over several is steadier.
WALK_WARM_PASSES = 5

# (case, family, argument, p, order of the mod-p image)
GROUP_CASES = (
    ("torus mod 2", "tau_sym", 2, 2, 6),                  # Sp(2, F_2)
    ("H(2) mod 2", "tau_sym", 4, 2, 120),                 # S_5
    ("H(2) mod 3", "tau_sym", 4, 3, 51_840),              # Sp(4, F_3)
    ("H(1,1) mod 2", "tau_sym", 5, 2, 720),               # S_6
    ("H(1,1) mod 3", "tau_sym", 5, 3, 51_840),            # Sp(4, F_3)
    ("H(4)^hyp mod 2", "tau_sym", 6, 2, 5_040),           # S_7
    ("H(4)^odd mod 2", "tau_zorich", 3, 2, 51_840),       # index 28
)
GROUP_CYCLES = 200
GROUP_MAXLEN = 60

# Representatives whose reduced classes the cli identify calls sample from,
# with the label identify must give for every vertex of the class.
IDENTIFY_CLASSES = (
    ("tau_sym", (6,), "H(4)^hyp"),
    ("tau_zorich", (3,), "H(4)^odd"),
    ("tau_zorich", (4,), "H(6)^odd"),
    ("sigma_zorich", (4,), "H(6)^even"),
    ("tau_sym", (9,), "H(3,3)^hyp"),
)
IDENTIFY_PER_CLASS = 2
SIGMA_HYP_LABELS = {
    (0, 1): "Q(2,-1,-1)^hyp", (0, 2): "Q(1,1,-1,-1)^hyp",
    (0, 3): "Q(6,-1,-1)^hyp", (0, 4): "Q(3,3,-1,-1)^hyp",
    (2, 0): "Q(-1,-1,1,1)^hyp", (2, 1): "Q(2,1,1)^hyp",
    (2, 2): "Q(1,1,1,1)^hyp", (2, 3): "Q(6,1,1)^hyp",
    (4, 0): "Q(-1,-1,3,3)^hyp", (4, 1): "Q(2,3,3)^hyp",
    (4, 2): "Q(1,1,3,3)^hyp", (4, 3): "Q(6,3,3)^hyp",
}
SIGMA_HYP_PICKS = 2
# Reduced classes the cli run enumerates, with their exact sizes: the
# hyperelliptic classes have 2^(d-1) - 1 vertices.
CLI_CLASS_SIZES = (
    ("tau_sym", (6,), 31), ("tau_sym", (8,), 127), ("tau_sym", (9,), 255),
    ("tau_zorich", (3,), 134), ("tau_zorich", (4,), 5_209),
    ("sigma_zorich", (4,), 2_327),
)
SEARCH_TARGET = (6, -1, -1)


def _rep(family, args):
    from rvq import components
    return components.canonical_rep(family, *args)


def _relabel(gp, rng):
    """Rename the letters of ``gp`` to distinct random lowercase letters."""
    names = rng.sample("abcdefghijklmnopqrstuvwxyz", len(gp.alphabet))
    return gp.relabel(dict(zip(gp.alphabet, names)))


# -- input generation ----------------------------------------------------------

def _random_mixed_walk(base, rng, maxlen):
    """Mixed t/b/T/B walk: each step takes the first defined move of a shuffle."""
    from rvq.errors import MoveUndefined, ReverseArrowMissing
    from rvq.induction import apply_arrow, invert_arrow
    cur, walk = base, []
    for _ in range(rng.randint(1, maxlen)):
        ops = list("tbTB")
        rng.shuffle(ops)
        for op in ops:
            try:
                if op in "tb":
                    cur = apply_arrow(cur, op).target
                else:
                    cur = invert_arrow(cur, op.lower()).source
            except (MoveUndefined, ReverseArrowMissing):
                continue
            walk.append(op)
            break
    return "".join(walk)


def generate(workload, seed):
    rng = random.Random(seed)
    if workload == "enumerate":
        from rvq.components import table1
        gp = table1(ENUMERATE_ROW)
        names = rng.sample("abcdefghijklmnopqrstuvwxyz", len(gp.alphabet))
        return {"row": ENUMERATE_ROW, "relabel": dict(zip(gp.alphabet, names))}
    if workload == "walks":
        from rvq.components import table1
        from rvq.gp import parse_gp
        walks = []
        for spec in WALK_BASES:
            base = table1(spec[1]) if isinstance(spec, tuple) else parse_gp(spec)
            for _ in range(WALKS_PER_BASE):
                walks.append([base.encode(),
                              _random_mixed_walk(base, rng, WALK_MAXLEN)])
        return {"walks": walks, "steps": sum(len(w) for _, w in walks)}
    if workload == "group":
        return {"cases": [list(c) for c in GROUP_CASES],
                "cycle_seed": rng.randrange(1 << 30),
                "cycles": GROUP_CYCLES, "maxlen": GROUP_MAXLEN}
    if workload == "cli":
        from rvq.induction import enumerate_class
        picks = []
        for family, args, label in IDENTIFY_CLASSES:
            rc = enumerate_class(_rep(family, args), reduced_labels=True)
            for _ in range(IDENTIFY_PER_CLASS):
                v = rc.vertices[rng.randrange(len(rc))]
                picks.append([_relabel(v, rng).encode(), label])
        menu = sorted(SIGMA_HYP_LABELS)
        for s, r in rng.sample(menu, SIGMA_HYP_PICKS):
            rc = enumerate_class(_rep("sigma_hyp", (s, r)), reduced_labels=True)
            v = rc.vertices[rng.randrange(len(rc))]
            picks.append([_relabel(v, rng).encode(), SIGMA_HYP_LABELS[s, r]])
        rng.shuffle(picks)
        return {"identify": picks}
    raise SystemExit("unknown workload %r" % workload)


# -- loading inputs (the part of set-up after the imports) -------------------

def prepare(workload, inputs):
    if workload == "enumerate":
        from rvq import components, induction  # noqa: F401
        return components.table1(inputs["row"]).relabel(inputs["relabel"])
    if workload == "walks":
        from rvq import homology, induction, linalg  # noqa: F401
        from rvq.gp import parse_gp
        bases = {}
        for text, _ in inputs["walks"]:
            if text not in bases:
                bases[text] = parse_gp(text)
        return [(bases[text], walk) for text, walk in inputs["walks"]]
    if workload == "group":
        from rvq import components, groups, induction  # noqa: F401
        return [(name, components.canonical_rep(family, arg), p, order)
                for name, family, arg, p, order in inputs["cases"]]
    raise SystemExit("no in-process pass for workload %r" % workload)


# -- timed passes ------------------------------------------------------------

def _enumerate_pass(gp, failures, spans):
    from rvq import induction
    t0 = time.perf_counter()
    rc = induction.load_or_enumerate(gp, reduced_labels=True)
    spans.append((t0, time.perf_counter()))
    got = (len(rc), rc.arrow_count())
    if got != (ENUMERATE_VERTICES, ENUMERATE_ARROWS):
        failures.append("table1(1) class has %d vertices / %d arrows, "
                        "expected %d / %d" % (got + (ENUMERATE_VERTICES,
                                                     ENUMERATE_ARROWS)))


def _walk_op(base, walk):
    from rvq import homology, linalg
    om0 = homology.intersection_form(base)
    mat, end = homology.kz_walk(base, walk)
    om1 = homology.intersection_form(end, base.alphabet)
    return (linalg.mul(linalg.mul(mat, om0), linalg.transpose(mat)) == om1
            and linalg.det(mat) in (1, -1))


def _walks_pass(items, failures, spans):
    for base, walk in items:
        t = time.perf_counter()
        try:
            ok = _walk_op(base, walk)
        except Exception as exc:  # an op that raises counts as failed
            ok = False
            failures.append("walk %s from %s raised %s: %s"
                            % (walk, base.encode(), type(exc).__name__, exc))
        else:
            if not ok:
                failures.append("walk %s from %s breaks M.Omega.M^T = Omega_end"
                                " or det = +-1" % (walk, base.encode()))
        spans.append((t, time.perf_counter()))


def _group_pass(cases, inputs, failures, spans):
    from rvq import groups, induction
    for name, base, p, order in cases:
        t = time.perf_counter()
        try:
            rc = induction.load_or_enumerate(base)
            res = groups.rauzy_veech_group_modp(
                base, rc, p, cycles=inputs["cycles"], maxlen=inputs["maxlen"],
                seed=inputs["cycle_seed"])
        except Exception as exc:
            failures.append("%s raised %s: %s" % (name, type(exc).__name__, exc))
        else:
            if res.order != order:
                failures.append("%s: order %d, expected %d"
                                % (name, res.order, order))
        spans.append((t, time.perf_counter()))


def run_pass(workload, inputs, trace, phase):
    """Run one pass; the parent turns its op spans into reference seconds."""
    data = prepare(workload, inputs)
    tr = None
    if trace:
        import tracer
        tr = tracer.Tracer()
        tr.install()
    failures: list[str] = []
    # (phase, [(start, end) perf_counter pairs of the ops]) per pass; walks
    # and group run a cold and then warm passes over the same inputs
    passes: list = []
    if workload == "enumerate":
        passes.append((phase, []))
        _enumerate_pass(data, failures, passes[-1][1])
    elif workload == "walks":
        for ph in ["cold"] + ["warm"] * WALK_WARM_PASSES:
            passes.append((ph, []))
            _walks_pass(data, failures, passes[-1][1])
    elif workload == "group":
        for ph in ("cold", "warm"):
            passes.append((ph, []))
            _group_pass(data, inputs, failures, passes[-1][1])
    out = {"failures": failures, "passes": passes,
           "attempted": sum(len(ops) for _, ops in passes),
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tr is not None:
        out["trace"] = tr.summary()
    return out


# -- cli helpers ---------------------------------------------------------------

def run_cli(out_path, argv):
    """Run one rvq command in this process with tracing installed."""
    t0 = time.perf_counter()
    import rvq.cli
    import_s = time.perf_counter() - t0
    import tracer
    tr = tracer.Tracer()
    tr.install()
    try:
        return rvq.cli.main(argv)
    finally:
        summary = tr.summary()
        summary["import_s"] = import_s
        _write(out_path, summary)


def check_cli(inputs):
    """Read back, through the library, what the cli run left behind."""
    from rvq import induction, strata
    from rvq.gp import parse_gp
    failures = []
    for family, args, size in CLI_CLASS_SIZES:
        rc = induction.load_or_enumerate(_rep(family, args), reduced_labels=True)
        if len(rc) != size:
            failures.append("class of %s%s has %d vertices, expected %d"
                            % (family, args, len(rc), size))
    for text in inputs.get("search_found", []):
        orders = strata.stratum_signature(parse_gp(text)).orders
        if orders != SEARCH_TARGET:
            failures.append("search result %s lies in %s" % (text, orders))
    return {"failures": failures,
            "attempted": len(CLI_CLASS_SIZES)
            + len(inputs.get("search_found", []))}


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def main(argv):
    cmd = argv[0]
    if cmd == "gen":
        _write(argv[3], generate(argv[1], int(argv[2])))
    elif cmd == "setup":
        prepare(argv[1], _load(argv[2]))
    elif cmd == "pass":
        phase = argv[5] if len(argv) > 5 else "cold"
        _write(argv[3], run_pass(argv[1], _load(argv[2]), argv[4] == "1",
                                 phase))
    elif cmd == "cli":
        return run_cli(argv[1], argv[3:])
    elif cmd == "check-cli":
        _write(argv[2], check_cli(_load(argv[1])))
    else:
        raise SystemExit("unknown phase %r" % cmd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
