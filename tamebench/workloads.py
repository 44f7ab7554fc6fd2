"""The three benchmark workloads: seeded inputs, one op each, and the oracle.

Every workload is a fixed-size round of ops.  The seed picks the inputs
inside fixed size classes and their order, so the work per round stays
comparable across seeds, and no input repeats within a round, so memoising
whole results cannot show a gain that a CLI user would not get.

* ``palette``  -- criterion 8's root-of-unity palette: Frobenius polynomial,
  the central-value identity for chi orders 1..6, Weil weights and the tame
  factor.  Almost all time is ExactScalar arithmetic.
* ``kernels``  -- the integer and Fraction kernels on the acceptance grids:
  U_m -> psi_m reduction, a_i with the orbit BFS and nu-image, lattice
  inclusion-exclusion and measure identity, the class-number sweep, and
  split-prime tower steps with their norm maps.  No ExactScalar work.
* ``cli-cold`` -- one fresh ``python -m tamenorm.cli`` process per op over all
  seven subcommands (most of the time goes to ``mackey-test``), plus the
  contract probes.

An op returns ``(problems, digest)``: the oracle's list of problems (empty if
the output is right) and the sha256 of its certificate or result.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement

WORKLOADS = ("palette", "kernels", "cli-cold")

PALETTE = [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6)]
PALETTE_OPS = 3000
PALETTE_TRACE_OPS = 800

# (n, ell, m) with ell^(mn) <= 3^6: up to (3,3,2) and (3,2,3); (3,3,3) is one
# 45 s op and goes through the same per-X path, so it is left out.
REDUCE_GRID = [(n, ell, m) for n in (1, 2, 3) for ell in (2, 3, 5, 7)
               for m in range(1, n + 1) if ell ** (m * n) <= 729]
A_COEFF_GRID = [(n, ell) for n in (1, 2, 3) for ell in (2, 3)] + [(2, 5), (2, 7)]
LATTICE_GRID = [(n, ell, 2) for n in (1, 2, 3) for ell in (2, 3, 5)] + [(4, 2, 1)]
# The round has exactly 100 ops, so that the percentiles fall on steady ops:
# the median among the tower steps (5-15 ms), and the p90 tail, the 11th
# slowest op, on the fixed grid op reduce_um (3,5,1) (~230 ms), which is
# about 30% slower than the next op below it and 5-15% faster than the next
# above it.  The sweeps (~70 ms) sit between the two; their bounds stay
# within 2% of 10000, so the seed moves their cost by little.
SWEEPS = 20
SWEEP_BOUNDS = (9800, 10200)
TOWERS = 34
# Split-prime tower steps (d_E, m, ell): fundamental d_E > -200, m <= 8,
# ell < 60 split and prime to d_E m, 2000 <= |d_E| m^2 ell^2 <= 40000, and
# class number h of the larger order in [26, 30], since the norm map costs
# ~h^2.  test_harness re-derives this list.
TOWER_POOL = (
    (-3, 2, 31), (-3, 3, 31), (-4, 1, 53), (-4, 2, 29), (-7, 1, 29), (-7, 2, 29),
    (-11, 1, 31), (-19, 2, 11), (-35, 7, 3), (-43, 2, 11), (-47, 1, 7), (-47, 2, 7),
    (-47, 5, 2), (-47, 7, 2), (-71, 2, 5), (-71, 4, 3), (-71, 5, 2), (-83, 1, 11),
    (-103, 1, 7), (-103, 2, 7), (-103, 5, 2), (-103, 7, 2), (-107, 1, 11), (-127, 5, 2),
    (-131, 1, 7), (-131, 2, 3), (-139, 1, 11), (-151, 1, 5), (-151, 2, 5), (-151, 3, 2),
    (-151, 5, 2), (-159, 3, 2), (-179, 2, 3), (-191, 2, 3), (-191, 3, 2),
)

# cli-cold: one mackey-test op per (group, model), with these sample counts.
# A GL2F3 op costs 2-5 s even at one sample, depending on the levels its
# --seed draws, so the GL2F3 ops keep the README's --seed 1: their work is then
# the same in every run.  The small commands, kept to cheap sizes, outnumber
# the mackey ops about 5 to 1 and the round stays under 100 ops, so the median
# and the p75 tail (p90 needs 100 ops) both fall among similar small commands.
MACKEY_SAMPLES = {"S3": 30, "D8": 30, "S4": 10, "GL2F3": 1}
MACKEY_FIXED_SEED = {"GL2F3": 1}
MACKEY_MODELS = ("G", "cosets", "two")
CLASSGROUP_DISC = (100, 400)    # |D|; character_group is cubic in h(D)
CLI_SMALL_OPS = {"classgroup": 13, "tower": 12, "lfactor": 18, "coeffs": 5,
                 "verify-incl-excl": 8, "norm-relation": 7}

# The contract probes, judged by the README/ROADMAP contract.  `known` marks
# the ones this program is documented to violate (ROADMAP item 4); they are
# counted as contract violations rather than as failed ops.
PROBES = [
    ("probe-nonsplit", ["norm-relation", "--n", "1", "--ell", "3", "--disc", "-4",
                        "--conductor", "1", "--alpha", "0:1", "0:1"], False),
    ("probe-depth0", ["verify-incl-excl", "--n", "2", "--ell", "3", "--depth", "0"], True),
    ("probe-samples-neg", ["mackey-test", "--group", "S3", "--samples", "-5"], True),
    ("probe-alpha-zero-order", ["lfactor", "--n", "1", "--ell", "5",
                                "--alpha", "0:0", "1:2"], True),
    ("probe-alpha-neg-order", ["lfactor", "--n", "1", "--ell", "5",
                               "--alpha", "1:-3", "1:2"], True),
]
KNOWN_VIOLATIONS = {name for name, _argv, known in PROBES if known}
POLL_S = 0.005         # seconds between polls for a child's exit


def digest(obj):
    blob = obj if isinstance(obj, bytes) else json.dumps(
        obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# input generation

def make_ops(workload, seed, trace=False):
    """The round of ops for `workload` and `seed`: a list of JSON-able tuples."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "palette":
        ops = _palette_ops(rng)
        return ops[:PALETTE_TRACE_OPS] if trace else ops
    if workload == "kernels":
        return _kernel_ops(rng)
    if workload == "cli-cold":
        return _cli_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _palette_ops(rng):
    # a uniform draw from all (n, ell, 2n-tuple) inputs: 82% of them have n = 3
    pool = [(n, ell, combo) for n in (1, 2, 3) for ell in (2, 3, 5, 7)
            for combo in combinations_with_replacement(PALETTE, 2 * n)]
    picks = rng.sample(pool, PALETTE_OPS)
    return [("palette", n, ell, [list(p) for p in combo], rng.randint(1, 6))
            for n, ell, combo in picks]


def _kernel_ops(rng):
    ops = [("reduce_um", n, ell, m) for n, ell, m in REDUCE_GRID]
    ops += [("a_coefficients", n, ell) for n, ell in A_COEFF_GRID]
    ops += [(kind, n, ell, depth) for n, ell, depth in LATTICE_GRID
            for kind in ("inclusion_exclusion", "measure_identity")]
    ops += [("sweep", b) for b in rng.sample(range(*SWEEP_BOUNDS), SWEEPS)]
    ops += [("tower",) + t for t in rng.sample(TOWER_POOL, TOWERS)]
    rng.shuffle(ops)
    return ops


def _alpha_args(rng, n):
    return [f"{e}:{k}" for e, k in (rng.choice(PALETTE) for _ in range(2 * n))]


def _cli_ops(rng):
    """Each op: ("cli", name, argv, expected exit code, or None for a probe)."""
    from tamenorm import classfield

    ops = []
    seen = set()

    def add(name, argv, code=0):
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            ops.append(("cli", name, argv, code))

    def count(name):
        return sum(1 for op in ops if op[1] == name)

    for group, samples in MACKEY_SAMPLES.items():
        for model in MACKEY_MODELS:
            seed = MACKEY_FIXED_SEED.get(group) or rng.randrange(1, 10 ** 6)
            add("mackey-test", ["mackey-test", "--group", group, "--model", model,
                                "--samples", str(samples), "--seed", str(seed)])
    discs = [d for d in range(-3, -100, -1) if classfield.is_fundamental_discriminant(d)]
    while count("classgroup") < CLI_SMALL_OPS["classgroup"]:
        d, m = rng.choice(discs), rng.randint(1, 8)
        if CLASSGROUP_DISC[0] <= -d * m * m <= CLASSGROUP_DISC[1]:
            add("classgroup", ["classgroup", "--disc", str(d), "--conductor", str(m)])
    for d, m, ell in rng.sample(TOWER_POOL, CLI_SMALL_OPS["tower"]):
        add("tower", ["tower", "--disc", str(d), "--m", str(m), "--ell", str(ell)])
    while count("lfactor") < CLI_SMALL_OPS["lfactor"]:
        n, ell = rng.randint(1, 3), rng.choice((2, 3, 5, 7))
        add("lfactor", ["lfactor", "--n", str(n), "--ell", str(ell), "--alpha",
                        *_alpha_args(rng, n), "--chi-order", str(rng.randint(1, 6))])
    small = [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3)]
    for n, ell in rng.sample(small, CLI_SMALL_OPS["coeffs"]):
        add("coeffs", ["coeffs", "--n", str(n), "--ell", str(ell)])
    lattices = [(n, ell, depth) for n, ell in small + [(2, 5)] for depth in (1, 2)]
    for n, ell, depth in rng.sample(lattices, CLI_SMALL_OPS["verify-incl-excl"]):
        add("verify-incl-excl", ["verify-incl-excl", "--n", str(n), "--ell", str(ell),
                                 "--depth", str(depth)])
    split = [(d, ell) for d in discs[:12] for ell in (2, 3, 5)
             if classfield.kronecker(d, ell) == 1 and d % ell]
    while count("norm-relation") < CLI_SMALL_OPS["norm-relation"]:
        d, ell = rng.choice(split)
        n = 2 if count("norm-relation") == 1 else 1   # one op at n = 2
        argv = ["norm-relation", "--n", str(n), "--ell", str(ell), "--disc", str(d),
                "--conductor", "1", "--alpha", *_alpha_args(rng, n)]
        if not count("norm-relation"):
            add("norm-relation", argv + ["--perturb-b1"], 1)   # must fail at step 3
        else:
            add("norm-relation", argv)
    for name, argv, _known in PROBES:
        ops.append(("cli", name, argv, None))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# running one op and judging its output

def run_palette(op):
    from tamenorm import lfactor
    from tamenorm.exactnum import ExactScalar
    from tamenorm.lfactor import CharacterValue, SatakeParams

    _kind, n, ell, combo, tame_k = op
    problems = []
    sp = SatakeParams.from_root_exponents(n, ell, [tuple(p) for p in combo])
    fp = lfactor.frob_poly_from_satake(sp)
    out = [fp.p_lambda.serialize(), fp.p_central.serialize()]
    for k in range(1, 7):
        chi = CharacterValue.primitive(ell, k)
        lhs = fp.p_central.eval(chi.chi_ell)
        rhs = lfactor.local_l_inverse(sp, chi.chi_ell)
        if lhs != rhs:
            problems.append(f"central value differs at chi order {k}")
        out.append(lhs.serialize())
    s_pow = ExactScalar.sqrt_ell(ell) ** (2 * n - 1)
    weil = lfactor.weil_weight_check([a * s_pow for a in sp.alpha], n, ell)
    if not weil["pass"]:
        problems.append("weil weights fail")
    chi = CharacterValue.primitive(ell, tame_k)
    tame = lfactor.tame_factor(sp, chi)
    # independent route: ell^(n^2) / (ell - 1) times P(chi(ell)) by Horner
    scale = ExactScalar.from_rational(Fraction(ell ** (n * n), ell - 1), ell)
    if tame != scale * fp.p_central.eval(chi.chi_ell):
        problems.append("tame factor differs from the polynomial route")
    out += [weil, tame.serialize()]
    return problems, digest(out)


def _check_discrepancy(a_cert, n, ell, problems):
    flagged = a_cert["rows"][n]["documented_discrepancy"]
    if flagged != (ell > 2):
        problems.append(f"r = n discrepancy flagged={flagged} at ell={ell}")


def _check_cases(obj, problems, path="$"):
    """Every reported cases_checked must be positive."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == "cases_checked" and (not isinstance(v, int) or v <= 0):
                problems.append(f"{path}.cases_checked = {v}")
            else:
                _check_cases(v, problems, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _check_cases(v, problems, f"{path}[{i}]")


def run_kernel(op):
    from tamenorm import classfield, hecke, lattice

    kind = op[0]
    problems = []
    if kind == "reduce_um":
        _k, n, ell, m = op
        _psi, _counts, cert = hecke.reduce_um_to_psi(m, hecke.HeckeContext(n, ell))
        if cert.get("total") != ell ** (m * n):
            problems.append(f"reduced {cert.get('total')} cosets, want {ell ** (m * n)}")
    elif kind == "a_coefficients":
        _k, n, ell = op
        _a, cert = hecke.a_coefficients(hecke.HeckeContext(n, ell))
        _check_discrepancy(cert, n, ell, problems)
    elif kind == "inclusion_exclusion":
        cert = lattice.verify_inclusion_exclusion(*op[1:])
    elif kind == "measure_identity":
        cert = lattice.verify_measure_identity(*op[1:])
    elif kind == "sweep":
        cert = classfield.class_number_formula_sweep(op[1])
    elif kind == "tower":
        step, small, big = classfield.TowerStep.build(*op[1:])
        _mapping, cert = classfield.norm_map(big, small)
        if cert["kernel_order"] != step.degree:
            problems.append("norm-map kernel order differs from the tower degree")
        cert = {"step": step.to_json_dict(), "norm_map": cert, "pass": cert["pass"]}
    else:
        raise ValueError(f"unknown kernel op {kind!r}")
    if cert.get("pass") is not True:
        problems.append("certificate does not pass")
    _check_cases(cert, problems)
    return problems, digest(cert)


def judge_cli(op, code, blob):
    """Oracle for one CLI op given its exit code and certificate bytes (or None)."""
    _c, name, argv, want = op
    problems = []
    cert = None
    if blob is not None:
        try:
            cert = json.loads(blob)
        except ValueError:
            problems.append("certificate is not JSON")
    if want is None:          # a contract probe
        return _judge_probe(name, code, cert), digest(blob or b"")
    if code != want:
        problems.append(f"exit {code}, want {want}")
    if cert is None or cert.get("schema") != "trc-1":
        problems.append("no trc-1 certificate")
        return problems, digest(blob or b"")
    if cert.get("pass") is not (want == 0):
        problems.append(f"pass = {cert.get('pass')}")
    _check_cases(cert, problems)
    args = dict(zip(argv[1::2], argv[2::2]))
    results = cert.get("results", {})
    if name == "coeffs":
        _check_discrepancy(results["a_coefficients"], int(args["--n"]),
                           int(args["--ell"]), problems)
    if name == "norm-relation":
        _check_discrepancy(results["step3_phi"]["a_coefficients"], int(args["--n"]),
                           int(args["--ell"]), problems)
        if "--perturb-b1" in argv and (cert.get("first_failure") or {}).get("stage") != "step3_phi":
            problems.append("perturbed control did not fail at step3_phi")
    return problems, digest(blob)


def _judge_probe(name, code, cert):
    """The contract: exit 2 for bad configuration; never pass on zero cases."""
    problems = []
    if name in ("probe-nonsplit", "probe-alpha-zero-order", "probe-alpha-neg-order"):
        if code != 2:
            problems.append(f"exit {code}, want 2 (configuration error)")
    else:
        if code == 0:
            problems.append("passes on zero cases")
        if cert is not None:
            _check_cases(cert, problems)
    return problems


def run_cli(op, root, out_path, child_argv=(), timeout=None, idle=None):
    """Run one CLI op as a fresh process; `child_argv` replaces ``-m tamenorm.cli``.

    Returns ``(problems, digest, cpu_s)``, where ``cpu_s`` is the child's user
    plus system CPU time.  `idle` is passed on to `wait`.
    """
    if os.path.exists(out_path):
        os.remove(out_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    entry = list(child_argv) or ["-m", "tamenorm.cli"]
    proc = subprocess.Popen([sys.executable, *entry, *op[2], "--out", out_path],
                            cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    code, cpu_s = wait(proc, timeout, idle)
    if code is None:
        return [f"no exit within {timeout} s"], None, cpu_s
    blob = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            blob = fh.read()
    return (*judge_cli(op, code, blob), cpu_s)


def wait(proc, timeout, idle=None):
    """``(exit code, CPU seconds)`` of `proc`; the code is None after killing
    it at `timeout` seconds.  The CPU time is the child's user plus system
    time, from the rusage that reaping it returns, so polling for its exit
    every POLL_S does not quantise it.  While the child runs, `idle` (if
    given) is called before each poll.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, ru.ru_utime + ru.ru_stime
        if deadline is not None and time.monotonic() >= deadline:
            proc.kill()
            proc.wait()
            return None, 0.0
        if idle is not None:
            idle()
        time.sleep(POLL_S)


def op_key(op):
    return json.dumps(op)
