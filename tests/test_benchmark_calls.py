"""The benchmark's calls into tamenorm still work.

`tamebench/` reaches the library through names and shapes of its own:
`hecke.HeckeContext`, the 3-tuple of `reduce_um_to_psi`, the `len()` of
`lattice.sublattices_up_to_depth`, `classfield.TowerStep.build`,
`check_c_axioms(F, samples, rng)` and the tracer's wrapping of every layer.
These tests run one op of each kind the way the benchmark does, so a change
that breaks one of those calls fails here and not only in a benchmark run.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tamebench")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

from tamenorm import cli  # noqa: E402

SEED = 7
KERNEL_KINDS = ("reduce_um", "a_coefficients", "inclusion_exclusion", "measure_identity",
                "sweep", "tower")


def _first(ops, pred):
    return next(op for op in ops if pred(op))


@pytest.fixture(scope="module")
def cli_ops():
    return workloads.make_ops("cli-cold", SEED)


def test_benchmark_ops_run_clean_under_the_tracer(tmp_path, cli_ops):
    kernels = workloads.make_ops("kernels", SEED)
    ops = [_first(kernels, lambda op, kind=kind: op[0] == kind) for kind in KERNEL_KINDS]
    palette = workloads.make_ops("palette", SEED)[0]
    mackey = _first(cli_ops, lambda op: op[1] == "mackey-test" and "S3" in op[2])
    out = str(tmp_path / "mackey.json")

    t = tracer.Tracer().install()
    try:
        problems = [(op, workloads.run_kernel(op)[0]) for op in ops]
        problems.append((palette, workloads.run_palette(palette)[0]))
        code = cli.main(mackey[2] + ["--out", out])
    finally:
        t.uninstall()
    with open(out, "rb") as fh:
        problems.append((mackey, workloads.judge_cli(mackey, code, fh.read())[0]))

    assert all(not p for _op, p in problems), problems
    assert not any(t.errors.values()), t.errors
    for name in ("hecke.cosets_reduced", "lattice.candidates", "mackey.c_axioms.cases"):
        assert t.counters.get(name, 0) > 0, name
    assert tracer.layer_metrics([t.dump()])["mackey.checks.calls"][0] > 0


def test_benchmark_cli_op_runs_clean(tmp_path, cli_ops):
    op = _first(cli_ops, lambda op: op[1] == "coeffs")
    root = os.path.dirname(BENCH)
    problems, digest, _cpu_s = workloads.run_cli(op, root, str(tmp_path / "coeffs.json"),
                                                 timeout=120)
    assert not problems, problems
    assert digest is not None
