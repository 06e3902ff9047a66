"""Self-tests of the benchmark harness, not of zzlie.

    python3 zzbench/selftest.py

Checks that the input generator is deterministic and that a traced run
puts every wrapped attribute back.  Exits 0 when all checks pass.
"""

import dataclasses
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zzlie import cli  # noqa: E402
from zzlie.algebras import AlgebraSpec, DomainError  # noqa: E402
from zzlie.poly import MultiPoly  # noqa: E402

SEEDS = (0, 1, 2, 17, 12345)

# Small windows so that a traced pass takes well under a second.
SMALL_WINDOW = {
    "table": 1, "solve": 4, "impossibility": 3, "module-check": 3,
    "intertwine": 4, "isomorphism": 2,
}


def check_generator_deterministic():
    assert run.WORKLOADS == workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, SEEDS[0])
        for seed in SEEDS:
            ops = workloads.generate(name, seed)
            assert ops == workloads.generate(name, seed), (name, seed)
            assert [op.shape() for op in ops] == [op.shape() for op in first], (name, seed)
    # the inputs must not depend on the interpreter's hash seed
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import workloads; "
        "print(repr([workloads.generate(w, 5) for w in workloads.WORKLOADS]))"
    ) % (HERE, SRC)
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONHASHSEED=h),
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        for h in ("1", "2")
    }
    assert len(outputs) == 1, "inputs differ between hash seeds"
    assert outputs == {repr([workloads.generate(w, 5) for w in workloads.WORKLOADS]) + "\n"}


def _small_ops():
    ops = []
    for name in workloads.WORKLOADS:
        for op in workloads.generate(name, 3):
            window = SMALL_WINDOW.get(op.name, 1)
            ops.append(dataclasses.replace(op, window=window))
    return ops


def _traced_pass(tracer, ops, runs):
    tracer.clear()
    for op, run in zip(ops, runs):
        tracer.install()
        try:
            result = run()
        finally:
            tracer.uninstall()
        ok, _, message = workloads.check(op, result)
        assert ok, (op, message)
    return tracer.span_stats()


def check_tracer_restores():
    before = {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, _, _ in tracing.targets()
    }
    tracer = tracing.Tracer()
    ops = _small_ops()
    runs = [workloads.prepare(op) for op in ops]
    first = _traced_pass(tracer, ops, runs)
    second = _traced_pass(tracer, ops, runs)
    # a call that raises inside a wrapper still closes its span
    tracer.install()
    try:
        AlgebraSpec("block", 1, 2).basis_bracket((-1, 2), (0, 0))
    except DomainError:
        pass
    finally:
        tracer.uninstall()
    assert tracer.restored()
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, (owner, attr)
    assert MultiPoly.__dict__["__rmul__"] is MultiPoly.__dict__["__mul__"]
    assert MultiPoly.__dict__["__radd__"] is MultiPoly.__dict__["__add__"]
    assert cli.main is before[(cli, "main")]

    # identical inputs give identical call counts, and self time never
    # exceeds inclusive time
    assert {k: v[0] for k, v in first.items()} == {k: v[0] for k, v in second.items()}
    for name, (calls, total, own) in second.items():
        assert 0 <= own <= total + 1e-9, name
    for name in ("verify.sweep", "classify.solve", "virmodules.act", "cli.main",
                 "verify.isomorphism", "poly.mul", "linsolve.add_equation"):
        assert second[name][0] > 0, f"no {name} spans recorded"
    assert tracer._stack == [-1]


def main():
    for check in (check_generator_deterministic, check_tracer_restores):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
