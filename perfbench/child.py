"""Processes the benchmark starts: a traced CLI run and the stopping worker.

    python perfbench/child.py cli --spans FILE -- <mcoutput arguments>
    python perfbench/child.py stopping --seed N --seconds S --trace 0|1
                                       --size full|smoke --out FILE

Both expect ``PYTHONPATH`` to point at the checkout's ``src`` and the BLAS
thread count to be pinned by the caller (``run.py`` does both).
"""

import argparse
import hashlib
import json
import sys
import time

import inputs
import tracing

STOPPING_SIZES = {
    # p = 50 AR(1), rho = 0.95, innovations equicorrelated at 0.5: the
    # stopping rule fires at the 10th check (n = 320,457) with its ESS about
    # 8% above the cutoff, far from the noise, so every seed does equal work
    "full": {"p": 50, "rho": 0.95, "c": 0.5, "max_n": 400_000},
    "smoke": {"p": 3, "rho": 0.5, "c": 0.5, "max_n": 40_000},
}


def traced_cli(spans_path, argv):
    tracer = tracing.Tracer()
    tracer.install()
    import mcoutput.cli

    code = mcoutput.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


def stopping_op(path, size, tracer=None):
    """One controller run over slices of ``path``; returns an op record."""
    from mcoutput import inference

    pos = 0

    def sampler(k, rng):
        nonlocal pos
        block = path[pos:pos + k]
        pos += k
        return block

    config = inference.StoppingConfig(
        p=size["p"], use_flat_top=True, max_n=size["max_n"]
    )
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        chain, verdicts = inference.stopping_controller(sampler, config, None)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    check_stopping(path, config, chain, verdicts)
    digest = hashlib.sha256(chain.values.tobytes())
    digest.update(repr(verdicts).encode())
    return {"wall": wall, "rows": chain.rows, "digest": digest.hexdigest()}


def check_stopping(path, config, chain, verdicts):
    n = chain.rows
    last = verdicts[-1]
    inputs.check(last.n == n, f"last verdict at n={last.n}, chain has {n}")
    inputs.check(
        all(a.n < b.n for a, b in zip(verdicts, verdicts[1:])),
        "verdict lengths do not grow",
    )
    inputs.check(
        not any(v.terminate for v in verdicts[:-1]), "ran past a terminate"
    )
    inputs.check(
        last.terminate or n == config.max_n, "stopped without terminating"
    )
    inputs.check(
        last.terminate == (last.ess >= last.cutoff and n >= config.n_star),
        "terminate flag disagrees with ess and cutoff",
    )
    x = path[:n]
    inputs.check(bool((chain.values == x).all()), "chain is not the sampler's rows")
    inputs.check_close("mean", chain.values.mean(axis=0), x.mean(axis=0),
                       scale=abs(x).mean(axis=0))
    ref = inputs.reference_ess(
        x, inputs.even_cbrt_batch(n), flat_top=not last.fallback_used
    )
    inputs.check_close("ess", last.ess, ref)


def stopping_worker(seed, seconds, trace, size_name, out_path):
    import mcoutput.cli  # noqa: F401  (import cost stays out of every op)

    size = STOPPING_SIZES[size_name]
    ops, layers, overheads = [], [], []
    start = time.monotonic()
    i = 0
    while True:
        op_seed = seed * 1000 + i
        path = inputs.ar1_path(op_seed, size["max_n"], size["p"], size["rho"],
                               size["c"])
        plain = _attempt(stopping_op, path, size)
        plain["seed"] = op_seed
        ops.append(plain)
        if trace:
            tracer = tracing.Tracer()
            traced = _attempt(stopping_op, path, size, tracer)
            traced["seed"] = op_seed
            traced["traced"] = True
            if traced["ok"] and plain["ok"] and traced["digest"] != plain["digest"]:
                traced.update(ok=False, error="traced output differs")
            ops.append(traced)
            if traced["ok"] and plain["ok"]:
                layers.append(tracing.layer_metrics(tracer.spans, tracer.counters))
                overheads.append(traced["wall"] - plain["wall"])
        del path
        i += 1
        if size_name == "smoke" or time.monotonic() - start >= seconds:
            break
    with open(out_path, "w") as fh:
        json.dump({"ops": ops, "layers": layers, "overheads": overheads}, fh)


def _attempt(fn, *args):
    try:
        return {"ok": True, **fn(*args)}
    except Exception as exc:  # an op failure is recorded, not fatal
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    pc = sub.add_parser("cli")
    pc.add_argument("--spans", required=True)
    pc.add_argument("argv", nargs=argparse.REMAINDER)
    ps = sub.add_parser("stopping")
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--seconds", type=float, required=True)
    ps.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ps.add_argument("--size", choices=tuple(STOPPING_SIZES), required=True)
    ps.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return traced_cli(args.spans, rest)
    stopping_worker(args.seed, args.seconds, args.trace, args.size, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
