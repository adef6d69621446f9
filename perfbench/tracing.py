"""Spans and counters at mcoutput's module boundaries, recorded from outside.

Nothing under ``src/`` knows about tracing. :meth:`Tracer.install` swaps
the public functions listed in ``_FUNCTION_SPANS`` for timing wrappers, in
every mcoutput module namespace that holds a reference to them, and also
wraps ``ChainMatrix.__init__`` and ``numpy.linalg.cholesky``/``eigvalsh``;
:meth:`Tracer.uninstall` puts the originals back. Spans stay in memory until the caller writes
them out.

A span is (id, parent id, name, start ns, end ns). A layer's self time is
its span's duration minus the durations of its direct child spans.
"""

import os
import time

import numpy as np

# (module, function) pairs timed as spans; the span name is "module.function"
_FUNCTION_SPANS = (
    ("cli", "cmd_demo"),
    ("cli", "cmd_analyze"),
    ("cli", "read_chain_csv"),
    ("cli", "dumps_report"),
    ("lcd_demo", "run_demo"),
    ("inference", "stopping_controller"),
    ("inference", "evaluate_verdict"),
    ("inference", "hotelling_region"),
    ("mcse", "batch_means_sigma"),
    ("mcse", "flat_top_sigma"),
    ("mcse", "sample_cov_lambda"),
    ("mcse", "correlogram"),
    ("quantiles", "quantile_ci"),
    ("quantiles", "kde_at"),
)

# mcse estimators whose chain argument is counted in mcse.bytes_read
_MCSE_READERS = (
    "mcse.batch_means_sigma",
    "mcse.sample_cov_lambda",
    "mcse.correlogram",
)

MODULES = ("chain", "errors", "mcse", "inference", "quantiles", "lcd_demo", "cli")


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def open_names(self):
        return [self.spans[i][2] for i in self._stack]

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([index, parent, name, time.perf_counter_ns(), 0])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][4] = time.perf_counter_ns()

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap mcoutput's layer boundaries; undo with :meth:`uninstall`."""
        import mcoutput
        import mcoutput.cli  # noqa: F401  (loads every submodule)

        namespaces = [mcoutput] + [getattr(mcoutput, m) for m in MODULES]
        for module_name, fn_name in _FUNCTION_SPANS:
            original = getattr(getattr(mcoutput, module_name), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)
        self._patch_chain_matrix(mcoutput.chain.ChainMatrix)
        for fn_name in ("cholesky", "eigvalsh"):
            self._patch(np.linalg, fn_name,
                        self._factorization(getattr(np.linalg, fn_name)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, original):
        special = {
            "inference.stopping_controller": self._controller,
            "inference.evaluate_verdict": self._verdict,
            "cli.read_chain_csv": self._read_chain,
            "quantiles.kde_at": self._kde,
        }.get(name)

        def wrapper(*args, **kwargs):
            if name in _MCSE_READERS:
                self.count("mcse.bytes_read", args[0].values.nbytes)
            if special is not None:
                return special(name, original, *args, **kwargs)
            return self.call(name, original, *args, **kwargs)

        return wrapper

    def _patch_chain_matrix(self, cls):
        original = cls.__init__

        def __init__(obj, data, labels=None):
            self.call("chain.ChainMatrix", original, obj, data, labels)
            self.count("chain.bytes_copied", obj.values.nbytes)

        self._patch(cls, "__init__", __init__)

    def _factorization(self, original):
        def wrapper(*args, **kwargs):
            if "inference.evaluate_verdict" in self.open_names():
                self.count("inference.factorizations", 1)
            return original(*args, **kwargs)

        return wrapper

    # -- boundaries that also read counters ------------------------------

    def _controller(self, name, original, sampler, config, rng, *args, **kwargs):
        from mcoutput.chain import RngStream
        from mcoutput.lcd_demo import _WeibullGibbsSampler

        if isinstance(sampler, _WeibullGibbsSampler):
            span_name = "lcd_demo.sampler"
        else:
            span_name = "bench.sampler"

        def traced_sampler(k, r):
            if span_name == "lcd_demo.sampler":
                self.count("lcd_demo.scans", k)
            return self.call(span_name, sampler, k, r)

        draws_before = _philox_draws(rng) if isinstance(rng, RngStream) else 0
        result = self.call(name, original, traced_sampler, config, rng,
                           *args, **kwargs)
        if isinstance(rng, RngStream):
            self.count("chain.uniforms", _philox_draws(rng) - draws_before)
        if isinstance(sampler, _WeibullGibbsSampler):
            self.count("lcd_demo.accepted", sampler.accepted)
            self.count("lcd_demo.attempts", sampler.steps)
        return result

    def _verdict(self, name, original, chain, config, *args, **kwargs):
        result = self.call(name, original, chain, config, *args, **kwargs)
        if config.use_flat_top:
            self.count("inference.flat_top_requested", 1)
            if not result[0].fallback_used:
                self.count("inference.flat_top_usable", 1)
        return result

    def _read_chain(self, name, original, path):
        self.count("cli.bytes_read", os.path.getsize(path))
        return self.call(name, original, path)

    def _kde(self, name, original, v, x):
        self.count("quantiles.kde_evals", np.size(x) * np.size(v))
        return self.call(name, original, v, x)


def _philox_draws(rng):
    """64-bit outputs the stream's Philox generator has handed out so far.

    Philox-4x64 fills a four-word buffer per counter step; every double
    from ``random()`` consumes one word. The constant offset cancels in a
    difference of two readings.
    """
    state = rng._gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + int(state["buffer_pos"])


# ---------------------------------------------------------------------------
# span arithmetic


def span_times(spans):
    """Per span name: (count, inclusive seconds, self seconds)."""
    child_ns = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for index, _, name, start, end in spans:
        count, incl, own = out.get(name, (0, 0.0, 0.0))
        dur = end - start
        out[name] = (count + 1, incl + dur * 1e-9,
                     own + (dur - child_ns[index]) * 1e-9)
    return out


def layer_metrics(spans, counters, bytes_written=0):
    """Per-layer metrics of one traced op; 0 where a layer did no work."""
    times = span_times(spans)

    def self_s(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    def incl_s(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    c = counters.get
    scans = c("lcd_demo.scans", 0)
    verdicts = calls("inference.evaluate_verdict")
    return {
        "cli.read_chain_s": self_s("cli.read_chain_csv"),
        "cli.read_mb_per_s": ratio(c("cli.bytes_read", 0),
                                   incl_s("cli.read_chain_csv"), 1e-6),
        "cli.write_s": self_s("cli.cmd_demo"),
        "cli.bytes_written": bytes_written,
        "cli.report_s": self_s("cli.dumps_report"),
        "lcd_demo.scan_us": ratio(incl_s("lcd_demo.sampler"), scans, 1e6),
        "lcd_demo.scans": scans,
        "lcd_demo.accept_rate": ratio(c("lcd_demo.accepted", 0),
                                      c("lcd_demo.attempts", 0)),
        "chain.uniforms_per_scan": ratio(c("chain.uniforms", 0), scans),
        "chain.chainmatrix_s": self_s("chain.ChainMatrix"),
        "chain.bytes_copied": c("chain.bytes_copied", 0),
        "mcse.batch_means_s": self_s("mcse.batch_means_sigma"),
        "mcse.flat_top_s": self_s("mcse.flat_top_sigma"),
        "mcse.sample_cov_s": self_s("mcse.sample_cov_lambda"),
        "mcse.correlogram_s": self_s("mcse.correlogram"),
        "mcse.bytes_read": c("mcse.bytes_read", 0),
        "inference.verdict_ms": ratio(incl_s("inference.evaluate_verdict"),
                                      verdicts, 1e3),
        "inference.verdicts": verdicts,
        "inference.controller_self_s": self_s("inference.stopping_controller"),
        "inference.factorizations_per_verdict": ratio(
            c("inference.factorizations", 0), verdicts),
        "inference.flat_top_usable_ratio": ratio(
            c("inference.flat_top_usable", 0),
            c("inference.flat_top_requested", 0)),
        "inference.hotelling_ms": ratio(incl_s("inference.hotelling_region"),
                                        calls("inference.hotelling_region"),
                                        1e3),
        "quantiles.kde_s": self_s("quantiles.kde_at"),
        "quantiles.kde_evals": c("quantiles.kde_evals", 0),
        "quantiles.quantile_ci_s": self_s("quantiles.quantile_ci"),
    }


# ---------------------------------------------------------------------------
# import time


def import_ms(stderr_text):
    """Attribute ``-X importtime`` self times to mcoutput modules.

    Every imported module is charged to the nearest mcoutput module on its
    import chain (itself included), so a dependency counts against the
    mcoutput module that pulled it in first. Returns milliseconds keyed
    ``<module>.import_ms``; the package ``__init__`` is ``mcoutput``.
    """
    nodes = []  # (depth, name, self_us, children), in post-order
    stack = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        node = (depth, name.strip(), int(self_us), children)
        nodes.append(node)
        stack.append(node)

    totals = {"mcoutput": 0.0, **{m: 0.0 for m in MODULES}}

    def charge(node, owner):
        _, name, self_us, children = node
        if name == "mcoutput" or name.startswith("mcoutput."):
            short = name.split(".", 1)[1] if "." in name else "mcoutput"
            owner = short if short in totals else owner
        if owner is not None:
            totals[owner] += self_us / 1e3
        for child in children:
            charge(child, owner)

    for root in stack:
        charge(root, None)
    return {f"{m}.import_ms": ms for m, ms in totals.items()}
