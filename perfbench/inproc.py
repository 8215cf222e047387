"""Run subent commands in one interpreter through `subent.cli.main(argv)`.

With `--trace 1`, spans are recorded around calls that cross into each
subent module, by rebinding names in the calling modules from here; nothing
in the package changes. Spans stay in memory and are reduced to per-layer
metrics when the commands finish. Prints one JSON line.

    python3 perfbench/inproc.py --trace 1 --out-dir DIR --commands '[["estimate", ...]]'
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import sys
import time
import traceback
import types
from collections import Counter
from pathlib import Path

# Functions of `identities` outside the exact identity checks; each oracle
# call is one quadrature check, and the closed moment form it is compared with
# counts towards quadrature time.
_QUADRATURE_ORACLES = {"selberg_quadrature_oracle", "aomoto_quadrature_oracle"}
_QUADRATURE = _QUADRATURE_ORACLES | {"aomoto_moment_closed"}
# Montecarlo estimators that draw samples themselves; the sweep only calls them.
_LEAF_ESTIMATORS = {"estimate_functional", "tail_experiment"}


class Tracer:
    """In-memory spans and counters at module boundaries.

    A span's self time is its duration minus that of its direct children.
    Inclusive times count only the outermost span of each kind, so nested
    calls of one kind are not counted twice.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [kind, info, child seconds]
        self.open = Counter()
        self.inclusive = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.draws: set = set()

    def call(self, kind: str, info, fn, args, kwargs):
        frame = [kind, info, 0.0]
        self.stack.append(frame)
        self.open[kind] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self.open[kind] -= 1
            self.counts[kind + ".calls"] += 1
            self.self_s[kind.split(".")[0]] += elapsed - frame[2]
            if self.stack:
                self.stack[-1][2] += elapsed
            if not self.open[kind]:
                self.inclusive[kind] += elapsed

    def innermost(self, kind: str):
        for frame in reversed(self.stack):
            if frame[0] == kind and frame[1] is not None:
                return frame[1]
        return None

    def wrap(self, fn, kind: str, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = before(*args, **kwargs) if before else None
            return tracer.call(kind, info, fn, args, kwargs)

        return traced


def _traced_namespace(module, wrap) -> types.SimpleNamespace:
    """The module as one caller sees it, with the module's own functions traced."""
    return types.SimpleNamespace(**{
        name: wrap(name, value)
        if isinstance(value, types.FunctionType) and value.__module__ == module.__name__
        else value
        for name, value in vars(module).items()
    })


def install(tracer: Tracer) -> None:
    """Rebind the names through which subent modules call one another."""
    import mpmath
    import numpy as np

    from subent import cli, entangle, identities, montecarlo, sampling

    def estimator_args(fn):
        if fn.__name__ not in _LEAF_ESTIMATORS:
            return None
        signature = inspect.signature(fn)

        def before(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            chunks = math.ceil(a["samples"] / a["chunk"])
            tracer.counts["montecarlo.chunks"] += chunks
            tracer.counts["montecarlo.pool_starts"] += chunks > 1
            return a["m"], a["n"]

        return before

    for name in ("estimate_functional", "tail_experiment", "concentration_sweep"):
        original = getattr(montecarlo, name)
        setattr(montecarlo, name, tracer.wrap(original, "montecarlo", estimator_args(original)))
    entangle.estimate_functional = montecarlo.estimate_functional

    def draw(gen, count):
        state = gen.bit_generator.state
        key = (tuple(state["state"]["key"]), tuple(state["state"]["counter"]),
               state["buffer_pos"], count)
        tracer.counts["sampling.values"] += count
        shape = tracer.innermost("montecarlo")
        if shape:
            samples = count // (shape[0] * shape[1])
            tracer.counts["montecarlo.samples_drawn"] += samples
            if key not in tracer.draws:
                tracer.counts["montecarlo.samples_requested"] += samples
        tracer.draws.add(key)

    normals = tracer.wrap(montecarlo.complex_normals, "sampling.complex_normals", draw)
    montecarlo.complex_normals = sampling.complex_normals = normals

    generator = sampling.RngStream.generator

    @functools.wraps(generator)
    def counted_generator(self):
        tracer.counts["sampling.generators"] += 1
        return generator(self)

    sampling.RngStream.generator = counted_generator

    def count(label):
        def before(*args, **kwargs):
            tracer.counts[label] += 1
        return before

    def rows(label):
        def before(values, *args, **kwargs):
            tracer.counts[label] += math.prod(np.shape(values)[:-1])
        return before

    montecarlo.entropy_values = tracer.wrap(
        montecarlo.entropy_values, "qcore.entropy_values", rows("qcore.entropy_rows"))
    montecarlo.subentropy_values = tracer.wrap(
        montecarlo.subentropy_values, "qcore.subentropy_values", rows("qcore.subentropy_rows"))

    def eigvalsh_rows(a, *args, **kwargs):
        tracer.counts["montecarlo.eigvalsh_rows"] += math.prod(np.shape(a)[:-2])

    np.linalg.eigvalsh = tracer.wrap(np.linalg.eigvalsh, "numpy.eigvalsh", eigvalsh_rows)

    workdps = mpmath.workdps

    @functools.wraps(workdps)
    def counted_workdps(n, *args, **kwargs):
        tracer.counts["qcore.mp_precision_passes"] += 1
        tracer.counts["qcore.subentropy_escalated_rows"] += n == 40
        return workdps(n, *args, **kwargs)

    mpmath.workdps = counted_workdps

    cli.closedform = _traced_namespace(cli.closedform, lambda name, fn: tracer.wrap(fn, "closedform"))
    cli._TARGETS = {k: tracer.wrap(fn, "closedform") for k, fn in cli._TARGETS.items()}
    identities.harmonic = tracer.wrap(identities.harmonic, "closedform")
    montecarlo.levy_coherence_bound = tracer.wrap(montecarlo.levy_coherence_bound, "closedform")
    cli.identities = _traced_namespace(identities, lambda name, fn: tracer.wrap(
        fn, "identities.quadrature" if name in _QUADRATURE else "identities.exact",
        count("identities.quadrature_checks") if name in _QUADRATURE_ORACLES else None))
    cli.average_embedded_entanglement = tracer.wrap(cli.average_embedded_entanglement, "entangle")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans and counters of one traced run."""
    incl, counts = tracer.inclusive, tracer.counts

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    return {
        "cli.main_s": incl["cli"],
        "cli.self_s": tracer.self_s["cli"],
        "montecarlo.s": incl["montecarlo"],
        "montecarlo.self_s": tracer.self_s["montecarlo"],
        "montecarlo.ns_per_sample": per(incl["montecarlo"], counts["montecarlo.samples_drawn"], 1e9),
        "montecarlo.eigvalsh_s": incl["numpy.eigvalsh"],
        "montecarlo.eigvalsh_rows": counts["montecarlo.eigvalsh_rows"],
        "montecarlo.calls": counts["montecarlo.calls"],
        "montecarlo.chunks": counts["montecarlo.chunks"],
        "montecarlo.pool_starts": counts["montecarlo.pool_starts"],
        "montecarlo.samples_requested": counts["montecarlo.samples_requested"],
        "montecarlo.samples_drawn": counts["montecarlo.samples_drawn"],
        "montecarlo.useful_draw_ratio": per(counts["montecarlo.samples_requested"],
                                            counts["montecarlo.samples_drawn"]),
        "sampling.complex_normals_s": incl["sampling.complex_normals"],
        "sampling.values": counts["sampling.values"],
        "sampling.ns_per_value": per(incl["sampling.complex_normals"], counts["sampling.values"], 1e9),
        "sampling.generators": counts["sampling.generators"],
        "qcore.entropy_values_s": incl["qcore.entropy_values"],
        "qcore.entropy_rows": counts["qcore.entropy_rows"],
        "qcore.subentropy_values_s": incl["qcore.subentropy_values"],
        "qcore.subentropy_rows": counts["qcore.subentropy_rows"],
        "qcore.subentropy_ns_per_row": per(incl["qcore.subentropy_values"],
                                           counts["qcore.subentropy_rows"], 1e9),
        "qcore.subentropy_escalated_rows": counts["qcore.subentropy_escalated_rows"],
        "qcore.subentropy_escalation_share": per(counts["qcore.subentropy_escalated_rows"],
                                                 counts["qcore.subentropy_rows"]),
        "qcore.mp_precision_passes": counts["qcore.mp_precision_passes"],
        "closedform.s": incl["closedform"],
        "closedform.calls": counts["closedform.calls"],
        "identities.exact_s": incl["identities.exact"],
        "identities.exact_checks": counts["identities.exact.calls"],
        "identities.quadrature_s": incl["identities.quadrature"],
        "identities.quadrature_checks": counts["identities.quadrature_checks"],
        "entangle.s": incl["entangle"],
        "entangle.calls": counts["entangle.calls"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True, help="one output file per command")
    parser.add_argument("--commands", required=True, help="JSON list of argv lists")
    args = parser.parse_args()
    commands = json.loads(args.commands)

    from subent import cli

    tracer = Tracer()
    if args.trace:
        install(tracer)
    main_s, codes = [], []
    for index, argv in enumerate(commands):
        with open(Path(args.out_dir) / f"cmd{index}.out", "w", encoding="utf-8") as handle:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(handle):
                    code = tracer.call("cli", None, cli.main, (argv,), {})
            except Exception:  # the parent counts the command as failed
                traceback.print_exc()
                code = -1
            main_s.append(time.perf_counter() - start)
            codes.append(code)
    report = {"main_s": main_s, "returncodes": codes}
    if args.trace:
        report["layers"] = layer_metrics(tracer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
