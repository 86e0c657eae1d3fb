"""Span recorder for the traced benchmark run, and the per-layer table built from it.

The traced run replaces public functions of the package with timing
wrappers, each installed at the name its caller looks it up by (a module
global such as ``snapspec.cli.forward_encode`` or a class attribute such as
``TotalVariationDenoiser.denoise``).  Every call becomes a span carrying a
name, start, end, parent span and frame id.  Spans stay in memory until the
run ends.  Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

SETUP = "setup"


class TraceTargetMissing(RuntimeError):
    """A wrapped name no longer exists, so its layer would silently read zero."""


class Tracer:
    """In-memory spans and counters, plus the wrappers that produce them.

    ``frame`` is the id stamped on new spans: ``"setup"`` during set-up, the
    frame index during the timed section.  Spans are lists
    ``[name, start, end, parent_index, frame]``; counters are tuples
    ``(name, value, frame)``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: list[tuple] = []
        self.frame: object = SETUP
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.frame])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters.append((name, value, self.frame))

    @contextmanager
    def paused(self):
        """Record nothing inside: output checks call wrapped functions too."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``owner`` is a module or a class, and ``attr`` must be defined on it
        directly.  ``after(args, kwargs, result)`` may return counter values
        recorded once the call returns.
        """
        original = vars(owner).get(attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        if not callable(func):
            raise TraceTargetMissing(
                "trace target %s.%s does not exist" % (owner.__name__, attr)
            )
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                for counter, value in after(args, kwargs, result).items():
                    tracer.count(counter, value)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the package.

    Raises :class:`TraceTargetMissing` if a refactor removed or renamed any
    of them, so the layer it fed cannot silently report zero.
    """
    import snapspec.cli as cli
    import snapspec.fidelity as fidelity
    import snapspec.metrics as metrics
    import snapspec.optics as optics
    import snapspec.synth as synth
    import snapspec.tensorio as tensorio
    import snapspec.unfolding as unfolding

    def transfer_bytes(args, kwargs, op):
        return {"optics.transfer_bytes": op.transfer.nbytes}

    def saved(args, kwargs, result):
        return {"tensorio.bytes_written": os.path.getsize(args[1])}

    def loaded(args, kwargs, result):
        return {"tensorio.bytes_read": os.path.getsize(args[0])}

    targets = [
        # (owner, attribute, span name, counter hook)
        (cli, "forward_encode", "optics.forward_encode", None),
        (optics, "forward_encode", "optics.forward_encode", None),
        (cli, "add_noise", "optics.add_noise", None),
        (optics, "add_noise", "optics.add_noise", None),
        (cli, "build_frequency_operator", "optics.build_frequency_operator", transfer_bytes),
        (optics, "build_frequency_operator", "optics.build_frequency_operator",
         transfer_bytes),
        (optics, "apply_forward_frequency", "optics.apply_forward_frequency", None),
        (unfolding, "apply_forward_frequency", "optics.apply_forward_frequency", None),
        (fidelity, "apply_forward_frequency", "optics.apply_forward_frequency", None),
        # the gradient-descent fidelity step's lookup; the exact solver the
        # workloads use does not call it, so the layer reads zero today
        (fidelity, "apply_adjoint", "optics.apply_adjoint", None),
        (unfolding, "fidelity_solve", "fidelity.fidelity_solve", None),
        (fidelity, "block_inverse_3x3", "fidelity.block_inverse_3x3", None),
        (fidelity.FidelityProblem, "from_coded_image", "fidelity.from_coded_image", None),
        (unfolding, "reconstruct", "unfolding.reconstruct", None),
        (cli, "run_reconstruct", "unfolding.reconstruct", None),
        (unfolding, "tv_denoise", "unfolding.tv_denoise", None),
        (cli, "evaluate_metrics", "metrics.evaluate", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (metrics, "ssim", "metrics.ssim", None),
        (metrics, "sam", "metrics.sam", None),
        (metrics, "psnr", "metrics.psnr", None),
        (cli, "save_tensor", "tensorio.save_tensor", saved),
        (tensorio, "save_tensor", "tensorio.save_tensor", saved),
        (cli, "load_tensor", "tensorio.load_tensor", loaded),
        (tensorio, "load_tensor", "tensorio.load_tensor", loaded),
        (synth, "smooth_cube", "synth.smooth_cube", None),
        (synth, "rotating_psf_stack", "synth.rotating_psf_stack", None),
    ]
    # only the denoisers and the initializer that the workloads use
    for cls in (unfolding.GaussianDenoiser, unfolding.TotalVariationDenoiser,
                unfolding.QuadraticDenoiser):
        targets.append((cls, "denoise", "unfolding.%s.denoise" % cls.__name__, None))
    targets.append((unfolding.ZeroInitializer, "initialize", "unfolding.initialize", None))
    try:
        for owner, attr, name, after in targets:
            tracer.wrap(owner, attr, name, after)
    except TraceTargetMissing:
        tracer.restore()
        raise


def wrapper_cost(repeats: int = 20000) -> float:
    """Measured seconds one traced call adds over a bare call (median of 5)."""

    class Probe:
        def noop():
            return None

    tracer = Tracer()
    bare = Probe.noop
    tracer.wrap(Probe, "noop", "probe")
    wrapped = Probe.noop
    samples = []
    for _ in range(5):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(repeats):
            bare()
        mid = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        end = time.perf_counter()
        samples.append(((end - mid) - (mid - start)) / repeats)
    tracer.restore()
    samples.sort()
    return max(samples[len(samples) // 2], 0.0)


# ---------------------------------------------------------------------------
# per-layer table

_DENOISE = (
    "unfolding.GaussianDenoiser.denoise",
    "unfolding.TotalVariationDenoiser.denoise",
    "unfolding.QuadraticDenoiser.denoise",
)

# metric -> (unit, statistic, span or counter names); statistic is the
# span total ("s"), the span self time ("self_s"), the call count ("calls")
# or a counter sum ("counter")
LAYER_METRICS = {
    "optics.forward_encode_s": ("s", "s", ("optics.forward_encode",)),
    "optics.forward_encode.calls": ("count", "calls", ("optics.forward_encode",)),
    "optics.add_noise_s": ("s", "s", ("optics.add_noise",)),
    "optics.build_frequency_operator_s": ("s", "s", ("optics.build_frequency_operator",)),
    "optics.apply_forward_frequency_s": ("s", "s", ("optics.apply_forward_frequency",)),
    "optics.apply_forward_frequency.calls": (
        "count", "calls", ("optics.apply_forward_frequency",)),
    "optics.apply_adjoint_s": ("s", "s", ("optics.apply_adjoint",)),
    "fidelity.fidelity_solve_s": ("s", "s", ("fidelity.fidelity_solve",)),
    "fidelity.fidelity_solve.calls": ("count", "calls", ("fidelity.fidelity_solve",)),
    "fidelity.fidelity_solve.self_s": ("s", "self_s", ("fidelity.fidelity_solve",)),
    "fidelity.block_inverse_3x3_s": ("s", "s", ("fidelity.block_inverse_3x3",)),
    "fidelity.from_coded_image_s": ("s", "s", ("fidelity.from_coded_image",)),
    "unfolding.tv_denoise_s": ("s", "s", ("unfolding.tv_denoise",)),
    "unfolding.gaussian_denoise_s": ("s", "s", ("unfolding.GaussianDenoiser.denoise",)),
    "unfolding.denoise_s": ("s", "s", _DENOISE),
    "unfolding.denoise.calls": ("count", "calls", _DENOISE),
    "unfolding.initialize_s": ("s", "s", ("unfolding.initialize",)),
    "unfolding.reconstruct.self_s": ("s", "self_s", ("unfolding.reconstruct",)),
    "metrics.evaluate_s": ("s", "s", ("metrics.evaluate",)),
    "metrics.ssim_s": ("s", "s", ("metrics.ssim",)),
    "metrics.sam_s": ("s", "s", ("metrics.sam",)),
    "metrics.psnr_s": ("s", "s", ("metrics.psnr",)),
    "tensorio.save_tensor_s": ("s", "s", ("tensorio.save_tensor",)),
    "tensorio.load_tensor_s": ("s", "s", ("tensorio.load_tensor",)),
    "tensorio.bytes_written": ("B", "counter", ("tensorio.bytes_written",)),
    "tensorio.bytes_read": ("B", "counter", ("tensorio.bytes_read",)),
    "cli.simulate.self_s": ("s", "self_s", ("cli.simulate",)),
    "cli.reconstruct.self_s": ("s", "self_s", ("cli.reconstruct",)),
    "cli.evaluate.self_s": ("s", "self_s", ("cli.evaluate",)),
    "synth.smooth_cube_s": ("s", "s", ("synth.smooth_cube",)),
    "synth.rotating_psf_stack_s": ("s", "s", ("synth.rotating_psf_stack",)),
}


def _phase(frame) -> str:
    return SETUP if frame == SETUP else "frame"


def layer_table(tracer: Tracer, n_setups: int, n_frames: int, per_span_cost: float) -> dict:
    """Per-layer metrics as cost per set-up plus cost per frame.

    Each value is (total in set-up) / n_setups + (total in the timed
    section) / n_frames, so it does not grow with how many frames fit in
    the run.  Span totals skip spans nested in a span of the same name;
    self time is a span minus its direct children.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, frame in spans:
        if parent is not None:
            child_time[parent] += end - start

    def nested_in_same_name(index: int) -> bool:
        name = spans[index][0]
        parent = spans[index][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    totals: dict = {}  # (phase, name, statistic) -> value

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for index, (name, start, end, parent, frame) in enumerate(spans):
        phase = _phase(frame)
        add((phase, name, "calls"), 1)
        add((phase, name, "self_s"), (end - start) - child_time[index])
        if not nested_in_same_name(index):
            add((phase, name, "s"), end - start)
    for name, value, frame in tracer.counters:
        if name == "optics.transfer_bytes":
            key = ("all", name, "max")
            totals[key] = max(totals.get(key, 0), value)
        else:
            add((_phase(frame), name, "counter"), value)

    def per_unit(names, statistic) -> float:
        setup = sum(totals.get((SETUP, n, statistic), 0.0) for n in names)
        frame = sum(totals.get(("frame", n, statistic), 0.0) for n in names)
        return setup / max(n_setups, 1) + frame / max(n_frames, 1)

    table = {}
    for metric, (unit, statistic, names) in LAYER_METRICS.items():
        table[metric] = (per_unit(names, statistic), unit)
    table["optics.transfer_bytes"] = (
        totals.get(("all", "optics.transfer_bytes", "max"), 0), "B")
    reconstructs = per_unit(("unfolding.reconstruct",), "calls")
    denoises = per_unit(_DENOISE, "calls")
    table["unfolding.stages"] = (
        1 + denoises / reconstructs if reconstructs else 0.0, "count")
    n_spans = sum(1 for span in spans if span[4] != SETUP) / max(n_frames, 1)
    n_spans += sum(1 for span in spans if span[4] == SETUP) / max(n_setups, 1)
    table["trace.overhead_s"] = (n_spans * per_span_cost, "s")
    return table


def dump(tracer: Tracer) -> list[dict]:
    """Spans as JSON-ready records."""
    return [
        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "frame": frame}
        for i, (name, start, end, parent, frame) in enumerate(tracer.spans)
    ]
