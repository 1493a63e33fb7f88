"""In-memory span tracer wrapping the pipeline's layer functions from outside.

`robustsv.experiment` imports its layer functions by name, so a span has to
wrap the name bound in the module that calls it; patching only the defining
module would miss the pipeline's calls. `TARGETS` lists every binding the
traced run replaces. Each span records its name, start, end and parent;
counters record work done at the same boundary. Nothing is written until
`Tracer.summary` is called at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

from robustsv.spectral import frame_count


def _arg(fn, name: str, args, kwargs):
    """One argument of a call by parameter name, positional or keyword."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# counter callbacks: (counts, fn, args, kwargs, result) -> None

def _count_corpus(counts, fn, args, kwargs, result):
    counts["corpus.utts"] += len(result[0])


def _count_features(counts, fn, args, kwargs, result):
    counts["features.extract.frames"] += result.frames.shape[0]


def _count_dataset(counts, fn, args, kwargs, result):
    x, y = result
    counts["enhancement.dataset.rows"] += x.shape[0]
    counts["enhancement.dataset.bytes"] += x.nbytes + y.nbytes


def _count_train(counts, fn, args, kwargs, result):
    # computed, not measured: multiply-adds of forward, weight gradient and
    # back-propagated delta (no delta into the input layer), 2 flops each
    rows = args[0].shape[0]
    epochs = len(result.loss_trace)
    macs = [w.shape[0] * w.shape[1] for w in result.weights]
    per_row = 2 * (2 * sum(macs) + sum(macs[1:]))
    counts["enhancement.train.epochs"] += epochs
    counts["enhancement.train.flop"] += per_row * rows * epochs


def _count_enhance(counts, fn, args, kwargs, result):
    counts["enhancement.enhance.frames"] += frame_count(len(args[1]))


def _count_ubm(counts, fn, args, kwargs, result):
    counts["backend.ubm.iters"] += len(result.loglik_trace)


def _count_bw(counts, fn, args, kwargs, result):
    counts["backend.bw_stats.frames"] += args[0].shape[0]


def _count_tmatrix(counts, fn, args, kwargs, result):
    counts["backend.tmatrix.iters"] += _arg(fn, "iters", args, kwargs)


def _count_trials(counts, fn, args, kwargs, result):
    counts["evaluation.trials"] += len(args[0])


def _count_hashed(counts, fn, args, kwargs, result):
    counts["manifest.hashed_bytes"] += os.path.getsize(args[0])


# (module, attribute, span name or None for a counter only, counter)
TARGETS = (
    ("robustsv.experiment", "build_corpus", "corpus.build", _count_corpus),
    ("robustsv.experiment", "corrupt", "corruption.corrupt", None),
    ("robustsv.evaluation", "corrupt", "corruption.corrupt", None),
    ("robustsv.experiment", "rir_pair", "corruption.rir_pair", None),
    ("robustsv.experiment", "build_noise_pool", "corruption.noise_pool", None),
    ("robustsv.experiment", "stft", "spectral.stft", None),
    ("robustsv.enhancement.enhance", "stft", "spectral.stft", None),
    ("robustsv.experiment", "read_wav", "audio.read_wav", None),
    ("robustsv.corruption.rir", "read_wav", "audio.read_wav", None),
    ("robustsv.experiment", "write_wav", "audio.write_wav", None),
    ("robustsv.corruption.rir", "write_wav", "audio.write_wav", None),
    ("robustsv.experiment", "extract_features", "features.extract",
     _count_features),
    ("robustsv.experiment", "read_feature_archive", "features.archive_io",
     None),
    ("robustsv.experiment", "write_feature_archive", "features.archive_io",
     None),
    ("robustsv.experiment", "save_container", "container.io", None),
    ("robustsv.experiment", "load_container", "container.io", None),
    ("robustsv.backend.gmm", "save_container", "container.io", None),
    ("robustsv.backend.gmm", "load_container", "container.io", None),
    ("robustsv.backend.ivector", "save_container", "container.io", None),
    ("robustsv.backend.ivector", "load_container", "container.io", None),
    ("robustsv.enhancement.mlp", "save_container", "container.io", None),
    ("robustsv.enhancement.mlp", "load_container", "container.io", None),
    ("robustsv.experiment", "build_enhancer_set", "enhancement.dataset",
     _count_dataset),
    ("robustsv.experiment", "train_mlp", "enhancement.train", _count_train),
    ("robustsv.enhancement.mlp", "loss_and_grads",
     "enhancement.loss_and_grads", None),
    ("robustsv.experiment", "enhance_waveform", "enhancement.enhance",
     _count_enhance),
    ("robustsv.experiment", "train_ubm", "backend.ubm", _count_ubm),
    ("robustsv.experiment", "bw_stats", "backend.bw_stats", _count_bw),
    ("robustsv.experiment", "train_tmatrix", "backend.tmatrix",
     _count_tmatrix),
    ("robustsv.experiment", "extract_ivector", "backend.extract_ivector",
     None),
    ("robustsv.experiment", "train_lda", "backend.lda", None),
    ("robustsv.experiment", "apply_lda", "backend.lda", None),
    ("robustsv.experiment", "train_plda", "backend.plda_train", None),
    ("robustsv.experiment", "score_trials", "evaluation.score_trials",
     _count_trials),
    ("robustsv.experiment", "eer_from_scoreset", "evaluation.eer", None),
    ("robustsv.experiment", "verify_chain", "manifest.verify_chain", None),
    ("robustsv.experiment", "hash_stage_outputs", "manifest.hash_outputs",
     None),
    ("robustsv.experiment", "stage_is_fresh", "manifest.stage_is_fresh",
     None),
    ("robustsv.manifest", "hash_file", None, _count_hashed),
)


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 is the root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name, counter=None) -> None:
        """Replace owner.attr with a traced call.

        `name` is a span name, a callable mapping the call's arguments to
        one, or None to count without a span.
        """
        fn = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = [name(args) if callable(name) else name, 0.0, 0.0,
                        stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
            if counter is not None:
                counter(counts, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def install(self) -> None:
        for module, attr, name, counter in TARGETS:
            self.wrap(importlib.import_module(module), attr, name, counter)

    def summary(self) -> dict:
        """Per span name: calls, total time and self time (total minus the
        time of child spans). No target calls another target of its own
        name, so totals do not double-count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        return {"spans": table, "counts": dict(self.counts)}
