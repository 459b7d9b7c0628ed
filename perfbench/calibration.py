"""Machine-speed calibration for timed runs.

On a shared machine the CPU speed a process gets drifts by 20-40 % over
minutes, so raw timings of the same program spread more between runs than
any useful bound.  Three fixed jobs that never touch ``pageseq`` are timed
around and during each of the program's commands, and each timed sample is
scaled by the speed they show.  A change to the program does not change the
jobs, so it still shows in full.

The drift hits interpreted Python far harder than vectorized numpy, so one
job cannot stand in for all the program's work.

- The ``python`` job parses and writes JSON, tokenizes into a dict and does
  small numpy gathers, like corpus handling.  Its speed switches between
  two levels, about 1.8x apart, every second or two.  It is timed just
  before and just after each command, and a command's ``python`` speed
  comes from those two probes.  That suits commands shorter than a speed
  level lasts.
- The ``batch`` and ``page`` jobs run two tiny pre-LN transformer layers on
  random data: ``batch`` as one forward call on two 40-token pages, like
  the tiny transformer's training steps; ``page`` as one forward call per
  page on three pages of 8-40 tokens, like its per-page decoding.  Each
  probe tracked the command shaped like it far better than the other
  probe did.  The tiny transformer's commands last several seconds and
  span several speed levels, so both jobs are timed every
  ``SAMPLE_PERIOD_S`` of wall time *while* a command runs, from a SIGALRM
  handler in the benchmark's single thread.  A command's ``batch`` and
  ``page`` speeds come from the medians of those probes.  They add about
  3 % to the command's time, the same on every commit.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from contextlib import contextmanager

# Median time of each job on the machine the baseline was measured on.
# Only the scale of the normalized values depends on them.
REFERENCE_S = {"python": 0.0089, "batch": 0.0025, "page": 0.0025}
SAMPLE_PERIOD_S = 0.15
DURING = ("batch", "page")  # the jobs timed while a command runs


class Calibration:
    def __init__(self):
        import numpy as np  # after the caller has fixed the BLAS threads

        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(300)]
        self.lines = [json.dumps({"doc_id": f"d{i}", "page_index": i % 9,
                                  "labels": ["c1"],
                                  "text": " ".join(rng.choice(words, 8)) + "."})
                      for i in range(480)]
        self.emb = rng.standard_normal((300, 32))
        self.head = rng.standard_normal((32, 4))
        self.x = rng.standard_normal((2, 40, 32)) * 0.1
        # token ids of three pages, 8-40 tokens long, like the transformer corpus
        self.pages = [rng.integers(0, 300, size=n) for n in (8, 24, 40)]
        self.w = {name: rng.standard_normal(shape) * 0.1 for name, shape in
                  (("q", (32, 32)), ("k", (32, 32)), ("v", (32, 32)),
                   ("o", (32, 32)), ("ff1", (32, 128)), ("ff2", (128, 32)))}
        self._np = np
        self.samples: dict[str, list[float]] = {job: [] for job in REFERENCE_S}
        self._during = {"batch": self._batch_job, "page": self._page_job}

    def probe(self) -> float:
        """Time the ``python`` job once."""
        return self._time("python", self._python_job)

    @contextmanager
    def sampling(self):
        """Time the ``DURING`` jobs every ``SAMPLE_PERIOD_S`` while the block
        runs; yields the lists the times go to, by job, which hold at least
        one time each once the block has ended."""
        times: dict[str, list[float]] = {job: [] for job in DURING}
        busy = False

        def probe_all():
            for job in DURING:
                times[job].append(self._time(job, self._during[job]))

        def tick(_signum, _frame):
            nonlocal busy
            if not busy:  # a tick that lands inside the jobs is dropped
                busy = True
                probe_all()
                busy = False

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield times
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not times[DURING[0]]:  # the block was shorter than one period
            probe_all()

    def speeds(self) -> dict[str, float]:
        """How much faster than the reference machine this run did each kind
        of work, by the median time of each job over the run."""
        return {job: REFERENCE_S[job] / statistics.median(samples)
                for job, samples in self.samples.items()}

    @staticmethod
    def command_speeds(before: float, after: float,
                       during: dict[str, list[float]]) -> dict[str, float]:
        """The speed of each kind of work during one command: ``python``
        from the probes just before and after it, the ``DURING`` jobs from
        the probes while it ran."""
        speeds = {"python": REFERENCE_S["python"] / (before * after) ** 0.5}
        for job, times in during.items():
            speeds[job] = REFERENCE_S[job] / statistics.median(times)
        return speeds

    def _time(self, name: str, job) -> float:
        started = time.perf_counter()
        job()
        seconds = time.perf_counter() - started
        self.samples[name].append(seconds)
        return seconds

    def _python_job(self) -> None:
        np = self._np
        rows = [json.loads(line) for line in self.lines]
        counts: dict[str, int] = {}
        for row in rows:
            for tok in row["text"].lower().split():
                tok = tok.strip(".,")
                counts[tok] = counts.get(tok, 0) + 1
        ids = np.array([int(tok[1:]) for tok in counts], dtype=np.int64)
        for i in range(240):
            window = ids[i % (len(ids) - 12):][:12]
            (self.emb[window].mean(axis=0) @ self.head).argmax()
        json.dumps(rows, sort_keys=True)

    def _batch_job(self) -> None:
        self._layers(self.x)

    def _page_job(self) -> None:
        for ids in self.pages:
            (self._layers(self.emb[ids][None] * 0.1).mean(axis=1) @ self.head).argmax()

    def _layers(self, x):
        np, w = self._np, self.w
        b, length, d = x.shape

        def heads(t):
            return t.reshape(b, length, 2, d // 2).transpose(0, 2, 1, 3)

        for _ in range(2):
            a = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
            q, k, v = (heads(a @ w[name]) for name in "qkv")
            logits = q @ k.transpose(0, 1, 3, 2) / 4.0
            p = np.exp(logits - logits.max(-1, keepdims=True))
            p /= p.sum(-1, keepdims=True)
            x = x + (p @ v).transpose(0, 2, 1, 3).reshape(b, length, d) @ w["o"]
            h = x @ w["ff1"]
            x = x + 0.5 * h * (1.0 + np.tanh(0.7978846 * (h + 0.044715 * h ** 3))) @ w["ff2"]
        return x
