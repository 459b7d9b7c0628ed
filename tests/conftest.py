"""Suite-wide test settings.

Hypothesis runs derandomized (a fixed sequence of examples on every run) and
without per-example deadlines, so that the suite is deterministic and a slow
machine cannot fail it.
"""

from hypothesis import settings

settings.register_profile("pageseq", derandomize=True, deadline=None)
settings.load_profile("pageseq")
