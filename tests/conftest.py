"""One Hypothesis profile for every property test: the same examples on
every run (derandomized, no example database) and no per-example
deadline. Each test sets only its own `max_examples`."""

from hypothesis import settings

settings.register_profile("graphfill", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("graphfill")
