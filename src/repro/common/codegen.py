"""The one entry point generated source is compiled through."""

from __future__ import annotations

import functools


@functools.lru_cache(maxsize=1024)
def compile_source(source: str, filename: str, mode: str):
    """``compile()`` memoized on the source text.

    Every task of a job (one per input partition), a container relaunched
    after a kill and a repeat submission of the same statement all
    generate identical text, so they share one immutable code object;
    each caller still ``exec``s/``eval``s it into its own namespace, so
    no function object or constant is shared.  Keyed by what it compiles,
    the cache never needs invalidating.
    """
    return compile(source, filename, mode)
