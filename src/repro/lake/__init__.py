"""The evaluation lakehouse: durable cross-run result caching.

Every structurally identical candidate costs one evaluation *ever*,
not one per run: :func:`repro.core.batch.evaluate_batch` consults the
lake before computing and writes through after, keyed by
``(full_structure_key, library_digest, vector_digest)`` — the exact
inputs an evaluation payload is a pure function of.  Hit-path results
are bit-identical to computed ones because only the pure parts are
stored (:func:`repro.core.fitness.eval_payload`: the five SoA timing
arrays and the dense value matrix), and
:func:`repro.core.fitness.rebuild_eval` re-runs the metric tail
against the live context on every hit.  The shard pool and pickling
move the same payload, with the sender's
:func:`repro.core.fitness.eval_fields` next to it.

Public surface:

* :class:`EvalCache` / :func:`open_cache` — the store itself;
* :func:`resolve_lake` — which lake one evaluation context uses,
  decided once by ``EvalContext.build``: an ``EvalCache``, a
  directory, ``False`` for none, or ``REPRO_CACHE``'s directory;
* :func:`library_digest` / :func:`vectors_digest` /
  :func:`context_digests` — the content-address components;
* :class:`Catalog` / :class:`RunRecord` — past-run records behind
  ``Session.warm_start``.

The store is one immutable file per composite key under
``<dir>/records/``, so the filesystem is the index (see
:mod:`repro.lake.cache`).  See ``repro cache {stats,gc}`` for the
maintenance CLI.
"""

from .cache import (
    EvalCache,
    flush_open_caches,
    open_cache,
    resolve_lake,
)
from .catalog import Catalog, RunRecord
from .keys import context_digests, library_digest, vectors_digest

__all__ = [
    "EvalCache",
    "Catalog",
    "RunRecord",
    "context_digests",
    "flush_open_caches",
    "library_digest",
    "open_cache",
    "resolve_lake",
    "vectors_digest",
]
