"""The run catalog: past optimization runs, for warm starts.

A cache directory holds one thing, the run catalog under
``<dir>/catalog/``: one :class:`RunRecord` per completed run (the
reference circuit's structure key, a config summary and the final
Pareto front).  ``Session.warm_start`` reads it to seed a new
population from earlier fronts of the same circuit.  Evaluation never
reads or writes this directory.

Public surface:

* :class:`Catalog` / :class:`RunRecord` — the catalog and one entry
  (see :mod:`repro.lake.catalog`).

Which directory a session uses is decided by ``Session``: ``cache=False``
means none, else the ``cache_dir`` argument, ``FlowConfig.cache_dir``,
then ``REPRO_CACHE``.
"""

from .catalog import Catalog, RunRecord

__all__ = ["Catalog", "RunRecord"]
