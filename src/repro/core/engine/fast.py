"""The fast engine: the legacy loop under its own name.

Fixed-width rounds cross the legacy loop's wire as plain ints (see
:mod:`repro.core.engine.legacy`), so that loop is the fast one, and
``fast`` runs it.  The name stays registered in
:data:`~repro.core.engine.ENGINES` while the protocol specs, tests and
benchmarks that name it are moved to ``legacy``.
"""

from repro.core.engine.legacy import run_many

__all__ = ["run_many"]
