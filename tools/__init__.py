"""Repo gate scripts and the :mod:`tools.reprolint` invariant checker.

The single-file gates (``check_api.py``, which compares the public surface
with the checked-in ``api_surface.json`` snapshot, ``check_docs.py`` and
``check_lint.py``) still run as plain scripts; this package marker exists
so ``python -m tools.reprolint`` and ``python -m tools.check`` resolve from
the repo root, and so tests can import the gates.
"""
