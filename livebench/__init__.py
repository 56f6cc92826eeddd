"""Live-sync service benchmark: closed-loop JSON traffic through
:class:`repro.serve.ServeApp`, a traced per-layer run, and a
from-scratch response oracle.  Run it with ``python3 livebench/run.py``
from the repository root (see ``run.py`` for the arguments)."""
