"""Fleet hook: ``REPRO_PRELOAD=perfbench.preload`` traces fleet processes.

The experiment service imports this module in the dispatcher and in every
worker it starts.  With ``PERFBENCH_TRACE_DIR`` set, the import installs
the benchmark's span wrappers; workers flush their spans after each cell
and every process flushes at exit.  Without it the import does nothing.
"""

from perfbench.tracing import install_from_env

TRACER = install_from_env()
