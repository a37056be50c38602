"""Support code of the jamflow benchmark: workloads, output checks, tracing.

``workloads`` imports only the standard library, so a worker can load it
before timing ``import jamflow``.
"""
