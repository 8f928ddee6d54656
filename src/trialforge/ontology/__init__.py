"""Vocabulary linking: drugs, conditions, adverse events, biomarkers, endpoints.

Each submodule owns one vocabulary. Everything operates on small TSV
subsets shipped with the package (full payloads are licensed and must be
supplied by the user, pointed at via config).
"""
