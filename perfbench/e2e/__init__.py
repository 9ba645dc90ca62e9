"""End-to-end benchmark of the RICD detection service (see ``perfbench/run.py``)."""
