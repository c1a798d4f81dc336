"""The repository's end-to-end benchmark (entry point: ``perfbench/run.py``)."""
