"""End-to-end benchmark of the SpZip reproduction (see run.py)."""
