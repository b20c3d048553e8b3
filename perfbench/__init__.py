"""End-to-end campaign benchmark (see README.md)."""
