"""End-to-end benchmark of the EHNA reproduction (see README.md here)."""
