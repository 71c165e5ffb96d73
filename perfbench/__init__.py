"""End-to-end benchmark of the streaming serving loop (see README.md)."""
