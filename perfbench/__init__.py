"""kcert benchmark harness; see README.md."""
