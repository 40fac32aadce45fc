"""Session-lifecycle benchmark for the PP-GNN reproduction (see ``bench/README.md``)."""
