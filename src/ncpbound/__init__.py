"""Exact local-global arithmetic for division-algebra bounds over Q and F_q(t)."""
