"""Test package (unique basenames across sibling packages need importable packages)."""
