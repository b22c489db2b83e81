"""HFL(Z) toolkit: syntax, semantics, transformations, and bridges."""
