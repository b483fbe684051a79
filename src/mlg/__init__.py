"""A three-core language: terminating computation (typed recursor calculus),
labeled stateful objects, and channel-based coordination, with a seeded
reduction engine and a bounded deadlock explorer."""

__version__ = "0.1.0"
