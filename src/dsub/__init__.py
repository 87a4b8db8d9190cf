"""Toolkit for a tiny path-dependent calculus with decidable typechecking.

The package is organized bottom-up:

- ``syntax``: type/term ASTs, parsing, printing, substitution, alpha-equality,
  and the one immutable-record base of nodes and every other record
- ``environment``: well-formed typing environments
- ``trace``: the derivation-tree node shared by step traces and declarative
  derivations, the judgment forms it concludes, its JSON writer, and the
  outcomes ``Derived`` (a type and its trace) and ``Failed`` (why no
  promotion/demotion or step-typing rule applies)
- ``exposure``: computing a non-path supertype by climbing declaration bounds
- ``bounds_shift``: promotion/demotion (erasing a variable while moving in
  the subtype order)
- ``step``: the step typing and step subtyping decision procedures, plus the
  weight termination measure
- ``declarative``: the standard declarative rules as a derivation checker,
  a fuel-bounded search, and the elaborator that turns step traces into
  checkable declarative derivations
- ``lab``: the bad-bounds corpus, enumerators, and falsification harnesses
- ``dotty``: a model of a production compiler's bounds-aware, non-transitive
  subtype check and its exponential worst case
- ``cli``: the ``dsub`` command-line entry point

What a query builds is freed by reference counting when it returns, except
the last ``dsub.syntax.RETAIN`` syntax nodes built, which are kept for the
next query.  An earlier import of the package is freed once ``sys.modules``
drops it.
"""

__version__ = "0.1.0"
