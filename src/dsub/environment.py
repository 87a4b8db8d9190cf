"""Typing environments: ordered variable bindings with well-formedness.

An environment built through :meth:`TypeEnv.extend` guarantees, for every
binding ``x: T`` with prefix ``G1``:

- ``x`` is a variable name as the parser reads it,
- ``x`` is not already bound (no duplicates),
- ``x`` does not occur free in ``T``, and
- every free variable of ``T`` is bound in ``G1`` (closed scoping, a
  deliberate strengthening so that weight and exposure are total on all
  stored types).

Environments are immutable values; extension returns a new environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DsubError
from .syntax import Type, _Parser, canon_type, fv_type, is_ident, print_type


class DuplicateBinding(DsubError):
    pass


class SelfReference(DsubError):
    pass


class UnboundVariable(DsubError):
    pass


@dataclass(frozen=True)
class TypeEnv:
    """Ordered sequence of (variable, type) bindings, oldest first."""

    bindings: tuple = field(default=())

    @staticmethod
    def empty() -> "TypeEnv":
        return TypeEnv()

    def extend(self, x: str, t: Type) -> "TypeEnv":
        if not is_ident(x):
            raise DsubError(f"{x!r} is not a variable name")
        if any(y == x for y, _ in self.bindings):
            raise DuplicateBinding(f"variable {x!r} is already bound")
        free = fv_type(t)
        if x in free:
            raise SelfReference(f"variable {x!r} occurs free in its own type")
        out_of_scope = free - self.dom()
        if out_of_scope:
            names = ", ".join(sorted(out_of_scope))
            raise UnboundVariable(f"type mentions unbound variable(s): {names}")
        return TypeEnv(self.bindings + ((x, t),))

    def lookup(self, x: str):
        for y, t in self.bindings:
            if y == x:
                return t
        return None

    def split_at(self, x: str):
        """Decompose around ``x``'s binding: (prefix, type, suffix), or None."""
        for i, (y, t) in enumerate(self.bindings):
            if y == x:
                return TypeEnv(self.bindings[:i]), t, TypeEnv(self.bindings[i + 1 :])
        return None

    @cached_property
    def key(self) -> str:
        """Identical exactly for environments that bind the same variables,
        in the same order, at alpha-equivalent types (:meth:`extend` admits
        only names without ``:`` and ``;``); built once per environment."""
        return ";".join(f"{x}:{canon_type(t)}" for x, t in self.bindings)

    def dom(self) -> frozenset:
        return frozenset(y for y, _ in self.bindings)

    def __len__(self) -> int:
        return len(self.bindings)

    def __contains__(self, x: str) -> bool:
        return any(y == x for y, _ in self.bindings)

    def __iter__(self):
        return iter(self.bindings)


def env_from_bindings(pairs) -> TypeEnv:
    """Build an environment, re-checking well-formedness of every binding."""
    g = TypeEnv.empty()
    for x, t in pairs:
        g = g.extend(x, t)
    return g


def print_env(g: TypeEnv) -> str:
    """Render in the environment file format: one ``x : T ;`` line per binding."""
    return "".join(f"{x} : {print_type(t)} ;\n" for x, t in g.bindings)


def parse_env(text: str) -> TypeEnv:
    """Parse the environment file format (oldest binding first)."""
    p = _Parser(text)
    pairs = []
    while not p.at("eof"):
        x = p.expect("ident").text
        p.expect("punct", ":")
        t = p.type_()
        p.expect("punct", ";")
        pairs.append((x, t))
    return env_from_bindings(pairs)


__all__ = [
    "TypeEnv",
    "DuplicateBinding",
    "SelfReference",
    "UnboundVariable",
    "env_from_bindings",
    "print_env",
    "parse_env",
]
