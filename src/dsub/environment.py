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
Their one equality is :attr:`TypeEnv.key` (the same bindings up to
alpha-equivalence); ``==`` is identity, as for syntax nodes.
"""

from __future__ import annotations

import threading
from weakref import ref

from .errors import DsubError
from .syntax import Type, _Parser, canon, check_sort, fresh_name, fv, is_ident


class DuplicateBinding(DsubError):
    pass


class SelfReference(DsubError):
    pass


class UnboundVariable(DsubError):
    pass


_INDEX_LOCK = threading.Lock()


class TypeEnv:
    """Ordered sequence of (variable, type) bindings, oldest first.

    An environment is its newest binding on top of the environment it
    extends (``parent``), so an extension shares its prefixes instead of
    copying them.  The environments along a chain of extensions share one
    index from each bound name to its position, a weak reference to the
    environment before its binding (alive while any environment that sees
    the entry is) and its type; an environment sees only the entries below
    its own length.  ``lookup``, ``in``, :meth:`binding`, :meth:`unbound`
    and :meth:`check_scope` take constant time per name.  Extending an
    environment a second time starts a new index, a copy of the entries it
    sees.  Nothing an environment holds refers back to it strongly, so it is
    freed by reference counting; what a query computes in an environment
    (weights, exposures, the search's candidates) lives in that query's memo.
    """

    __slots__ = ("_parent", "_last", "_len", "_index", "_dom", "_key", "__weakref__")

    def __init__(self) -> None:
        """The empty environment; :meth:`extend` adds checked bindings."""
        self._parent = self._last = None
        self._len, self._index = 0, {}
        self._dom = self._key = None

    @staticmethod
    def empty() -> "TypeEnv":
        return TypeEnv()

    def extend(self, x: str, t: Type) -> "TypeEnv":
        check_var_name(x)
        if x in self:
            raise DuplicateBinding(f"variable {x!r} is already bound")
        check_sort(t, Type)
        free = fv(t)
        if x in free:
            raise SelfReference(f"variable {x!r} occurs free in its own type")
        self.check_scope("type", free)
        with _INDEX_LOCK:
            index = self._index
            if len(index) != self._len or x in index:  # this environment was extended before
                index = {y: e for y, e in index.items() if e[0] < self._len}
            index[x] = (self._len, ref(self), t)
        child = object.__new__(TypeEnv)
        child._parent, child._last = self, (x, t)
        child._len, child._index = self._len + 1, index
        child._dom = child._key = None
        return child

    def check_scope(
        self, what: str, free: frozenset, more: frozenset = frozenset(), error: type = UnboundVariable
    ) -> None:
        """Refuse ``what``, whose free variables are ``free`` and ``more``,
        unless this environment binds them all: raise ``error`` naming the
        others, sorted.  Each name's position is looked up in the index,
        which allocates nothing when the check passes; with no free names
        there is nothing to look up."""
        if (free or more) and not (self._binds(free) and self._binds(more)):
            loose = self.unbound(free | more)
            raise error(f"{what} mentions unbound variable(s): {', '.join(sorted(loose))}")

    def _binds(self, names) -> bool:
        index, n = self._index, self._len
        for x in names:
            entry = index.get(x)
            if entry is None or entry[0] >= n:
                return False
        return True

    def fresh(self, x: str, free=frozenset()) -> str:
        """The name at which to open a binder ``x`` in this environment:
        ``x`` itself unless this environment binds it or it is among
        ``free``, the other free variables of what the binder scopes over;
        otherwise the least ``x<n>`` (n = 1, 2, ...) outside both."""
        if x not in self and x not in free:
            return x
        return fresh_name(x, self.dom() | free)

    @property
    def parent(self) -> "TypeEnv | None":
        """This environment without its newest binding (None when empty)."""
        return self._parent

    @property
    def last(self):
        """The newest binding as (variable, type), or None when empty."""
        return self._last

    @property
    def bindings(self) -> tuple:
        out = []
        g = self
        while g._parent is not None:
            out.append(g._last)
            g = g._parent
        return tuple(reversed(out))

    def _entry(self, x: str):
        entry = self._index.get(x)
        return entry if entry is not None and entry[0] < self._len else None

    def lookup(self, x: str):
        entry = self._entry(x)
        return None if entry is None else entry[2]

    def binding(self, x: str):
        """``x``'s binding as (the environment before it, its type), or None."""
        entry = self._entry(x)
        return None if entry is None else (entry[1](), entry[2])

    @property
    def key(self) -> str:
        """Identical exactly for environments that bind the same variables,
        in the same order, at alpha-equivalent types (:meth:`extend` admits
        only names without ``:`` and ``;``); built once per environment,
        from its parent's key when the parent has one."""
        if self._key is None:
            parent = self._parent
            if parent is None:
                self._key = ""
            else:
                x, t = self._last
                head = parent._key
                if head is None:
                    head = ";".join(f"{y}:{canon(u)}" for y, u in parent.bindings)
                self._key = f"{head};{x}:{canon(t)}" if head else f"{x}:{canon(t)}"
        return self._key

    def dom(self) -> frozenset:
        if self._dom is None:
            self._dom = frozenset(x for x, _ in self.bindings)
        return self._dom

    def unbound(self, names) -> frozenset:
        """The names in ``names`` this environment does not bind."""
        return frozenset(x for x in names if self._entry(x) is None)

    def __reduce__(self):
        # loading checks every binding again; the copy is a new environment
        return env_from_bindings, (self.bindings,)

    def __repr__(self) -> str:
        return f"TypeEnv(bindings={self.bindings!r})"

    def __len__(self) -> int:
        return self._len

    def __contains__(self, x: str) -> bool:
        return self._entry(x) is not None

    def __iter__(self):
        return iter(self.bindings)


def check_var_name(x: str) -> None:
    """Refuse ``x`` unless the parser reads it as one variable name."""
    if not is_ident(x):
        raise DsubError(f"{x!r} is not a variable name")


def env_from_bindings(pairs) -> TypeEnv:
    """Build an environment, re-checking well-formedness of every binding."""
    g = TypeEnv.empty()
    for x, t in pairs:
        g = g.extend(x, t)
    return g


def parse_env(text: str) -> TypeEnv:
    """Parse the environment file format (oldest binding first)."""
    return env_from_bindings(_Parser(text).bindings())


__all__ = [
    "TypeEnv",
    "DuplicateBinding",
    "SelfReference",
    "UnboundVariable",
    "check_var_name",
    "env_from_bindings",
    "parse_env",
]
