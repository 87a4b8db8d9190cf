"""Reference code the benchmark checks answers with.

Nothing here calls into ``dsub``: queries are built as plain tuples, printed
to surface syntax by :func:`print_node`, and the program's answers are read
back structurally by :func:`from_dsub` and compared up to renaming of bound
variables by :func:`alpha_key`.

Tuple forms::

    ("top",)  ("bot",)  ("decl", L, lo, hi)  ("path", x, L)  ("all", x, S, T)
    ("var", x)  ("tag", L, T)  ("lam", x, T, body)  ("app", f, a)
    ("let", x, rhs, body)
"""

from __future__ import annotations

from functools import lru_cache

TOP = ("top",)
BOT = ("bot",)

# dsub class name -> (tuple tag, attribute names in tuple order)
_FIELDS = {
    "Top": ("top", ()),
    "Bot": ("bot", ()),
    "Decl": ("decl", ("label", "lower", "upper")),
    "Path": ("path", ("var", "label")),
    "All": ("all", ("param", "param_type", "result")),
    "Var": ("var", ("name",)),
    "Tag": ("tag", ("label", "alias")),
    "Lam": ("lam", ("param", "param_type", "body")),
    "App": ("app", ("fun", "arg")),
    "Let": ("let", ("bound", "rhs", "body")),
}


def print_node(t: tuple) -> str:
    """Surface syntax for a type or term tuple (no parentheses are needed:
    binder bodies end at ``..``, ``}``, ``)``, ``in`` or end of input)."""
    tag = t[0]
    if tag == "top":
        return "Top"
    if tag == "bot":
        return "Bot"
    if tag == "decl":
        return f"{{{t[1]}: {print_node(t[2])} .. {print_node(t[3])}}}"
    if tag == "path":
        return f"{t[1]}.{t[2]}"
    if tag == "all":
        return f"all({t[1]}: {print_node(t[2])}) {print_node(t[3])}"
    if tag == "var":
        return t[1]
    if tag == "tag":
        return f"{{{t[1]} = {print_node(t[2])}}}"
    if tag == "lam":
        return f"lam({t[1]}: {print_node(t[2])}) {print_node(t[3])}"
    if tag == "app":
        return f"{t[1]} {t[2]}"
    if tag == "let":
        return f"let {t[1]} = {print_node(t[2])} in {print_node(t[3])}"
    raise ValueError(f"not a node: {t!r}")


def print_env(bindings) -> str:
    """Environment file text for ``(name, type tuple)`` pairs, oldest first."""
    return "".join(f"{x} : {print_node(t)} ;\n" for x, t in bindings)


def from_dsub(node) -> tuple:
    """Read a ``dsub`` type or term object into the tuple form."""
    tag, fields = _FIELDS[type(node).__name__]
    out = [tag]
    for name in fields:
        value = getattr(node, name)
        out.append(value if isinstance(value, str) else from_dsub(value))
    return tuple(out)


def node_count(t: tuple) -> int:
    """AST nodes in a tuple, counted as ``dsub`` sizes count them."""
    return 1 + sum(node_count(c) for c in t[1:] if isinstance(c, tuple))


def alpha_key(t: tuple, bound: tuple = ()) -> tuple:
    """A form equal for two nodes exactly when they are alpha-equivalent:
    bound variables become de Bruijn indices, free ones keep their names."""
    tag = t[0]
    if tag in ("top", "bot"):
        return t
    if tag == "decl":
        return ("decl", t[1], alpha_key(t[2], bound), alpha_key(t[3], bound))
    if tag == "path":
        return ("path", _index(t[1], bound), t[2])
    if tag == "all":
        return ("all", alpha_key(t[2], bound), alpha_key(t[3], bound + (t[1],)))
    if tag == "var":
        return ("var", _index(t[1], bound))
    if tag == "tag":
        return ("tag", t[1], alpha_key(t[2], bound))
    if tag == "lam":
        return ("lam", alpha_key(t[2], bound), alpha_key(t[3], bound + (t[1],)))
    if tag == "app":
        return ("app", _index(t[1], bound), _index(t[2], bound))
    if tag == "let":
        return ("let", alpha_key(t[2], bound), alpha_key(t[3], bound + (t[1],)))
    raise ValueError(f"not a node: {t!r}")


def _index(x: str, bound: tuple):
    for depth, name in enumerate(reversed(bound)):
        if name == x:
            return depth
    return x


def same_env(env, bindings) -> bool:
    """Whether a ``dsub`` environment binds exactly ``bindings`` in order."""
    got = list(env)
    return len(got) == len(bindings) and all(
        x == y and alpha_key(from_dsub(t)) == alpha_key(u) for (x, t), (y, u) in zip(got, bindings)
    )


def concludes(tree, bindings, *parts) -> bool:
    """Whether a derivation concludes the judgment ``bindings |- parts``:
    ``(lhs, rhs)`` for subtyping, ``(term, type)`` for typing."""
    j = tree.conclusion
    fields = ("lhs", "rhs") if hasattr(j, "lhs") else ("term", "ty")
    return same_env(j.env, bindings) and all(
        alpha_key(from_dsub(getattr(j, f))) == alpha_key(p) for f, p in zip(fields, parts)
    )


@lru_cache(maxsize=None)
def pn_calls(a: int, b: int) -> int:
    """``g(a, b) = 1 + g(a-1, b) + g(a, b-1)``, with ``g = 0`` below zero:
    the call count of the uncached two-chain recursion, ``calls(N) =
    g(N-1, N-1)``."""
    if a < 0 or b < 0:
        return 0
    return 1 + pn_calls(a - 1, b) + pn_calls(a, b - 1)
