"""Readers back from the package's text forms, for round-trip tests:
serialize writes an expression tree as DSL source that parses back to the
same tree, and read_csv reads render.to_csv's rows back.
"""

from reflexivity.expr import BinOp, Call, Expression, Neg, Num, Var


def serialize(e):
    """The tree of e (an Expression or a node) as fully parenthesized DSL
    source."""
    node = e.root if isinstance(e, Expression) else e
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{serialize(node.operand)})"
    if isinstance(node, BinOp):
        return f"({serialize(node.left)} {node.op} {serialize(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({serialize(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


def read_csv(text):
    """to_csv's rows as (x, y, index) triples, after its i,x,y header."""
    header, *rows = text.splitlines()
    assert header == "i,x,y", header
    return [(float(x), float(y), int(i)) for i, x, y in (row.split(",") for row in rows)]
