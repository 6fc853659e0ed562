"""Surface pretty-printer for the parse/print round-trip tests.

``--emit`` prints core terms with ``vspec.core.print_expr``; nothing in the
compiler prints surface syntax, so this printer lives with its tests.
"""

from vspec.rational import render_number
from vspec.surface import (
    NetworkDecl,
    SApp,
    SBinOp,
    SCmp,
    SExpr,
    SFun,
    SIf,
    SIndex,
    SName,
    SNeg,
    SNot,
    SNum,
    SQuant,
    STensor,
    STensorLit,
    SType,
    SurfaceDecl,
    SVar,
    TypeSynonym,
)

_PREC = {
    "=>": 1,
    "or": 2,
    "and": 3,
    "not": 4,
    "cmp": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "neg": 8,
    "!": 9,
    "app": 10,
    "atom": 11,
}


def print_type(t: SType) -> str:
    if isinstance(t, SName):
        return t.name
    if isinstance(t, STensor):
        elem = print_type(t.elem)
        if isinstance(t.elem, (SFun, STensor)):
            elem = f"({elem})"
        dims = ", ".join(str(d) for d in t.dims)
        return f"Tensor {elem} [{dims}]"
    if isinstance(t, SFun):
        dom = print_type(t.dom)
        if isinstance(t.dom, SFun):
            dom = f"({dom})"
        return f"{dom} -> {print_type(t.cod)}"
    raise AssertionError(t)


def print_expr(e: SExpr, prec: int = 0) -> str:
    if isinstance(e, SVar):
        return e.name
    if isinstance(e, SNum):
        return render_number(e.value)
    if isinstance(e, STensorLit):
        return "[" + ", ".join(print_expr(x) for x in e.items) + "]"
    if isinstance(e, SApp):
        parts = [print_expr(e.fn, _PREC["atom"])]
        parts += [print_expr(a, _PREC["atom"]) for a in e.args]
        return _paren(" ".join(parts), _PREC["app"], prec)
    if isinstance(e, SIndex):
        text = f"{print_expr(e.tensor, _PREC['!'])} ! {print_expr(e.index, _PREC['atom'])}"
        return _paren(text, _PREC["!"], prec)
    if isinstance(e, SNeg):
        return _paren(f"-{print_expr(e.arg, _PREC['neg'])}", _PREC["neg"], prec)
    if isinstance(e, SNot):
        return _paren(f"not {print_expr(e.arg, _PREC['not'])}", _PREC["not"], prec)
    if isinstance(e, SCmp):
        lhs = print_expr(e.lhs, _PREC["cmp"] + 1)
        rhs = print_expr(e.rhs, _PREC["cmp"] + 1)
        return _paren(f"{lhs} {e.op} {rhs}", _PREC["cmp"], prec)
    if isinstance(e, SBinOp):
        p = _PREC[e.op]
        right_assoc = e.op == "=>"
        lhs = print_expr(e.lhs, p + (1 if right_assoc else 0))
        rhs = print_expr(e.rhs, p + (0 if right_assoc else 1))
        return _paren(f"{lhs} {e.op} {rhs}", p, prec)
    if isinstance(e, SIf):
        text = (
            f"if {print_expr(e.cond)} then {print_expr(e.then)} else {print_expr(e.els)}"
        )
        return _paren(text, 0, prec)
    if isinstance(e, SQuant):
        groups: list[str] = []
        for name, btype in e.binders:
            if btype is None:
                groups.append(name)
            else:
                groups.append(f"({name} : {print_type(btype)})")
        text = f"{e.kind} {' '.join(groups)} . {print_expr(e.body)}"
        return _paren(text, 0, prec)
    raise AssertionError(e)


def _paren(text: str, node_prec: int, ctx_prec: int) -> str:
    return f"({text})" if node_prec < ctx_prec else text


def print_program(decls: list[SurfaceDecl]) -> str:
    chunks: list[str] = []
    for d in decls:
        if isinstance(d, TypeSynonym):
            chunks.append(f"type {d.name} = {print_type(d.rhs)}")
        elif isinstance(d, NetworkDecl):
            chunks.append(f"network {d.name} : {print_type(d.signature)}")
        else:
            params = "".join(f" {p}" for p in d.params)
            chunks.append(
                f"{d.name} : {print_type(d.signature)}\n{d.name}{params} = {print_expr(d.body)}"
            )
    return "\n\n".join(chunks) + "\n"
