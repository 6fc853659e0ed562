"""Interactive-theorem-prover backend: renders a typed program as an Agda
interface module.

The emitted module mirrors the user's declaration structure (emission
happens before normalisation, so named definitions survive):

* type synonyms become ``Set`` definitions,
* each network becomes a ``postulate`` over rational tensors,
* Prop-valued functions become Set-valued definitions (name capitalised),
  with comparison atoms as ordering relations, ``and`` as a product,
  ``=>`` as a function space and ``forall`` as a dependent function;
  Bool-instantiated operators render in their boolean-valued forms,
* each Prop declaration is wrapped in an ``abstract`` block whose body is
  the ``checkVehicleProperty`` record pointing at the proof-cache file.

Rationals render as ``ℤ.+ p ℚ./ q`` with a ``ℚ.-`` prefix for negative
values.  The fixed import preamble expects a small support library
(``Vspec.Prelude``) providing ``Tensor``, ``tensor`` and
``checkVehicleProperty``; the module is a rendering target only and is not
compiled by this tool.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from . import core, surface
from .errors import BackendError
from .typecheck import TypedDecl, TypedProgram
from .types import BOOL, PROP, FunT, Scalar, TensorT, VType

_PREAMBLE = """\
open import Data.Bool.Base using (Bool; true; false; not; _∧_; _∨_; if_then_else_) renaming (T to IsTrue)
open import Data.Fin.Base using (#_)
open import Data.Integer.Base as ℤ using ()
open import Data.List.Base using (List; []; _∷_)
open import Data.Nat.Base using (ℕ)
open import Data.Product using (_×_; ∃)
open import Data.Rational.Base as ℚ using (ℚ)
open import Data.Sum.Base using (_⊎_)
open import Relation.Binary.PropositionalEquality using (_≡_)
open import Relation.Nullary.Negation using (¬_)
open import Vspec.Prelude using (Tensor; tensor; checkVehicleProperty)
"""


@dataclass
class ItpModule:
    module_name: str
    text: str
    digest: str  # SHA-256 of the rendered text bytes
    proof_file: str
    property_names: list[str]


# Precedence levels for rendering (higher binds tighter).
_ATOM = 40
_APP = 30
_MUL = 22
_ADD = 20
_LIT = 20  # rational literals contain ℚ./ and read like additive terms
_CMP = 15
_PROD = 10
_ARROW = 5


def module_name_for(stem: str) -> str:
    """controller-spec -> ControllerSpec"""
    parts = [p for p in stem.replace("_", "-").split("-") if p]
    return "".join(p[0].upper() + p[1:] for p in parts) or "Spec"


def emit_itp_module(
    program: TypedProgram,
    proof_file: str,
    module_name: str,
) -> ItpModule:
    """Render the module; byte-identical output for identical inputs."""
    renderer = _Renderer(program)
    chunks: list[str] = [f"module {module_name} where", "", _PREAMBLE]
    property_names: list[str] = []
    for decl in program.decls:
        if decl.kind == "synonym":
            chunks.append(renderer.synonym(decl))
        elif decl.kind == "network":
            chunks.append(renderer.network(decl))
        elif decl.vtype == PROP:
            property_names.append(decl.name)
            chunks.append(renderer.property_block(decl, proof_file))
        else:
            chunks.append(renderer.definition(decl))
    text = "\n".join(chunks)
    if not text.endswith("\n"):
        text += "\n"
    return ItpModule(module_name, text, hash_module_text(text), proof_file, property_names)


def hash_module_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Renderer:
    def __init__(self, program: TypedProgram):
        self.program = program
        # Prop-valued functions are capitalised into Set-valued families.
        self.rename: dict[str, str] = {}
        for decl in program.decls:
            if decl.kind == "def" and decl.params and _codomain(decl.vtype) == PROP:
                self.rename[decl.name] = decl.name[0].upper() + decl.name[1:]

    # -- declarations ---------------------------------------------------

    def synonym(self, decl: TypedDecl) -> str:
        rhs = self.render_surface_type(decl.signature)
        return f"{decl.name} : Set\n{decl.name} = {rhs}\n"

    def network(self, decl: TypedDecl) -> str:
        return f"postulate {decl.name} : {self.render_surface_type(decl.signature)}\n"

    def definition(self, decl: TypedDecl) -> str:
        name = self.rename.get(decl.name, decl.name)
        sig = self.render_surface_type(decl.signature)
        body, names = _strip_params(decl)
        rendered = self.render_expr(body, names, 0)
        params = "".join(f" {p}" for p in decl.params)
        return f"{name} : {sig}\n{name}{params} = {rendered}\n"

    def property_block(self, decl: TypedDecl, proof_file: str) -> str:
        assert decl.body is not None
        prop_type = self.render_expr(decl.body, [], 0)
        return (
            "abstract\n"
            f"  {decl.name} : {prop_type}\n"
            f"  {decl.name} = checkVehicleProperty record\n"
            f"    {{ propertyFile = \"{proof_file}\"\n"
            f"    ; propertyName = \"{decl.name}\"\n"
            "    }\n"
        )

    # -- types ------------------------------------------------------------

    def render_surface_type(self, t: surface.SType, prec: int = 0) -> str:
        if isinstance(t, surface.SName):
            return _SCALAR_NAMES.get(t.name, t.name)
        if isinstance(t, surface.STensor):
            elem = self.render_surface_type(t.elem, _ATOM)
            return _wrap(f"Tensor {elem} ({_dim_list(t.dims)})", _APP, prec)
        if isinstance(t, surface.SFun):
            dom = self.render_surface_type(t.dom, _ARROW + 1)
            cod = self.render_surface_type(t.cod, _ARROW)
            return _wrap(f"{dom} → {cod}", _ARROW, prec)
        raise AssertionError(t)

    def render_vtype(self, t: VType, prec: int = 0) -> str:
        if isinstance(t, Scalar):
            return _SCALAR_NAMES[t.kind]
        if isinstance(t, TensorT):
            elem = self.render_vtype(t.elem, _ATOM)
            return _wrap(f"Tensor {elem} ({_dim_list(t.dims)})", _APP, prec)
        if isinstance(t, FunT):
            dom = self.render_vtype(t.dom, _ARROW + 1)
            cod = self.render_vtype(t.cod, _ARROW)
            return _wrap(f"{dom} → {cod}", _ARROW, prec)
        raise AssertionError(t)

    # -- expressions ------------------------------------------------------

    def render_expr(self, e: core.Expr, names: list[str], prec: int) -> str:
        t = type(e)  # exact-type tests, most frequent first
        if t is core.Builtin:
            return self.render_builtin(e, names, prec)
        if t is core.RatLit:
            return self.render_rational(e.value, prec)
        if t is core.Var:
            return names[len(names) - 1 - e.index]
        if t is core.Index:
            if not isinstance(e.index, core.NatLit):
                raise BackendError(
                    "UnrenderableConstruct",
                    "tensor lookup with a non-literal index has no prover image",
                )
            tensor = self.render_expr(e.tensor, names, _APP)
            return _wrap(f"{tensor} (# {e.index.value})", _APP, prec)
        if t is core.App:
            fn = self.render_expr(e.fn, names, _APP)
            arg = self.render_expr(e.arg, names, _ATOM)
            return _wrap(f"{fn} {arg}", _APP, prec)
        if t is core.TopRef:
            name = self.rename.get(e.name, e.name)
            return name
        if t is core.Quant:
            names.append(e.binder)
            body = self.render_expr(e.body, names, 0)
            names.pop()
            btype = self.render_vtype(e.binder_type)
            if e.kind == "forall":
                return _wrap(f"∀ ({e.binder} : {btype}) → {body}", 0, prec)
            return _wrap(f"∃ λ ({e.binder} : {btype}) → {body}", 0, prec)
        if t is core.NatLit:
            return str(e.value)
        if t is core.BoolLit:
            return "true" if e.value else "false"
        if t is core.TensorLit:
            items = " ∷ ".join(self.render_expr(x, names, 0) for x in e.items)
            return _wrap(f"tensor ({items} ∷ [])", _APP, prec)
        if t is core.Lam:
            names.append(e.binder)
            body = self.render_expr(e.body, names, 0)
            names.pop()
            return _wrap(f"λ {e.binder} → {body}", 0, prec)
        raise BackendError(
            "UnrenderableConstruct", f"no prover image for node {type(e).__name__}"
        )

    def render_builtin(self, e: core.Builtin, names: list[str], prec: int) -> str:
        op, level = e.op, e.level
        if op == "neg":
            arg = self.render_expr(e.args[0], names, _ATOM)
            return _wrap(f"ℚ.- {arg}", _ADD, prec)
        if op == "if":
            cond = self.render_formula(e.args[0], names, 0, "bool")
            then = self.render_expr(e.args[1], names, 0)
            els = self.render_expr(e.args[2], names, 0)
            return _wrap(f"if {cond} then {then} else {els}", 1, prec)
        if op in _ARITH_SYMBOL:
            lhs = self.render_expr(e.args[0], names, _arith_prec(op) + 1)
            rhs = self.render_expr(e.args[1], names, _arith_prec(op) + 1)
            return _wrap(f"{lhs} {_ARITH_SYMBOL[op]} {rhs}", _arith_prec(op), prec)
        if op in core.CMP_OPS:
            table = _CMP_PROP if level != "bool" else _CMP_BOOL
            lhs = self.render_expr(e.args[0], names, _CMP + 1)
            rhs = self.render_expr(e.args[1], names, _CMP + 1)
            return _wrap(f"{lhs} {table[op]} {rhs}", _CMP, prec)
        if op in ("and", "or"):
            symbol = {"and": ("×", "∧"), "or": ("⊎", "∨")}[op][0 if level != "bool" else 1]
            lhs = self.render_formula(e.args[0], names, _PROD + 1, level)
            rhs = self.render_formula(e.args[1], names, _PROD + 1, level)
            return _wrap(f"{lhs} {symbol} {rhs}", _PROD, prec)
        if op == "implies":
            if level == "bool":
                lhs = self.render_formula(e.args[0], names, _ATOM, level)
                rhs = self.render_formula(e.args[1], names, _PROD + 1, level)
                return _wrap(f"not {lhs} ∨ {rhs}", _PROD, prec)
            lhs = self.render_formula(e.args[0], names, _ARROW + 1, level)
            rhs = self.render_formula(e.args[1], names, _ARROW, level)
            return _wrap(f"{lhs} → {rhs}", _ARROW, prec)
        if op == "not":
            arg = self.render_formula(e.args[0], names, _ATOM, level)
            if level == "bool":
                return _wrap(f"not {arg}", _APP, prec)
            return _wrap(f"¬ {arg}", _APP, prec)
        raise AssertionError(op)

    def render_formula(
        self, e: core.Expr, names: list[str], prec: int, level: str | None
    ) -> str:
        """Render a formula operand, inserting the Bool-to-Set coercion when
        a boolean-valued atom sits in a Set-level position."""
        if level != "bool" and self._is_bool_atom(e):
            inner = self.render_expr(e, names, _ATOM)
            return _wrap(f"IsTrue {inner}", _APP, prec)
        return self.render_expr(e, names, prec)

    def _is_bool_atom(self, e: core.Expr) -> bool:
        head = e
        while isinstance(head, core.App):
            head = head.fn
        if isinstance(head, core.TopRef):
            t = self.program.def_types.get(head.name)
            return _codomain(t) == BOOL if t is not None else False
        return False

    def render_rational(self, q: Fraction, prec: int) -> str:
        if q < 0:
            inner = self.render_rational(-q, _ATOM)
            return _wrap(f"ℚ.- {inner}", _LIT, prec)
        return _wrap(f"ℤ.+ {q.numerator} ℚ./ {q.denominator}", _LIT, prec)


_SCALAR_NAMES = {
    "Bool": "Bool",
    "Prop": "Set",
    "Nat": "ℕ",
    "Int": "ℤ.ℤ",
    "Rat": "ℚ",
    "Real": "ℚ",
}

_ARITH_SYMBOL = {"add": "ℚ.+", "sub": "ℚ.-", "mul": "ℚ.*", "div": "ℚ.÷"}

_CMP_PROP = {"le": "ℚ.≤", "lt": "ℚ.<", "ge": "ℚ.≥", "gt": "ℚ.>", "eq": "≡"}
_CMP_BOOL = {"le": "ℚ.≤ᵇ", "lt": "ℚ.<ᵇ", "ge": "ℚ.≥ᵇ", "gt": "ℚ.>ᵇ", "eq": "ℚ.≡ᵇ"}


def _arith_prec(op: str) -> int:
    return _MUL if op in ("mul", "div") else _ADD


def _wrap(text: str, node_prec: int, ctx_prec: int) -> str:
    return f"({text})" if node_prec < ctx_prec else text


def _dim_list(dims: tuple[int, ...]) -> str:
    return " ∷ ".join(str(d) for d in dims) + " ∷ []"


def _codomain(t: VType | None) -> VType | None:
    while isinstance(t, FunT):
        t = t.cod
    return t


def _strip_params(decl: TypedDecl) -> tuple[core.Expr, list[str]]:
    body = decl.body
    names: list[str] = []
    assert body is not None
    for _ in decl.params:
        assert isinstance(body, core.Lam)
        names.append(body.binder)
        body = body.body
    return body, names
