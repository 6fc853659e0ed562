"""Network models: loading, validation, hashing, and type analysis.

Two on-disk formats are supported, dispatched on leading bytes:

* a protobuf-framed ONNX subset (see onnx_decode) covering dense
  feed-forward nets built from Gemm / MatMul+Add / Relu / Flatten;
* a native text format (``.vnet``)::

      vnet 1
      input <m>
      affine <rows> <cols>
      <rows lines of space-separated rationals>
      <one bias line>
      relu
      ...

  Entries are ``p/q`` or decimal; comments start with ``#``.

Both formats hash identically (SHA-256 over the raw file bytes).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

from . import core
from .errors import NetworkError
from .rational import parse_rational
from .typecheck import TypedDecl, TypedProgram
from .types import RAT, FunT, Scalar, TensorT, VType, frozen_dataclass, is_numeric


@frozen_dataclass
class Affine:
    """Dense layer: out = weights @ in + bias; weights is rows x cols."""

    weights: tuple[tuple[Fraction, ...], ...]
    bias: tuple[Fraction, ...]

    @property
    def out_width(self) -> int:
        return len(self.weights)

    @property
    def in_width(self) -> int:
        return len(self.weights[0]) if self.weights else 0


@frozen_dataclass
class Relu:
    width: int

    @property
    def out_width(self) -> int:
        return self.width

    @property
    def in_width(self) -> int:
        return self.width


Layer = Affine | Relu


@frozen_dataclass
class NetworkModel:
    name: str
    input_size: int
    output_size: int
    layers: tuple[Layer, ...]


def validate_model(model: NetworkModel, path: str | None = None) -> NetworkModel:
    width = model.input_size
    if width <= 0:
        raise NetworkError("MalformedNetworkFile", "input size must be positive", path=path)
    for layer in model.layers:
        if layer.in_width != width:
            raise NetworkError(
                "MalformedNetworkFile",
                f"layer expects width {layer.in_width} but gets {width}",
                path=path,
            )
        if isinstance(layer, Affine) and len(layer.bias) != layer.out_width:
            raise NetworkError(
                "MalformedNetworkFile",
                f"bias width {len(layer.bias)} does not match rows {layer.out_width}",
                path=path,
            )
        width = layer.out_width
    if width != model.output_size:
        raise NetworkError(
            "MalformedNetworkFile",
            f"final layer width {width} does not match declared output {model.output_size}",
            path=path,
        )
    return model


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _read_network_file(path: Path) -> bytes:
    if not path.exists():
        raise NetworkError("MissingNetworkFile", f"no such file: {path}", path=str(path))
    try:
        return path.read_bytes()
    except OSError as exc:
        raise NetworkError("IoError", f"cannot read {path}: {exc}", path=str(path)) from None


def _decode_network(data: bytes, name: str, path: Path) -> NetworkModel:
    if not data:
        raise NetworkError("MalformedNetworkFile", "empty file", path=str(path))
    if data.startswith(b"vnet"):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NetworkError(
                "MalformedNetworkFile", f"invalid UTF-8: {exc}", path=str(path)
            ) from None
        return parse_vnet(text, name, path=str(path))
    # Reject obviously textual content that is not the native format before
    # attempting a protobuf decode.
    head = data[:64]
    if all(32 <= b < 127 or b in (9, 10, 13) for b in head):
        raise NetworkError(
            "UnsupportedFormat",
            "text file is not in the native network format (missing 'vnet 1' header)",
            path=str(path),
        )
    from .onnx_decode import decode_onnx_subset

    model = decode_onnx_subset(data, name, path=str(path))
    return validate_model(model, str(path))


def parse_vnet(text: str, name: str, path: str | None = None) -> NetworkModel:
    lines: list[str] = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)

    def malformed(msg: str) -> NetworkError:
        return NetworkError("MalformedNetworkFile", msg, path=path)

    if not lines:
        raise malformed("empty file")
    if lines[0].split() != ["vnet", "1"]:
        if lines[0].startswith("vnet"):
            raise NetworkError(
                "UnsupportedFormat", f"unsupported version line {lines[0]!r}", path=path
            )
        raise malformed(f"expected 'vnet 1' header, found {lines[0]!r}")
    if len(lines) < 2 or not lines[1].startswith("input"):
        raise malformed("expected 'input <m>' on line 2")
    try:
        input_size = int(lines[1].split()[1])
    except (IndexError, ValueError):
        raise malformed(f"bad input line {lines[1]!r}") from None

    layers: list[Layer] = []
    width = input_size
    i = 2
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] == "relu":
            layers.append(Relu(width))
            i += 1
        elif parts[0] == "affine":
            try:
                rows, cols = int(parts[1]), int(parts[2])
            except (IndexError, ValueError):
                raise malformed(f"bad affine header {lines[i]!r}") from None
            if i + rows + 1 >= len(lines):
                raise malformed("truncated affine block")
            try:
                weights = tuple(
                    tuple(parse_rational(v) for v in lines[i + 1 + r].split())
                    for r in range(rows)
                )
                bias = tuple(parse_rational(v) for v in lines[i + 1 + rows].split())
            except (ValueError, IndexError, ZeroDivisionError) as exc:
                raise malformed(f"bad rational entry: {exc}") from None
            if any(len(row) != cols for row in weights):
                raise malformed(f"affine row width does not match cols={cols}")
            layers.append(Affine(weights, bias))
            width = rows
            i += rows + 2
        else:
            raise malformed(f"unknown directive {parts[0]!r}")

    if not layers:
        raise malformed("network has no layers")
    model = NetworkModel(name, input_size, width, tuple(layers))
    return validate_model(model, path)


def hash_file(path: str | Path) -> str:
    """SHA-256 over raw file bytes, lowercase hex."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise NetworkError("IoError", f"cannot read {path}: {exc}", path=str(path)) from None
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Network type analysis
# ---------------------------------------------------------------------------


@frozen_dataclass
class NetworkInfo:
    model: NetworkModel
    declared_type: VType  # declared type, normalised to tensor form
    path: str
    digest: str

    @property
    def input_size(self) -> int:
        return self.model.input_size

    @property
    def output_size(self) -> int:
        return self.model.output_size


NetworkContext = dict[str, NetworkInfo]


def _normalise_network_type(name: str, t: VType) -> tuple[VType, int | None]:
    """Normalise a declared network type to Tensor A [m] -> Tensor B [n].

    Returns the normalised type and, for the curried scalar sugar
    ``A -> ... -> A -> B``, the argument count k (application sites are then
    rewritten ``f x1 ... xk`` to ``f [x1, ..., xk] ! 0``); None otherwise.
    """

    def unsupported(msg: str) -> NetworkError:
        return NetworkError("UnsupportedNetworkType", f"network {name!r}: {msg}")

    if not isinstance(t, FunT):
        raise unsupported(f"type {t} is not a function type")

    if isinstance(t.dom, TensorT):
        dom = t.dom
        if len(dom.dims) != 1:
            raise unsupported("input tensor must be one-dimensional")
        cod = t.cod
        if isinstance(cod, TensorT):
            if len(cod.dims) != 1:
                raise unsupported("output tensor must be one-dimensional")
            return FunT(dom, cod), None
        if isinstance(cod, Scalar) and is_numeric(cod):
            return FunT(dom, TensorT(cod, (1,))), None
        raise unsupported(f"unsupported codomain {cod}")

    # Curried scalar sugar: A -> ... -> A -> B
    if isinstance(t.dom, Scalar) and is_numeric(t.dom):
        elem = t.dom
        k = 0
        cur: VType = t
        while isinstance(cur, FunT):
            if cur.dom != elem:
                raise unsupported("curried arguments must all have the same scalar type")
            k += 1
            cur = cur.cod
        if not (isinstance(cur, Scalar) and is_numeric(cur)):
            raise unsupported(f"unsupported codomain {cur}")
        return FunT(TensorT(elem, (k,)), TensorT(cur, (1,))), k
    raise unsupported(f"unsupported domain {t.dom}")


def _model_matches(info_type: VType, model: NetworkModel) -> bool:
    assert isinstance(info_type, FunT)
    dom, cod = info_type.dom, info_type.cod
    assert isinstance(dom, TensorT) and isinstance(cod, TensorT)
    if dom.elem != RAT or cod.elem != RAT:
        return False
    return dom.dims == (model.input_size,) and cod.dims == (model.output_size,)


def analyze_network_types(
    program: TypedProgram, network_files: dict[str, str]
) -> tuple[TypedProgram, NetworkContext]:
    """Check declared network types against their files, rewrite application
    sites to the tensor form, and remove network declarations.

    After this pass the program contains no network declarations; every
    network application appears as a ``NetworkApp`` node whose argument has
    the context's input tensor type.
    """
    ctx: NetworkContext = {}
    rewrite_arity: dict[str, int | None] = {}
    codomain_scalar: dict[str, bool] = {}

    for name, declared in program.networks.items():
        if name not in network_files:
            raise NetworkError(
                "MissingNetworkFile", f"no file bound for network {name!r}"
            )
        path = network_files[name]
        normalised, curried_k = _normalise_network_type(name, declared)
        # The digest is taken over the bytes that were decoded, so a file
        # replaced in between cannot be recorded as verified.
        data = _read_network_file(Path(path))
        model = _decode_network(data, name, Path(path))
        if not _model_matches(normalised, model):
            cod: VType = TensorT(RAT, (model.output_size,))
            actual = FunT(TensorT(RAT, (model.input_size,)), cod)
            raise NetworkError(
                "NetworkTypeMismatch",
                f"network {name!r} is declared {normalised} but the file "
                f"implements {actual}",
                path=path,
            )
        ctx[name] = NetworkInfo(model, normalised, str(path), hashlib.sha256(data).hexdigest())
        rewrite_arity[name] = curried_k
        assert isinstance(declared, FunT)
        # Application sites need '! 0' when the user-facing codomain is scalar.
        codomain_scalar[name] = curried_k is not None or not isinstance(
            declared.cod, TensorT
        )

    rewriter = _ApplicationRewriter(rewrite_arity, codomain_scalar)
    new_decls: list[TypedDecl] = []
    new_program = TypedProgram(decls=[])
    new_program.synonyms = dict(program.synonyms)
    for decl in program.decls:
        if decl.kind == "network":
            continue
        if decl.kind == "def":
            assert decl.body is not None
            body = rewriter.rewrite(decl.body)
            decl = TypedDecl(
                decl.name, decl.kind, decl.signature, decl.vtype, decl.params, body, decl.pos
            )
            new_program.definitions[decl.name] = body
            new_program.def_types[decl.name] = decl.vtype
        new_decls.append(decl)
    new_program.decls = new_decls
    return new_program, ctx


class _ApplicationRewriter:
    """Rewrites each application of a network to the tensor form.

    ``arity`` holds every network's curried argument count (None for a
    tensor argument), and ``codomain_scalar`` whether its applications
    need ``! 0``."""

    __slots__ = ("arity", "codomain_scalar")

    def __init__(self, arity: dict[str, int | None], codomain_scalar: dict[str, bool]):
        self.arity = arity
        self.codomain_scalar = codomain_scalar

    def rewrite(self, e: core.Expr) -> core.Expr:
        # Collect the application spine.
        spine: list[core.Expr] = []
        head = e
        while type(head) is core.App:  # exact types: no node class has a subclass
            spine.append(head.arg)
            head = head.fn
        if type(head) is core.TopRef and head.name in self.arity:
            spine.reverse()
            args = [self.rewrite(a) for a in spine]
            k = self.arity[head.name]
            if k is None:
                if len(args) < 1:
                    raise NetworkError(
                        "NetworkUsedAsValue",
                        f"network {head.name!r} must be applied to an argument",
                    )
                app: core.Expr = core.NetworkApp(head.name, args[0])
                if self.codomain_scalar[head.name]:
                    app = core.Index(app, core.NatLit(0))
                for extra in args[1:]:
                    app = core.App(app, extra)
                return app
            if len(args) == 0:
                raise NetworkError(
                    "NetworkUsedAsValue",
                    f"network {head.name!r} must be applied to an argument",
                )
            if len(args) < k:
                raise NetworkError(
                    "PartialNetworkApplication",
                    f"network {head.name!r} expects {k} arguments, got {len(args)}",
                )
            packed = core.NetworkApp(head.name, core.TensorLit(tuple(args[:k])))
            app = core.Index(packed, core.NatLit(0))
            for extra in args[k:]:
                app = core.App(app, extra)
            return app
        return core.map_children(e, self.rewrite)
