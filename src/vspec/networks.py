"""Network models: loading, validation, hashing, and matching the files
against the declared network types.

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

``analyze_network_types`` matches each network's file against its
declared type; the type checker checks network applications, and the
normaliser builds them.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

from .errors import NetworkError
from .rational import parse_rational
from .typecheck import TypedProgram
from .types import RAT, FunT, TensorT, VType, frozen_dataclass, network_type


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
# Matching declared network types
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


def _model_matches(info_type: VType, model: NetworkModel) -> bool:
    assert isinstance(info_type, FunT)
    dom, cod = info_type.dom, info_type.cod
    assert isinstance(dom, TensorT) and isinstance(cod, TensorT)
    if dom.elem != RAT or cod.elem != RAT:
        return False
    return dom.dims == (model.input_size,) and cod.dims == (model.output_size,)


def analyze_network_types(program: TypedProgram, network_files: dict[str, str]) -> NetworkContext:
    """Load and hash the file bound to each declared network, and check that
    it implements the tensor form of the network's declared type."""
    ctx: NetworkContext = {}
    for name, declared in program.networks.items():
        if name not in network_files:
            raise NetworkError(
                "MissingNetworkFile", f"no file bound for network {name!r}"
            )
        path = network_files[name]
        normalised, _, _ = network_type(name, declared)
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
    return ctx
