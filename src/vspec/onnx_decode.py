"""Minimal protobuf wire-format decoder for an ONNX model subset.

Decodes exactly the wire features needed to recover dense feed-forward
networks: varint and length-delimited records for the message structure,
little-endian float32 payloads for weights (fixed32 records are consumed
only to validate Gemm's alpha/beta attributes).  Accepted node chains are
(MatMul [+ Add] | Gemm) and Relu, alternating freely; a leading Flatten is
absorbed.  Every finite float32 weight converts to the exact rational it
denotes; NaN or infinite weights are rejected.

Field numbers follow the public ONNX schema (onnx.proto3).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import NetworkError

_VARINT = 0
_FIXED64 = 1
_LENGTH = 2
_FIXED32 = 5

# TensorProto.DataType
_FLOAT = 1


def _malformed(msg: str, offset: int | None = None, path: str | None = None) -> NetworkError:
    if offset is not None:
        msg = f"{msg} (at byte offset {offset})"
    return NetworkError("MalformedProtobuf", msg, path=path)


def _read_varint(data: bytes, i: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if i >= len(data):
            raise _malformed("truncated varint", i)
        byte = data[i]
        i += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, i
        shift += 7
        if shift >= 70:
            raise _malformed("varint too long", i)


def _fields(data: bytes) -> Iterator[tuple[int, int, object, int]]:
    """Yield (field_number, wire_type, payload, offset) for each record."""
    i = 0
    while i < len(data):
        offset = i
        key, i = _read_varint(data, i)
        fieldno, wiretype = key >> 3, key & 7
        if wiretype == _VARINT:
            value, i = _read_varint(data, i)
            yield fieldno, wiretype, value, offset
        elif wiretype == _LENGTH:
            length, i = _read_varint(data, i)
            if i + length > len(data):
                raise _malformed("length-delimited field overruns buffer", offset)
            yield fieldno, wiretype, data[i : i + length], offset
            i += length
        elif wiretype == _FIXED32:
            if i + 4 > len(data):
                raise _malformed("truncated fixed32 field", offset)
            yield fieldno, wiretype, data[i : i + 4], offset
            i += 4
        elif wiretype == _FIXED64:
            if i + 8 > len(data):
                raise _malformed("truncated fixed64 field", offset)
            yield fieldno, wiretype, data[i : i + 8], offset
            i += 8
        else:
            raise _malformed(f"unsupported wire type {wiretype}", offset)


@dataclass
class _Attribute:
    name: str = ""
    f: float | None = None
    i: int | None = None


@dataclass
class _Node:
    op_type: str = ""
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    attributes: list[_Attribute] = field(default_factory=list)


@dataclass
class _Tensor:
    name: str = ""
    dims: list[int] = field(default_factory=list)
    data_type: int = 0
    raw_data: bytes = b""
    float_data: list[float] = field(default_factory=list)


@dataclass
class _ValueInfo:
    name: str = ""
    dims: list[int | None] = field(default_factory=list)  # None = symbolic


@dataclass
class _Graph:
    nodes: list[_Node] = field(default_factory=list)
    initializers: list[_Tensor] = field(default_factory=list)
    inputs: list[_ValueInfo] = field(default_factory=list)
    outputs: list[_ValueInfo] = field(default_factory=list)


def _decode_attribute(data: bytes) -> _Attribute:
    attr = _Attribute()
    for fieldno, wiretype, payload, _ in _fields(data):
        if fieldno == 1 and wiretype == _LENGTH:
            attr.name = payload.decode("utf-8", errors="replace")  # type: ignore[union-attr]
        elif fieldno == 2 and wiretype == _FIXED32:
            attr.f = struct.unpack("<f", payload)[0]  # type: ignore[arg-type]
        elif fieldno == 3 and wiretype == _VARINT:
            value = int(payload)  # type: ignore[arg-type]
            if value >= 1 << 63:
                value -= 1 << 64
            attr.i = value
    return attr


def _decode_node(data: bytes) -> _Node:
    node = _Node()
    for fieldno, wiretype, payload, _ in _fields(data):
        if wiretype != _LENGTH:
            continue
        text = payload  # type: ignore[assignment]
        if fieldno == 1:
            node.inputs.append(text.decode("utf-8", errors="replace"))
        elif fieldno == 2:
            node.outputs.append(text.decode("utf-8", errors="replace"))
        elif fieldno == 4:
            node.op_type = text.decode("utf-8", errors="replace")
        elif fieldno == 5:
            node.attributes.append(_decode_attribute(text))
    return node


def _decode_tensor(data: bytes) -> _Tensor:
    tensor = _Tensor()
    for fieldno, wiretype, payload, offset in _fields(data):
        if fieldno == 1 and wiretype == _VARINT:
            tensor.dims.append(int(payload))  # type: ignore[arg-type]
        elif fieldno == 1 and wiretype == _LENGTH:
            # packed repeated int64
            i = 0
            buf: bytes = payload  # type: ignore[assignment]
            while i < len(buf):
                value, i = _read_varint(buf, i)
                tensor.dims.append(value)
        elif fieldno == 2 and wiretype == _VARINT:
            tensor.data_type = int(payload)  # type: ignore[arg-type]
        elif fieldno == 4 and wiretype == _LENGTH:
            buf = payload  # type: ignore[assignment]
            if len(buf) % 4:
                raise _malformed("packed float data is not a multiple of 4 bytes", offset)
            tensor.float_data.extend(
                struct.unpack(f"<{len(buf) // 4}f", buf)
            )
        elif fieldno == 4 and wiretype == _FIXED32:
            tensor.float_data.append(struct.unpack("<f", payload)[0])  # type: ignore[arg-type]
        elif fieldno == 8 and wiretype == _LENGTH:
            tensor.name = payload.decode("utf-8", errors="replace")  # type: ignore[union-attr]
        elif fieldno == 9 and wiretype == _LENGTH:
            tensor.raw_data = payload  # type: ignore[assignment]
    return tensor


def _decode_value_info(data: bytes) -> _ValueInfo:
    info = _ValueInfo()
    for fieldno, wiretype, payload, _ in _fields(data):
        if wiretype != _LENGTH:
            continue
        if fieldno == 1:
            info.name = payload.decode("utf-8", errors="replace")  # type: ignore[union-attr]
        elif fieldno == 2:
            info.dims = _decode_type_dims(payload)  # type: ignore[arg-type]
    return info


def _decode_type_dims(data: bytes) -> list[int | None]:
    dims: list[int | None] = []
    for fieldno, wiretype, payload, _ in _fields(data):  # TypeProto
        if fieldno == 1 and wiretype == _LENGTH:  # tensor_type
            for f2, w2, p2, _ in _fields(payload):  # type: ignore[arg-type]
                if f2 == 2 and w2 == _LENGTH:  # shape
                    for f3, w3, p3, _ in _fields(p2):  # type: ignore[arg-type]
                        if f3 == 1 and w3 == _LENGTH:  # dim
                            dim: int | None = None
                            for f4, w4, p4, _ in _fields(p3):  # type: ignore[arg-type]
                                if f4 == 1 and w4 == _VARINT:
                                    dim = int(p4)  # type: ignore[arg-type]
                            dims.append(dim)
    return dims


def _decode_graph(data: bytes) -> _Graph:
    graph = _Graph()
    for fieldno, wiretype, payload, _ in _fields(data):
        if wiretype != _LENGTH:
            continue
        if fieldno == 1:
            graph.nodes.append(_decode_node(payload))  # type: ignore[arg-type]
        elif fieldno == 5:
            graph.initializers.append(_decode_tensor(payload))  # type: ignore[arg-type]
        elif fieldno == 11:
            graph.inputs.append(_decode_value_info(payload))  # type: ignore[arg-type]
        elif fieldno == 12:
            graph.outputs.append(_decode_value_info(payload))  # type: ignore[arg-type]
    return graph


def _tensor_values(t: _Tensor, path: str | None) -> list[Fraction]:
    if t.data_type != _FLOAT:
        raise NetworkError(
            "NonFloatTensor",
            f"initializer {t.name!r} has data type {t.data_type}, only float32 is supported",
            path=path,
        )
    if t.raw_data:
        if len(t.raw_data) % 4:
            raise _malformed(f"raw data of {t.name!r} is not a multiple of 4 bytes")
        floats = list(struct.unpack(f"<{len(t.raw_data) // 4}f", t.raw_data))
    else:
        floats = list(t.float_data)
    values: list[Fraction] = []
    for x in floats:
        if not math.isfinite(x):
            raise NetworkError(
                "NaNOrInfWeight", f"initializer {t.name!r} contains {x}", path=path
            )
        values.append(Fraction(x))  # float -> exact rational
    return values


def _attr_map(node: _Node) -> dict[str, _Attribute]:
    return {a.name: a for a in node.attributes}


_SUPPORTED_OPS = {"Gemm", "MatMul", "Add", "Relu", "Flatten"}


def decode_onnx_subset(data: bytes, name: str, path: str | None = None):
    """Decode protobuf-encoded model bytes into a NetworkModel."""
    from .networks import Affine, NetworkModel, Relu

    graph_data: bytes | None = None
    for fieldno, wiretype, payload, _ in _fields(data):
        if fieldno == 7 and wiretype == _LENGTH:
            graph_data = payload  # type: ignore[assignment]
    if graph_data is None:
        raise _malformed("no graph found in model", path=path)
    graph = _decode_graph(graph_data)

    for node in graph.nodes:
        if node.op_type not in _SUPPORTED_OPS:
            raise NetworkError(
                "UnsupportedOperator",
                f"operator {node.op_type!r} is outside the supported subset",
                path=path,
            )

    initializers = {t.name: t for t in graph.initializers}
    graph_inputs = [v for v in graph.inputs if v.name not in initializers]
    if len(graph_inputs) != 1 or len(graph.outputs) != 1:
        raise NetworkError(
            "UnsupportedOperator",
            "exactly one graph input and one graph output are supported",
            path=path,
        )
    input_info, output_info = graph_inputs[0], graph.outputs[0]

    def concrete_size(dims: list[int | None]) -> int:
        size = 1
        for d in dims:
            if d is not None and d > 0:
                size *= d
        return size

    m = concrete_size(input_info.dims)
    n = concrete_size(output_info.dims)

    by_input: dict[str, _Node] = {}
    for node in graph.nodes:
        data_inputs = [i for i in node.inputs if i not in initializers]
        if len(data_inputs) != 1:
            raise NetworkError(
                "UnsupportedOperator",
                f"node {node.op_type!r} must have exactly one non-initializer input",
                path=path,
            )
        by_input[data_inputs[0]] = node

    def weight_tensor(node: _Node, input_name: str) -> _Tensor:
        names = [i for i in node.inputs if i != input_name]
        if not names or names[0] not in initializers:
            raise NetworkError(
                "UnsupportedOperator",
                f"{node.op_type} weights must come from an initializer",
                path=path,
            )
        return initializers[names[0]]

    def output(node: _Node) -> str:
        if not node.outputs:
            raise _malformed(f"node {node.op_type!r} has no output", path=path)
        return node.outputs[0]

    layers: list[Affine | Relu] = []
    width = m
    current = input_info.name
    seen = 0
    while current != output_info.name:
        node = by_input.get(current)
        if node is None:
            raise _malformed(
                f"dangling tensor {current!r}: no node consumes it and it is not the output",
                path=path,
            )
        seen += 1
        if seen > len(graph.nodes):
            raise _malformed("node chain does not reach the graph output", path=path)
        op = node.op_type
        if op == "Flatten":
            if layers:
                raise NetworkError(
                    "UnsupportedOperator",
                    "Flatten is only absorbed on the graph input",
                    path=path,
                )
            current = output(node)
            continue
        if op == "Relu":
            layers.append(Relu(width))
            current = output(node)
            continue
        if op == "Gemm":
            attrs = _attr_map(node)
            alpha = attrs.get("alpha")
            beta = attrs.get("beta")
            trans_a = attrs.get("transA")
            trans_b = attrs.get("transB")
            if alpha is not None and alpha.f not in (None, 1.0):
                raise NetworkError(
                    "UnsupportedOperator", f"Gemm alpha={alpha.f} is unsupported", path=path
                )
            if beta is not None and beta.f not in (None, 1.0):
                raise NetworkError(
                    "UnsupportedOperator", f"Gemm beta={beta.f} is unsupported", path=path
                )
            if trans_a is not None and trans_a.i not in (None, 0):
                raise NetworkError(
                    "UnsupportedOperator", "Gemm transA=1 is unsupported", path=path
                )
            transposed = trans_b is not None and trans_b.i == 1
            w = weight_tensor(node, current)
            wvals = _tensor_values(w, path)
            if len(w.dims) != 2 or len(wvals) != w.dims[0] * w.dims[1]:
                raise _malformed(f"weight tensor {w.name!r} has inconsistent dims", path=path)
            rows, cols = (w.dims if transposed else list(reversed(w.dims)))
            weights = _reshape(wvals, w.dims, transpose=not transposed)
            other = [i for i in node.inputs if i != current]
            if len(other) >= 2:
                bvals = _tensor_values(initializers[other[1]], path)
                if len(bvals) != rows:
                    raise _malformed("Gemm bias width mismatch", path=path)
                bias = tuple(bvals)
            else:
                bias = tuple(Fraction(0) for _ in range(rows))
            if cols != width:
                raise _malformed(
                    f"Gemm input width {cols} does not match incoming width {width}",
                    path=path,
                )
            layers.append(Affine(weights, bias))
            width = rows
            current = output(node)
            continue
        if op == "MatMul":
            w = weight_tensor(node, current)
            wvals = _tensor_values(w, path)
            if len(w.dims) != 2 or len(wvals) != w.dims[0] * w.dims[1]:
                raise _malformed(f"weight tensor {w.name!r} has inconsistent dims", path=path)
            # MatMul computes x_row @ W with W of shape (in, out).
            in_w, out_w = w.dims
            if in_w != width:
                raise _malformed(
                    f"MatMul input width {in_w} does not match incoming width {width}",
                    path=path,
                )
            weights = _reshape(wvals, w.dims, transpose=True)
            bias = tuple(Fraction(0) for _ in range(out_w))
            # Fuse a following Add with an initializer operand as the bias.
            current = output(node)
            nxt = by_input.get(current)
            if nxt is not None and nxt.op_type == "Add":
                bname = [i for i in nxt.inputs if i != current]
                if not bname or bname[0] not in initializers:
                    raise NetworkError(
                        "UnsupportedOperator",
                        "Add bias must come from an initializer",
                        path=path,
                    )
                bvals = _tensor_values(initializers[bname[0]], path)
                if len(bvals) != out_w:
                    raise _malformed("Add bias width mismatch", path=path)
                bias = tuple(bvals)
                current = output(nxt)
            layers.append(Affine(weights, bias))
            width = out_w
            continue
        # A standalone Add is outside the accepted chains.
        raise NetworkError(
            "UnsupportedOperator", f"operator {op!r} is not allowed here", path=path
        )

    if width != n:
        raise _malformed(
            f"network output width {width} does not match declared shape {n}", path=path
        )
    return NetworkModel(name, m, n, tuple(layers))


def _reshape(
    values: list[Fraction], dims: list[int], transpose: bool
) -> tuple[tuple[Fraction, ...], ...]:
    r, c = dims
    rows = [tuple(values[i * c : (i + 1) * c]) for i in range(r)]
    if transpose:
        return tuple(tuple(rows[i][j] for i in range(r)) for j in range(c))
    return tuple(rows)
