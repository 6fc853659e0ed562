"""A minimal protobuf writer for one-hidden-layer ONNX models.

Writes exactly the records a reader needs to recover
``y = W2 @ relu(W1 @ x + b1) + b2``: a ModelProto with an opset import
and a GraphProto holding two Gemm nodes (transB = 1) around a Relu, the
four float32 initializers as ``raw_data``, and the graph input and output
with their shapes.  Field numbers follow the public ONNX schema
(onnx.proto3).  Weights are passed as float32 bit patterns, so the file
holds exactly the values the reference oracle evaluates.
"""

from __future__ import annotations

import struct

_VARINT = 0
_LENGTH = 2
_FLOAT = 1  # TensorProto.DataType.FLOAT
_ATTR_INT = 2  # AttributeProto.AttributeType.INT


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _key(field: int, wire: int) -> bytes:
    return _varint(field << 3 | wire)


def _int(field: int, value: int) -> bytes:
    return _key(field, _VARINT) + _varint(value)


def _bytes(field: int, payload: bytes) -> bytes:
    return _key(field, _LENGTH) + _varint(len(payload)) + payload


def _str(field: int, text: str) -> bytes:
    return _bytes(field, text.encode("utf-8"))


def _tensor(name: str, dims: list[int], bits: list[int]) -> bytes:
    raw = struct.pack(f"<{len(bits)}I", *bits)
    body = b"".join(_int(1, d) for d in dims)
    return body + _int(2, _FLOAT) + _str(8, name) + _bytes(9, raw)


def _value_info(name: str, dims: list[int]) -> bytes:
    shape = b"".join(_bytes(1, _int(1, d)) for d in dims)
    tensor_type = _int(1, _FLOAT) + _bytes(2, shape)
    return _str(1, name) + _bytes(2, _bytes(1, tensor_type))


def _node(inputs: list[str], output: str, op: str, trans_b: bool = False) -> bytes:
    body = b"".join(_str(1, i) for i in inputs) + _str(2, output) + _str(4, op)
    if trans_b:
        body += _bytes(5, _str(1, "transB") + _int(3, 1) + _int(20, _ATTR_INT))
    return body


def one_hidden_layer_model(
    w1: list[list[int]], b1: list[int], w2: list[int], b2: int
) -> bytes:
    """Serialise the model; every weight is a float32 bit pattern.

    ``w1`` is hidden x inputs, ``b1`` has one entry per hidden unit, ``w2``
    one entry per hidden unit, and the network has a single output.
    """
    hidden, inputs = len(w1), len(w1[0])
    nodes = [
        _node(["x", "W1", "B1"], "h", "Gemm", trans_b=True),
        _node(["h"], "r", "Relu"),
        _node(["r", "W2", "B2"], "y", "Gemm", trans_b=True),
    ]
    initializers = [
        _tensor("W1", [hidden, inputs], [v for row in w1 for v in row]),
        _tensor("B1", [hidden], b1),
        _tensor("W2", [1, hidden], w2),
        _tensor("B2", [1], [b2]),
    ]
    graph = (
        b"".join(_bytes(1, n) for n in nodes)
        + _str(2, "perfbench")
        + b"".join(_bytes(5, t) for t in initializers)
        + _bytes(11, _value_info("x", [1, inputs]))
        + _bytes(12, _value_info("y", [1, 1]))
    )
    opset = _str(1, "") + _int(2, 13)
    return _int(1, 7) + _str(2, "perfbench") + _bytes(7, graph) + _bytes(8, opset)
