import collections
import random
import struct
from fractions import Fraction

import pytest

from oracles import (
    onnx_attr_float,
    onnx_attr_int,
    onnx_model,
    onnx_node,
    onnx_tensor,
    onnx_value_info,
    run_network_by_hand,
    simple_gemm_model,
)
from test_networks import load_network
from vspec.errors import NetworkError
from vspec.networks import Affine, Relu
from vspec.onnx_decode import decode_onnx_subset


def test_single_gemm_round_trip_field_by_field():
    weights = [[0.5, -1.5]]
    bias = [2.0]
    data = simple_gemm_model(weights, bias, trans_b=1)
    model = decode_onnx_subset(data, "net")
    assert model.input_size == 2
    assert model.output_size == 1
    assert len(model.layers) == 1
    layer = model.layers[0]
    assert isinstance(layer, Affine)
    assert layer.weights == ((Fraction(1, 2), Fraction(-3, 2)),)
    assert layer.bias == (Fraction(2),)


def test_gemm_without_transpose_matches_transposed():
    weights = [[0.5, -1.5], [0.25, 4.0]]
    bias = [1.0, -1.0]
    a = decode_onnx_subset(simple_gemm_model(weights, bias, trans_b=1), "a")
    b = decode_onnx_subset(simple_gemm_model(weights, bias, trans_b=0), "b")
    assert a.layers == b.layers


def test_float32_bit_pattern_converts_exactly():
    # 0x3F000000 is 0.5 exactly.
    (half,) = struct.unpack("<f", bytes.fromhex("0000003f"))
    data = simple_gemm_model([[half]], [0.0])
    model = decode_onnx_subset(data, "net")
    assert model.layers[0].weights[0][0] == Fraction(1, 2)


def test_every_finite_float_converts_to_its_exact_rational():
    # 0.1 in float32 is not 1/10; the decoder must keep the denoted value.
    data = simple_gemm_model([[0.1]], [0.0])
    model = decode_onnx_subset(data, "net")
    weight = model.layers[0].weights[0][0]
    (denoted,) = struct.unpack("<f", struct.pack("<f", 0.1))
    assert weight == Fraction(denoted)
    assert weight != Fraction(1, 10)


def test_truncated_varint_is_malformed():
    data = simple_gemm_model([[1.0]], [0.0])
    with pytest.raises(NetworkError) as err:
        decode_onnx_subset(data[:-1] + b"\x80", "net")
    assert err.value.code == "MalformedProtobuf"


def test_conv_node_is_unsupported():
    data = onnx_model(
        nodes=[onnx_node("Conv", ["input", "W"], ["output"])],
        initializers=[onnx_tensor("W", [1, 1], [1.0])],
        inputs=[onnx_value_info("input", [1])],
        outputs=[onnx_value_info("output", [1])],
    )
    with pytest.raises(NetworkError) as err:
        decode_onnx_subset(data, "net")
    assert err.value.code == "UnsupportedOperator"


def matmul_add_relu_chain() -> bytes:
    """x(2) -> MatMul W(2x3) -> Add b(3) -> Relu -> MatMul V(3x1)"""
    return onnx_model(
        nodes=[
            onnx_node("MatMul", ["input", "W"], ["h0"]),
            onnx_node("Add", ["h0", "b"], ["h1"]),
            onnx_node("Relu", ["h1"], ["h2"]),
            onnx_node("MatMul", ["h2", "V"], ["output"]),
        ],
        initializers=[
            onnx_tensor("W", [2, 3], [1, 0, 2, -1, 1, 0]),
            onnx_tensor("b", [3], [0.5, 0, -1]),
            onnx_tensor("V", [3, 1], [1, -1, 2]),
        ],
        inputs=[onnx_value_info("input", [2])],
        outputs=[onnx_value_info("output", [1])],
    )


def gemm_relu(relu_outputs: list[str]) -> bytes:
    """x(1) -> Gemm -> Relu, the Relu node with ``relu_outputs``."""
    return onnx_model(
        nodes=[
            onnx_node("Gemm", ["input", "W", "B"], ["h"], [onnx_attr_int("transB", 1)]),
            onnx_node("Relu", ["h"], relu_outputs),
        ],
        initializers=[onnx_tensor("W", [1, 1], [1.0]), onnx_tensor("B", [1], [0.0])],
        inputs=[onnx_value_info("input", [1])],
        outputs=[onnx_value_info("output", [1])],
    )


def test_matmul_add_relu_chain():
    model = decode_onnx_subset(matmul_add_relu_chain(), "net")
    assert [type(l).__name__ for l in model.layers] == ["Affine", "Relu", "Affine"]
    assert model.layers[0].bias == (Fraction(1, 2), Fraction(0), Fraction(-1))
    # Spot-check semantics against a by-hand computation at x = (1, 1):
    #   pre = W^T x + b = (1*1 + -1*1 + 0.5, 0 + 1, 2 + 0 - 1) = (0.5, 1, 1)
    #   post = relu(pre) = same; out = 0.5 - 1 + 2 = 1.5
    assert run_network_by_hand(model.layers, [Fraction(1), Fraction(1)]) == [Fraction(3, 2)]


def test_flatten_is_absorbed_on_input():
    data = onnx_model(
        nodes=[
            onnx_node("Flatten", ["input"], ["flat"]),
            onnx_node(
                "Gemm", ["flat", "W", "B"], ["output"], [onnx_attr_int("transB", 1)]
            ),
        ],
        initializers=[
            onnx_tensor("W", [1, 2], [1.0, 1.0]),
            onnx_tensor("B", [1], [0.0]),
        ],
        inputs=[onnx_value_info("input", [1, 2])],
        outputs=[onnx_value_info("output", [1])],
    )
    model = decode_onnx_subset(data, "net")
    assert model.input_size == 2


def test_gemm_alpha_other_than_one_rejected():
    data = onnx_model(
        nodes=[
            onnx_node(
                "Gemm",
                ["input", "W", "B"],
                ["output"],
                [onnx_attr_float("alpha", 2.0), onnx_attr_int("transB", 1)],
            )
        ],
        initializers=[
            onnx_tensor("W", [1, 1], [1.0]),
            onnx_tensor("B", [1], [0.0]),
        ],
        inputs=[onnx_value_info("input", [1])],
        outputs=[onnx_value_info("output", [1])],
    )
    with pytest.raises(NetworkError) as err:
        decode_onnx_subset(data, "net")
    assert err.value.code == "UnsupportedOperator"


def test_nan_weight_rejected():
    data = simple_gemm_model([[float("nan")]], [0.0])
    with pytest.raises(NetworkError) as err:
        decode_onnx_subset(data, "net")
    assert err.value.code == "NaNOrInfWeight"


def test_infinite_weight_rejected():
    data = simple_gemm_model([[float("inf")]], [0.0])
    with pytest.raises(NetworkError) as err:
        decode_onnx_subset(data, "net")
    assert err.value.code == "NaNOrInfWeight"


def test_non_float_tensor_rejected():
    data = onnx_model(
        nodes=[onnx_node("Gemm", ["input", "W"], ["output"])],
        initializers=[onnx_tensor("W", [1, 1], [1.0], data_type=7)],  # INT64
        inputs=[onnx_value_info("input", [1])],
        outputs=[onnx_value_info("output", [1])],
    )
    with pytest.raises(NetworkError) as err:
        decode_onnx_subset(data, "net")
    assert err.value.code == "NonFloatTensor"


def test_loader_dispatches_on_binary_content(tmp_path):
    path = tmp_path / "model.onnx"
    path.write_bytes(simple_gemm_model([[1.0, -1.0]], [0.25]))
    model = load_network(path)
    assert model.input_size == 2
    assert run_network_by_hand(model.layers, [Fraction(1), Fraction(2)]) == [Fraction(-3, 4)]


def test_standalone_add_is_rejected():
    data = onnx_model(
        nodes=[onnx_node("Add", ["input", "b"], ["output"])],
        initializers=[onnx_tensor("b", [1], [1.0])],
        inputs=[onnx_value_info("input", [1])],
        outputs=[onnx_value_info("output", [1])],
    )
    with pytest.raises(NetworkError) as err:
        decode_onnx_subset(data, "net")
    assert err.value.code == "UnsupportedOperator"


def test_node_without_output_is_malformed():
    with pytest.raises(NetworkError) as err:
        decode_onnx_subset(gemm_relu([]), "net")
    assert err.value.code == "MalformedProtobuf"
    assert "'Relu' has no output" in err.value.message


def test_byte_mutations_decode_or_give_a_coded_diagnostic():
    """Seeded mutations of one to three bytes of three small models: each
    decodes to a model or ends in a ``NetworkError``, never another
    exception."""
    models = [
        simple_gemm_model([[0.5, -1.5], [1.0, 2.0]], [2.0, -1.0]),
        matmul_add_relu_chain(),
        gemm_relu(["output"]),
    ]
    rng = random.Random(20261019)
    codes = collections.Counter()
    for _ in range(4000):
        data = bytearray(rng.choice(models))
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        try:
            codes[type(decode_onnx_subset(bytes(data), "net")).__name__] += 1
        except NetworkError as exc:
            codes["no output" if "has no output" in exc.message else exc.code] += 1
    assert codes["NetworkModel"] and codes["no output"], codes
