import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import run_network_by_hand
from vspec import core, networks
from vspec.errors import NetworkError
from vspec.networks import Affine, NetworkModel, Relu, analyze_network_types, hash_file, parse_vnet
from vspec.normalise import prune_non_prop
from vspec.surface import parse
from vspec.typecheck import typecheck
from vspec.types import RAT, FunT, TensorT

IDENTITY_VNET = """\
vnet 1
input 1
affine 2 1
1
-1
0 0
relu
affine 1 2
1 -1
0
"""


def load_network(path: Path) -> NetworkModel:
    """Read and decode a network file as ``analyze_network_types`` does,
    named after the file's stem."""
    return networks._decode_network(networks._read_network_file(path), path.stem, path)


def test_identity_trick_network(tmp_path):
    # relu(x) - relu(-x) = x
    path = tmp_path / "id.vnet"
    path.write_text(IDENTITY_VNET)
    model = load_network(path)
    assert model.input_size == 1
    assert model.output_size == 1
    for x in (Fraction(-2), Fraction(0), Fraction(3)):
        assert run_network_by_hand(model.layers, [x]) == [x]


def test_model_evaluation_matches_hand_interpreter(controller_net):
    model = load_network(controller_net)
    points = [
        [Fraction(0), Fraction(0)],
        [Fraction(13, 4), Fraction(-13, 4)],
        [Fraction(-1, 3), Fraction(5, 7)],
        [Fraction(2), Fraction(-3)],
    ]
    for xs in points:
        assert run_network_by_hand(model.layers, xs) == [-2 * xs[0] + xs[1]]


def test_empty_file_is_malformed(tmp_path):
    path = tmp_path / "empty.vnet"
    path.write_bytes(b"")
    with pytest.raises(NetworkError) as err:
        load_network(path)
    assert err.value.code == "MalformedNetworkFile"


def test_missing_file(tmp_path):
    with pytest.raises(NetworkError) as err:
        load_network(tmp_path / "nope.vnet")
    assert err.value.code == "MissingNetworkFile"


def test_unknown_text_format(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("some random text file\n")
    with pytest.raises(NetworkError) as err:
        load_network(path)
    assert err.value.code == "UnsupportedFormat"


def test_unsupported_vnet_version(tmp_path):
    path = tmp_path / "v2.vnet"
    path.write_text("vnet 2\ninput 1\n")
    with pytest.raises(NetworkError) as err:
        load_network(path)
    assert err.value.code == "UnsupportedFormat"


def test_vnet_dimension_mismatch_rejected():
    text = "vnet 1\ninput 2\naffine 1 3\n1 2 3\n0\n"
    with pytest.raises(NetworkError) as err:
        parse_vnet(text, "bad")
    assert err.value.code == "MalformedNetworkFile"


def test_vnet_rational_entries():
    text = "vnet 1\ninput 1\naffine 1 1\n1/3\n-0.5\n"
    model = parse_vnet(text, "rat")
    layer = model.layers[0]
    assert isinstance(layer, Affine)
    assert layer.weights == ((Fraction(1, 3),),)
    assert layer.bias == (Fraction(-1, 2),)


def test_relu_count(controller_net):
    layers = load_network(controller_net).layers
    assert [layer.width for layer in layers if isinstance(layer, Relu)] == [4]


# -- hashing ----------------------------------------------------------------


def test_hash_of_empty_file(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    assert (
        hash_file(path)
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_hash_is_deterministic(controller_net):
    assert hash_file(controller_net) == hash_file(controller_net)
    assert hash_file(controller_net) == hashlib.sha256(controller_net.read_bytes()).hexdigest()


def test_single_flipped_bit_changes_digest(tmp_path, controller_net):
    data = bytearray(controller_net.read_bytes())
    original = hash_file(controller_net)
    data[7] ^= 0x01
    mutated = tmp_path / "mutated.vnet"
    mutated.write_bytes(bytes(data))
    assert hash_file(mutated) != original


def test_network_digest_is_of_the_decoded_bytes(
    tmp_path, monkeypatch, controller_spec, controller_net, controller_zero_net
):
    # The file is replaced right after its first read.  Reading it again for
    # the digest would record the bytes of a network that was never decoded.
    from pathlib import Path

    from vspec.pipeline import compile_spec

    net = tmp_path / "controller.vnet"
    net.write_bytes(controller_net.read_bytes())
    reads = []
    read_bytes = Path.read_bytes

    def replacing(self):
        data = read_bytes(self)
        if self == net:
            reads.append(self)
            net.write_bytes(controller_zero_net.read_bytes())
        return data

    monkeypatch.setattr(Path, "read_bytes", replacing)
    compiled = compile_spec(controller_spec, {"controller": str(net)})
    assert len(reads) == 1
    assert compiled.ctx["controller"].digest == hash_file(controller_net)


def test_spec_digest_is_of_the_compiled_bytes(
    tmp_path, monkeypatch, controller_spec, controller_net
):
    # The spec is replaced right after its first read, by one whose property
    # has another name.  A second read for the digest would record the bytes
    # of a spec that was never compiled.
    from vspec.pipeline import compile_spec

    spec = tmp_path / "spec.vcl"
    original = controller_spec.read_bytes()
    spec.write_bytes(original)
    reads = []
    read_bytes, read_text = Path.read_bytes, Path.read_text

    def replacing(self):
        data = read_bytes(self)
        if self == spec:
            reads.append("bytes")
            spec.write_bytes(original.replace(b"safe ", b"other "))
        return data

    def counting(self, *args, **kwargs):
        if self == spec:
            reads.append("text")
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", replacing)
    monkeypatch.setattr(Path, "read_text", counting)
    compiled = compile_spec(spec, {"controller": str(controller_net)})
    assert reads == ["bytes"]
    assert [name for name, _ in compiled.properties] == ["safe"]
    assert compiled.spec_digest == hashlib.sha256(original).hexdigest()


# -- network type analysis ---------------------------------------------------


def analyse(source, bindings):
    """The normalised properties of ``source`` and its network context."""
    program = typecheck(parse(source))
    ctx = analyze_network_types(program, bindings)
    return prune_non_prop(program), ctx


def test_scalar_codomain_normalised_with_index(controller_spec, controller_net):
    [(_, prop)], ctx = analyse(controller_spec.read_text(), {"controller": str(controller_net)})
    info = ctx["controller"]
    assert info.declared_type == FunT(TensorT(RAT, (2,)), TensorT(RAT, (1,)))
    assert info.digest == hash_file(controller_net)
    # Applications are taken at '! 0'.  The chained comparison desugared
    # into two atoms, each holding one copy of the application.
    hits = [
        sub
        for sub in core.subterms(prop)
        if isinstance(sub, core.Index) and isinstance(sub.tensor, core.NetworkApp)
    ]
    assert len(hits) == 2
    assert all(hit.index == core.NatLit(0) for hit in hits)
    assert hits[0] == hits[1]


def test_no_network_declarations_remain(controller_spec, controller_net):
    props, ctx = analyse(controller_spec.read_text(), {"controller": str(controller_net)})
    assert [name for name, _ in props] == ["safe"]
    # A reference to the network would be a TopRef.
    refs = [s for _, prop in props for s in core.subterms(prop) if isinstance(s, core.TopRef)]
    assert refs == []
    assert "controller" in ctx


def test_input_size_mismatch(tmp_path, controller_net):
    source = "network controller : Tensor Rat [3] -> Rat\n\np : Prop\np = forall (x : Tensor Rat [3]) . controller x <= 0"
    with pytest.raises(NetworkError) as err:
        analyse(source, {"controller": str(controller_net)})
    assert err.value.code == "NetworkTypeMismatch"


def test_curried_sugar_rewrites_to_tensor_application(controller_net):
    source = (
        "network f : Rat -> Rat -> Rat\n\n"
        "p : Prop\np = forall a b . f a b <= 0"
    )
    [(_, prop)], ctx = analyse(source, {"f": str(controller_net)})
    assert ctx["f"].declared_type == FunT(TensorT(RAT, (2,)), TensorT(RAT, (1,)))
    apps = [s for s in core.subterms(prop) if isinstance(s, core.NetworkApp)]
    assert len(apps) == 1
    assert isinstance(apps[0].arg, core.TensorLit)
    assert len(apps[0].arg.items) == 2


def test_partial_application_is_rejected(controller_net):
    source = (
        "network f : Rat -> Rat -> Rat\n\n"
        "g : (Rat -> Rat) -> Prop\ng h = h 0 <= 0\n\n"
        "p : Prop\np = forall a . g (f a)"
    )
    with pytest.raises(NetworkError) as err:
        analyse(source, {"f": str(controller_net)})
    assert err.value.code == "PartialNetworkApplication"


def test_network_as_value_is_rejected(controller_net):
    source = (
        "network f : Tensor Rat [2] -> Rat\n\n"
        "g : (Tensor Rat [2] -> Rat) -> Prop\ng h = h [0, 0] <= 0\n\n"
        "p : Prop\np = g f"
    )
    with pytest.raises(NetworkError) as err:
        analyse(source, {"f": str(controller_net)})
    assert err.value.code == "NetworkUsedAsValue"


def test_missing_network_file(controller_spec):
    program = typecheck(parse(controller_spec.read_text()))
    with pytest.raises(NetworkError) as err:
        analyze_network_types(program, {})
    assert err.value.code == "MissingNetworkFile"


def test_network_app_arguments_have_context_tensor_type(
    controller_spec, controller_net
):
    [(_, prop)], ctx = analyse(controller_spec.read_text(), {"controller": str(controller_net)})
    m = ctx["controller"].input_size
    apps = [sub for sub in core.subterms(prop) if isinstance(sub, core.NetworkApp)]
    # The argument is one tensor of m items: the quantified vector, which
    # normalisation expanded into its m scalar variables.
    assert apps and all(sub.arg == core.TensorLit((core.Var(1), core.Var(0))) for sub in apps)
    assert m == 2
