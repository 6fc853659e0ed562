import random
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from vspec import cli, proofcache
from vspec.errors import CacheError
from vspec.networks import hash_file
from vspec.proofcache import (
    ProofCacheFile,
    PropertyRecord,
    check_all,
    read_proof_file,
    render_proof_file,
    write_proof_file,
)
from vspec.queries import QVar
from vspec.verdicts import NOT_CHECKED, VERIFIED, PropertyStatus

TIME = "2026-08-09T12:00:00Z"


def sample_cache(tmp_path, controller_net):
    spec = tmp_path / "spec.vcl"
    spec.write_text("safe : Prop\nsafe = 1 <= 2\n")
    return ProofCacheFile(
        spec_path=str(spec),
        spec_digest=hash_file(spec),
        networks=[("controller", str(controller_net), hash_file(controller_net))],
        properties=[PropertyRecord("safe", VERIFIED, 2, "builtin", TIME)],
        itp_module_digest="ab" * 32,
    )


def test_read_after_write_round_trip(tmp_path, controller_net):
    cache = sample_cache(tmp_path, controller_net)
    path = tmp_path / "proof.vclp"
    write_proof_file(cache, path)
    assert read_proof_file(path) == cache


def test_serialisation_is_canonical(tmp_path, controller_net):
    cache = sample_cache(tmp_path, controller_net)
    cache.networks = [
        ("b", str(controller_net), hash_file(controller_net)),
        ("a", str(controller_net), hash_file(controller_net)),
    ]
    text = render_proof_file(cache)
    lines = text.splitlines()
    assert lines[2].startswith("network a ")
    assert lines[3].startswith("network b ")
    # Rendering twice gives identical bytes.
    assert render_proof_file(cache) == text


def test_falsified_witness_round_trips(tmp_path, controller_net):
    witness = (
        (QVar("x", 0), Fraction(13, 4)),
        (QVar("x", 1), Fraction(-13, 4)),
        (QVar("y", 0), Fraction(0)),
    )
    cache = sample_cache(tmp_path, controller_net)
    cache.properties = [
        PropertyRecord("safe", PropertyStatus("Falsified", witness), 2, "builtin", TIME)
    ]
    path = tmp_path / "proof.vclp"
    write_proof_file(cache, path)
    loaded = read_proof_file(path)
    assert loaded.properties[0].status.kind == "Falsified"
    assert loaded.properties[0].status.witness == witness


def test_untouched_files_return_status_without_verification(tmp_path, controller_net):
    cache = sample_cache(tmp_path, controller_net)
    path = tmp_path / "proof.vclp"
    write_proof_file(cache, path)
    [record] = check_all(path).properties
    assert (record.name, record.status.kind) == ("safe", "Verified")


def test_unknown_property(tmp_path, controller_net, capsys):
    cache = sample_cache(tmp_path, controller_net)
    path = tmp_path / "proof.vclp"
    write_proof_file(cache, path)
    assert [record.name for record in check_all(path).properties] == ["safe"]
    assert cli.main(["check", "--proof-file", str(path), "--property", "unsafe"]) == 1
    assert "[UnknownProperty]" in capsys.readouterr().err


def test_network_mutation_is_stale(tmp_path, controller_net):
    mutable = tmp_path / "net.vnet"
    mutable.write_bytes(controller_net.read_bytes())
    cache = sample_cache(tmp_path, controller_net)
    cache.networks = [("controller", str(mutable), hash_file(mutable))]
    path = tmp_path / "proof.vclp"
    write_proof_file(cache, path)

    data = bytearray(mutable.read_bytes())
    data[10] ^= 0x04
    mutable.write_bytes(bytes(data))
    with pytest.raises(CacheError) as err:
        check_all(path)
    assert err.value.code == "StaleCache"
    assert "controller" in err.value.message


def test_missing_network_file_is_stale(tmp_path, controller_net):
    moved = tmp_path / "gone.vnet"
    moved.write_bytes(controller_net.read_bytes())
    cache = sample_cache(tmp_path, controller_net)
    cache.networks = [("controller", str(moved), hash_file(moved))]
    path = tmp_path / "proof.vclp"
    write_proof_file(cache, path)
    moved.unlink()
    with pytest.raises(CacheError) as err:
        check_all(path)
    assert err.value.code == "StaleCache"


def test_spec_digest_is_also_checked(tmp_path, controller_net):
    cache = sample_cache(tmp_path, controller_net)
    path = tmp_path / "proof.vclp"
    write_proof_file(cache, path)
    spec = tmp_path / "spec.vcl"
    spec.write_text(spec.read_text() + "-- touched\n")
    with pytest.raises(CacheError) as err:
        check_all(path)
    assert err.value.code == "StaleCache"


def test_hundred_random_single_byte_mutations_all_stale(tmp_path, controller_net):
    rng = random.Random(20260808)
    original = controller_net.read_bytes()
    mutable = tmp_path / "net.vnet"
    path = tmp_path / "proof.vclp"
    mutable.write_bytes(original)
    cache = sample_cache(tmp_path, controller_net)
    cache.networks = [("controller", str(mutable), hash_file(mutable))]
    write_proof_file(cache, path)

    stale = 0
    for _ in range(100):
        data = bytearray(original)
        index = rng.randrange(len(data))
        data[index] ^= 1 << rng.randrange(8)
        mutable.write_bytes(bytes(data))
        try:
            check_all(path)
        except CacheError as err:
            assert err.code == "StaleCache"
            stale += 1
    assert stale == 100


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "bad.vclp"
    path.write_text("not a proof file\n")
    with pytest.raises(CacheError) as err:
        read_proof_file(path)
    assert err.value.code == "MalformedProofFile"


def test_line_split_agrees_with_shlex(tmp_path):
    """Seeded random lines, with and without quotes and escapes, split into
    the tokens ``shlex.split`` gives, or fail where it fails.  The alphabet
    holds shlex's whitespace and the spaces it does not split on."""
    rng = random.Random(20261019)
    plain = "ab=/#.:-x0 \t\r\x0b\x0c\xa0\u2028"
    path = tmp_path / "p.vclp"
    seen = dict.fromkeys(("unquoted", "quoted", "error"), 0)
    for _ in range(20_000):
        alphabet = plain + "'\"\\" if rng.random() < 0.5 else plain
        line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            expected = shlex.split(line)
        except ValueError:
            with pytest.raises(CacheError) as err:
                proofcache._split(line, path)
            assert err.value.code == "MalformedProofFile"
            seen["error"] += 1
            continue
        assert proofcache._split(line, path) == expected, repr(line)
        seen["quoted" if set(line) & set("'\"\\") else "unquoted"] += 1
    assert min(seen.values()) >= 1_000, seen


def test_not_checked_and_empty_property_lists(tmp_path, controller_net):
    cache = sample_cache(tmp_path, controller_net)
    cache.properties = []
    path = tmp_path / "proof.vclp"
    write_proof_file(cache, path)
    assert read_proof_file(path).properties == []

    cache.properties = [PropertyRecord("later", NOT_CHECKED, 0, "-", TIME)]
    write_proof_file(cache, path)
    assert read_proof_file(path).properties[0].status.kind == "NotChecked"


def test_proofcache_module_never_imports_the_verifier():
    # Status checks can never trigger verification: enforced by dependency
    # direction, checked here in a fresh interpreter.
    code = (
        "import sys\n"
        "import vspec.proofcache\n"
        "assert not any(m.startswith('vspec.verifier') for m in sys.modules), "
        "sorted(m for m in sys.modules if m.startswith('vspec'))\n"
        "print('clean')\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "clean"
