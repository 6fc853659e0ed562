import hashlib
import json
import re
import shutil

import pytest

from vspec import cli, proofcache
from vspec.proofcache import read_proof_file


@pytest.fixture
def workspace(tmp_path, monkeypatch, controller_spec, controller_net, controller_zero_net):
    monkeypatch.chdir(tmp_path)
    shutil.copy(controller_spec, tmp_path / "controller-spec.vcl")
    shutil.copy(controller_net, tmp_path / "controller.vnet")
    shutil.copy(controller_zero_net, tmp_path / "controller-zero.vnet")
    return tmp_path


def run(args):
    return cli.main(args)


def test_compile_marabou_layout(workspace, capsys):
    code = run(
        [
            "compile",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--target",
            "marabou",
            "--output",
            "out",
        ]
    )
    assert code == 0
    assert (workspace / "out/safe/query1.txt").exists()
    assert (workspace / "out/safe/query2.txt").exists()
    assert (workspace / "out/safe/queries.manifest").exists()
    assert not (workspace / "out/safe/query3.txt").exists()


def test_missing_network_binding_is_a_compile_error(workspace, capsys):
    code = run(["compile", "--spec", "controller-spec.vcl", "--target", "marabou"])
    assert code == 1
    assert "MissingNetworkFile" in capsys.readouterr().err


def test_compile_agda_cites_proof_file_and_property(workspace):
    code = run(
        [
            "compile",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--target",
            "agda",
            "--output",
            "out",
            "--proof-file",
            "p.vclp",
        ]
    )
    assert code == 0
    text = (workspace / "out/ControllerSpec.agda").read_text()
    assert 'propertyFile = "p.vclp"' in text
    assert 'propertyName = "safe"' in text


def test_verify_writes_proof_file_and_exits_zero(workspace):
    code = run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--proof-file",
            "controller-spec.vclp",
        ]
    )
    assert code == 0
    cache = read_proof_file(workspace / "controller-spec.vclp")
    assert cache.properties[0].name == "safe"
    assert cache.properties[0].status.kind == "Verified"
    assert cache.properties[0].query_count == 2
    assert re.search(
        r" time=\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ\n",
        (workspace / "controller-spec.vclp").read_text(),
    )


def test_verify_falsified_zero_network(workspace, capsys):
    code = run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller-zero.vnet",
            "--proof-file",
            "zero.vclp",
        ]
    )
    assert code == 3
    out = capsys.readouterr().out
    assert "safe: Falsified" in out
    assert "counterexample" in out


def test_check_after_verify_returns_same_status_without_reverification(
    workspace, monkeypatch, capsys
):
    run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--proof-file",
            "controller-spec.vclp",
        ]
    )

    def banned(*args, **kwargs):  # the cached status must be enough
        raise AssertionError("check reinvoked the verifier")

    monkeypatch.setattr(cli, "check_query", banned)
    code = run(["check", "--proof-file", "controller-spec.vclp"])
    assert code == 0
    assert "safe: Verified" in capsys.readouterr().out


def test_check_detects_mutated_network(workspace):
    run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--proof-file",
            "controller-spec.vclp",
        ]
    )
    data = bytearray((workspace / "controller.vnet").read_bytes())
    data[5] ^= 0x10
    (workspace / "controller.vnet").write_bytes(bytes(data))
    assert run(["check", "--proof-file", "controller-spec.vclp"]) == 4


def test_check_resolves_paths_against_the_proof_file_directory(workspace, monkeypatch):
    (workspace / "sub").mkdir()
    code = run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--proof-file",
            "sub/p.vclp",
        ]
    )
    assert code == 0
    cache = read_proof_file(workspace / "sub" / "p.vclp")
    assert cache.spec_path == "../controller-spec.vcl"
    assert cache.networks[0][1] == "../controller.vnet"

    monkeypatch.chdir(workspace / "sub")
    assert run(["check", "--proof-file", "p.vclp"]) == 0
    (workspace / "elsewhere").mkdir()
    monkeypatch.chdir(workspace / "elsewhere")
    proof_file = "../sub/p.vclp"
    assert run(["check", "--proof-file", proof_file]) == 0

    # A changed network is still found stale from there.
    data = bytearray((workspace / "controller.vnet").read_bytes())
    data[5] ^= 0x10
    (workspace / "controller.vnet").write_bytes(bytes(data))
    assert run(["check", "--proof-file", proof_file]) == 4


def test_verify_creates_the_proof_file_directory(workspace):
    verify = ["verify", "--spec", "controller-spec.vcl"]
    verify += ["--network", "controller:controller.vnet"]
    assert run(verify + ["--proof-file", "sub/deeper/p.vclp"]) == 0
    assert run(["check", "--proof-file", "sub/deeper/p.vclp"]) == 0


@pytest.mark.parametrize("spec", ["c\x0bs.vcl", "c\u2028s.vcl"])
def test_check_reads_a_spec_name_holding_a_line_break_of_str_splitlines(
    workspace, capsys, spec
):
    # ``str.splitlines`` breaks lines at these characters, though the proof
    # file keeps them inside one quoted field; only ``\n`` ends a line.
    shutil.copy("controller-spec.vcl", spec)
    verify = ["verify", "--spec", spec, "--network", "controller:controller.vnet"]
    assert run(verify + ["--proof-file", "p.vclp"]) == 0
    assert run(["check", "--proof-file", "p.vclp"]) == 0
    assert "safe: Verified" in capsys.readouterr().out
    assert read_proof_file("p.vclp").spec_path == spec


def test_proof_file_under_a_regular_file_is_an_io_error(workspace, capsys):
    (workspace / "sub").write_text("not a directory")
    code = run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--proof-file",
            "sub/p.vclp",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("sub/p.vclp: error: ")
    assert "[IoError]" in err
    assert ".tmp" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["compile", "--target", "marabou"],
        ["compile", "--target", "agda"],
        ["verify", "--solver", "emit-only"],
    ],
)
def test_output_under_a_regular_file_is_an_io_error(workspace, capsys, command):
    (workspace / "afile").write_text("not a directory")
    net = ["--network", "controller:controller.vnet"]
    code = run(command + ["--spec", "controller-spec.vcl", *net, "--output", "afile/out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("afile/out/")
    assert "[IoError]" in err
    assert "Traceback" not in err


def test_proof_file_naming_a_directory_leaves_no_temp_file(workspace, capsys):
    (workspace / "pdir").mkdir()
    net = ["--network", "controller:controller.vnet"]
    code = run(["verify", "--spec", "controller-spec.vcl", *net, "--proof-file", "pdir"])
    assert code == 2
    err = capsys.readouterr().err
    assert "[IoError]" in err
    assert "Traceback" not in err
    assert not list(workspace.glob("**/*.vclp.tmp"))


def test_network_file_naming_a_directory_is_an_io_error(workspace, capsys):
    (workspace / "netdir").mkdir()
    code = run(["verify", "--spec", "controller-spec.vcl", "--network", "controller:netdir"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("netdir: error: cannot read netdir")
    assert "[IoError]" in err
    assert "Traceback" not in err


def test_unreadable_proof_file_names_its_path(workspace, capsys):
    assert run(["check", "--proof-file", "nope.vclp"]) == 2
    assert capsys.readouterr().err.startswith("nope.vclp: error: cannot read nope.vclp")


def test_out_of_range_output_index_is_a_coded_diagnostic(workspace, capsys):
    (workspace / "one.vnet").write_text("vnet 1\ninput 1\naffine 1 1\n1\n0\n")
    (workspace / "index.vcl").write_text(
        "network f : Tensor Rat [1] -> Tensor Rat [1]\n\n"
        "p : Prop\np = forall x . -1 <= x <= 1 => f [x] ! 3 <= 2\n"
    )
    code = run(["compile", "--spec", "index.vcl", "--network", "f:one.vnet", "--emit", "queries"])
    assert code == 1
    err = capsys.readouterr().err
    assert "network 'f'" in err and "output count 1" in err
    assert "[IndexOutOfBounds]" in err
    assert "Traceback" not in err


def test_deep_nesting_is_a_coded_diagnostic_not_a_traceback(workspace):
    import subprocess
    import sys

    def compile_chain(conjuncts):
        atoms = " and ".join(f"x ! 0 >= {k}" for k in range(conjuncts))
        spec = (
            "network controller : Tensor Rat [2] -> Rat\n\nchain : Prop\n"
            f"chain = forall (x : Tensor Rat [2]) . {atoms} => controller x <= 0\n"
        )
        (workspace / "deep.vcl").write_text(spec)
        args = ["compile", "--spec", "deep.vcl", "--network", "controller:controller.vnet"]
        return subprocess.run(
            [sys.executable, "-m", "vspec", *args, "--emit", "queries"],
            capture_output=True,
            text=True,
        )

    # Within the nesting budget: compiles to one query.
    result = compile_chain(600)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("property chain: 1 queries\n")
    # Over it: the type checker names the position, the depth and the budget.
    result = compile_chain(5000)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("deep.vcl:4:")
    assert "nested 1001 levels deep, over the budget of 1000 levels" in result.stderr
    assert "[NestingTooDeep]" in result.stderr
    assert "Traceback" not in result.stderr


def test_nesting_within_the_budget_reaches_the_type_checker(workspace):
    import subprocess
    import sys

    def compile_body(body):
        spec = (
            "network controller : Tensor Rat [2] -> Rat\n\np : Prop\n"
            f"p = forall (x : Tensor Rat [2]) . {body}\n"
        )
        (workspace / "deep.vcl").write_text(spec)
        args = ["compile", "--spec", "deep.vcl", "--network", "controller:controller.vnet"]
        return subprocess.run(
            [sys.executable, "-m", "vspec", *args, "--emit", "queries"],
            capture_output=True,
            text=True,
        )

    def nested_ifs(levels):
        # The conditions are closed, so the normaliser folds every level.
        return "controller x <= " + "(if 0 <= 1 then 0 else " * levels + "1" + ")" * levels

    # 990 levels of parentheses or of parenthesised 'if', within the budget,
    # parse in the frames cli.RECURSION_LIMIT allows, so the type checker
    # sees the whole term and it compiles.
    for body in (nested_ifs(990), "(" * 990 + "controller x <= 0" + ")" * 990):
        result = compile_body(body)
        assert result.returncode == 0, result.stderr[-500:]
        assert result.stdout.startswith("property p: 1 queries\n")
    # Over it, the diagnostic has a position.
    result = compile_body(nested_ifs(1001))
    assert result.returncode == 1
    assert result.stderr == (
        "deep.vcl:4:22963: error: expression nested 1001 levels deep, "
        "over the budget of 1000 levels [NestingTooDeep]\n"
    )


def test_parentheses_too_deep_to_parse_have_a_position(workspace):
    import subprocess
    import sys

    def compile_parens(levels):
        body = "(" * levels + "controller x <= 0" + ")" * levels
        spec = (
            "network controller : Tensor Rat [2] -> Rat\n\np : Prop\n"
            f"p = forall (x : Tensor Rat [2]) . {body}\n"
        )
        (workspace / "deep.vcl").write_text(spec)
        args = ["compile", "--spec", "deep.vcl", "--network", "controller:controller.vnet"]
        return subprocess.run(
            [sys.executable, "-m", "vspec", *args, "--emit", "queries"],
            capture_output=True,
            text=True,
        )

    # Parentheses add no level to the type checker's budget: 6,000 compile.
    result = compile_parens(6000)
    assert result.returncode == 0, result.stderr[-500:]
    assert result.stdout.startswith("property p: 1 queries\n")
    # 7,000 run out of parser frames, at the token the parser had reached.
    result = compile_parens(7000)
    assert result.returncode == 1
    assert re.fullmatch(
        r"deep\.vcl:4:\d+: error: expression nested too deeply to parse \[NestingTooDeep\]\n",
        result.stderr,
    ), result.stderr[-500:]


def parser_frames_per_level(wrap):
    """Python frames the parser stacks per level of ``wrap(levels)``,
    counted with ``sys.setprofile`` at 100 and 200 levels."""
    import sys

    from vspec.surface import parse

    def deepest(levels):
        depth = top = 0

        def profile(frame, event, arg):
            nonlocal depth, top
            if event == "call":
                depth += 1
                top = max(top, depth)
            elif event == "return":
                depth -= 1

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, cli.RECURSION_LIMIT))
        sys.setprofile(profile)
        try:
            parse(f"p : Prop\np = {wrap(levels)}")
        finally:
            sys.setprofile(None)
            sys.setrecursionlimit(limit)
        return top

    return (deepest(200) - deepest(100)) / 100


def test_parser_frames_per_nesting_level_are_bounded():
    # cli.RECURSION_LIMIT leaves room for the passes after the parser only
    # if the parser stacks a few frames per level.
    parens = parser_frames_per_level(lambda n: "(" * n + "x" + ")" * n)
    ifs = parser_frames_per_level(lambda n: "(if c then a else " * n + "x" + ")" * n)
    assert parens <= 4
    assert ifs <= 8


def test_check_unknown_property_filter(workspace):
    run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--proof-file",
            "controller-spec.vclp",
        ]
    )
    assert run(["check", "--proof-file", "controller-spec.vclp", "--property", "nope"]) == 1


def test_verify_unknown_property_filter(workspace):
    code = run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--property",
            "absent",
        ]
    )
    assert code == 1


def test_emit_normalised_prints_surface_syntax(workspace, capsys):
    code = run(
        [
            "compile",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--emit",
            "normalised",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "safe : Prop" in out
    assert "forall (x_0 : Rat)" in out
    assert "controller [x_0, x_1] ! 0" in out


def test_emit_queries_prints_constraints_and_metanetwork(workspace, capsys):
    code = run(
        [
            "compile",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--emit",
            "queries",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "property safe: 2 queries" in out
    assert "y0 +2x0 -1x1 < -1.25" in out
    assert "# application 1: controller x0..x1 -> y0..y0" in out


PICK_SPEC = """\
network f : Rat -> Rat

h : Rat -> Rat -> Rat
h a x = a * x

pick : Bool -> Rat -> Rat
pick c = if c then h 1 else h 0

p : Prop
p = forall x . pick (x <= 1) (f x) >= 0
"""

IDENTITY_VNET = "vnet 1\ninput 1\naffine 2 1\n1\n-1\n0 0\nrelu\naffine 1 2\n1 -1\n0\n"


@pytest.mark.parametrize(
    "emit, expected",
    [
        ("normalised", "(if x <= 1 then 1 * f [x] ! 0 else 0 * f [x] ! 0) >= 0"),
        ("queries", "property p: 1 queries\nquery 1:\n  x0 <= 1\n  y0 < 0\n"),
    ],
)
def test_applied_function_typed_if_with_a_stuck_condition(tmp_path, capsys, emit, expected):
    # The argument is taken into both branches of the `if` over functions.
    (tmp_path / "pick.vcl").write_text(PICK_SPEC)
    (tmp_path / "id.vnet").write_text(IDENTITY_VNET)
    spec = ["--spec", str(tmp_path / "pick.vcl"), "--network", f"f:{tmp_path / 'id.vnet'}"]
    assert run(["compile", *spec, "--emit", emit]) == 0
    assert expected in capsys.readouterr().out


def test_verify_emit_only_writes_queries_and_not_checked(workspace):
    code = run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--solver",
            "emit-only",
            "--output",
            "emitted",
            "--proof-file",
            "nc.vclp",
        ]
    )
    assert code == 0
    assert (workspace / "emitted/safe/query1.txt").exists()
    cache = read_proof_file(workspace / "nc.vclp")
    assert cache.properties[0].status.kind == "NotChecked"
    # A NotChecked cache makes check exit 3.
    assert run(["check", "--proof-file", "nc.vclp"]) == 3


def test_json_format_summary(workspace, capsys):
    run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--proof-file",
            "controller-spec.vclp",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["properties"][0]["name"] == "safe"
    assert payload["properties"][0]["status"] == "Verified"
    assert payload["properties"][0]["queries"] == 2


def test_check_module_hash_flow(workspace, monkeypatch):
    run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--proof-file",
            "controller-spec.vclp",
        ]
    )
    run(
        [
            "compile",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--target",
            "agda",
            "--output",
            "out",
            "--proof-file",
            "controller-spec.vclp",
        ]
    )
    module = workspace / "out/ControllerSpec.agda"
    reads = []
    monkeypatch.setattr(
        proofcache, "read_proof_file", lambda path: reads.append(path) or read_proof_file(path)
    )
    code = run(
        ["check", "--proof-file", "controller-spec.vclp", "--module", str(module)]
    )
    assert code == 0
    assert reads == ["controller-spec.vclp"]  # the digests and the module hash share one read
    module.write_text(module.read_text().replace("SafeOutput x", "SafeInput x"))
    code = run(
        ["check", "--proof-file", "controller-spec.vclp", "--module", str(module)]
    )
    assert code == 4


def test_verify_then_check_statuses_agree(workspace, capsys):
    run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller-zero.vnet",
            "--proof-file",
            "zero.vclp",
        ]
    )
    capsys.readouterr()
    code = run(["check", "--proof-file", "zero.vclp"])
    assert code == 3
    assert "safe: Falsified" in capsys.readouterr().out


def test_duplicate_network_binding_rejected(workspace, capsys):
    code = run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--network",
            "controller:controller-zero.vnet",
        ]
    )
    assert code == 1
    assert "bound more than once" in capsys.readouterr().err


def test_repeated_options_do_not_carry_over_between_calls(workspace, capsys):
    # One parser serves every call in a process.
    assert cli._parser() is cli._parser()
    verify = ["verify", "--spec", "controller-spec.vcl", "--proof-file", "p.vclp"]
    assert run(verify + ["--network", "controller:controller.vnet", "--property", "absent"]) == 1
    assert "UnknownProperty" in capsys.readouterr().err
    # A carried-over --property would name "absent" again, and a carried-over
    # --network would bind the controller twice.
    assert run(verify + ["--network", "controller:controller-zero.vnet"]) == 3
    captured = capsys.readouterr()
    assert "safe: Falsified" in captured.out
    assert captured.err == ""
    assert run(verify + ["--network", "controller:controller.vnet", "--property", "safe"]) == 0
    assert capsys.readouterr().out == "safe: Verified\n"


def test_a_usage_error_leaves_the_next_call_working(workspace, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--spec", "controller-spec.vcl", "--no-such-option"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
    code = run(["verify", "--spec", "controller-spec.vcl", "--network",
                "controller:controller.vnet", "--proof-file", "p.vclp"])  # fmt: skip
    assert code == 0
    assert capsys.readouterr().out == "safe: Verified\n"


def test_compile_takes_no_format_option(workspace, capsys):
    # Only verify and check print a summary that --format could shape.
    with pytest.raises(SystemExit) as exc:
        run(["compile", "--spec", "controller-spec.vcl", "--network",
             "controller:controller.vnet", "--format", "json"])  # fmt: skip
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_check_with_empty_property_list_warns_and_exits_zero(
    workspace, capsys, controller_net
):
    from vspec.networks import hash_file
    from vspec.proofcache import ProofCacheFile, write_proof_file

    spec = workspace / "controller-spec.vcl"
    cache = ProofCacheFile(
        spec_path=str(spec),
        spec_digest=hash_file(spec),
        networks=[],
        properties=[],
    )
    write_proof_file(cache, workspace / "empty.vclp")
    code = run(["check", "--proof-file", "empty.vclp"])
    assert code == 0
    assert "no properties" in capsys.readouterr().err


def test_phase_budget_exceeded_has_guidance(workspace, capsys):
    code = run(
        [
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--phase-budget",
            "1",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "PhaseBudgetExceeded" in err
    assert "--phase-budget" in err


def test_phase_budget_exceeded_names_the_spec(workspace, capsys):
    argv = ["verify", "--spec", "controller-spec.vcl", "--network", "controller:controller.vnet",
            "--proof-file", "p.vclp", "--phase-budget", "0"]  # fmt: skip
    assert run(argv) == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first == (
        "controller-spec.vcl: error: 4 unfixed ReLU nodes exceed the phase budget of 0 "
        "[PhaseBudgetExceeded]"
    )
    assert not (workspace / "p.vclp").exists()


# Each property's queries, in plan order, over f(x) = -2 x0 + x1: the box
# [-1, 1]^2 leaves all four ReLUs free, the others fix them all.
#   nonNegative: UNSAT, SAT (the deciding one), 4 free ReLUs;
#   wideFirst:   4 free ReLUs, SAT;
#   reachesZero: UNSAT, SAT only at (1, 2), SAT elsewhere.
ORDER_SPEC = """\
network controller : Tensor Rat [2] -> Rat

box : Rat -> Rat -> Rat -> Rat -> Tensor Rat [2] -> Prop
box a b c d x = a <= x ! 0 <= b and c <= x ! 1 <= d

nonNegative : Prop
nonNegative = forall x . box (-2) (-1) 1 2 x or box 1 2 1 2 x or box (-1) 1 (-1) 1 x => controller x >= 0

wideFirst : Prop
wideFirst = forall x . box (-1) 1 (-1) 1 x or box 1 2 1 2 x => controller x >= 0

reachesZero : Prop
reachesZero = exists x . (box 1 2 (-2) (-1) x or box 1 2 1 2 x or box (-2) (-1) 1 2 x) and controller x >= 0
"""


def verify_order_spec(workspace, monkeypatch, prop, *extra):
    """Exit code of ``verify`` on one property of ``ORDER_SPEC``, and the
    number of queries it solved."""
    (workspace / "order.vcl").write_text(ORDER_SPEC)
    calls = []
    check_query = cli.check_query

    def counting(*args, **kwargs):
        calls.append(args[0])
        return check_query(*args, **kwargs)

    monkeypatch.setattr(cli, "check_query", counting)
    code = run(["verify", "--spec", "order.vcl", "--network", "controller:controller.vnet",
                "--proof-file", "p.vclp", "--property", prop, *extra])  # fmt: skip
    return code, len(calls)


def test_a_property_stops_at_its_deciding_sat(workspace, monkeypatch, capsys):
    assert verify_order_spec(workspace, monkeypatch, "nonNegative") == (3, 2)
    assert capsys.readouterr().out == (
        "nonNegative: Falsified\n  counterexample: x0 = 1/1, x1 = 1/1, y0 = -1/1\n"
    )
    # The proof cache still counts every query of the plan.
    assert read_proof_file(workspace / "p.vclp").properties[0].query_count == 3


def test_an_existential_property_is_verified_by_its_first_sat_query(
    workspace, monkeypatch, capsys
):
    code = verify_order_spec(workspace, monkeypatch, "reachesZero", "--format", "json")
    assert code == (0, 2)
    [summary] = json.loads(capsys.readouterr().out)["properties"]
    assert summary["status"] == "Verified"
    assert summary["witness"] == {"x0": "1/1", "x1": "2/1", "y0": "0/1"}


def test_a_query_over_the_phase_budget_after_the_deciding_sat_is_not_run(
    workspace, monkeypatch, capsys
):
    code = verify_order_spec(workspace, monkeypatch, "nonNegative", "--phase-budget", "3")
    assert code == (3, 2)
    assert "nonNegative: Falsified" in capsys.readouterr().out


def test_a_query_over_the_phase_budget_before_the_deciding_sat_is_an_error(
    workspace, monkeypatch, capsys
):
    code = verify_order_spec(workspace, monkeypatch, "wideFirst", "--phase-budget", "3")
    assert code == (1, 1)
    assert capsys.readouterr().err.splitlines()[0] == (
        "order.vcl: error: 4 unfixed ReLU nodes exceed the phase budget of 3 "
        "[PhaseBudgetExceeded]"
    )
    assert not (workspace / "p.vclp").exists()


def test_negative_phase_budget_is_refused(workspace, capsys):
    argv = ["verify", "--spec", "controller-spec.vcl", "--network", "controller:controller.vnet",
            "--proof-file", "p.vclp", "--phase-budget", "-1"]  # fmt: skip
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        "controller-spec.vcl: error: --phase-budget must be at least 0, got -1 "
        "[NegativePhaseBudget]\n"
    )
    assert not (workspace / "p.vclp").exists()


def test_console_entry_point_runs(workspace):
    import subprocess
    import sys

    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "vspec",
            "verify",
            "--spec",
            "controller-spec.vcl",
            "--network",
            "controller:controller.vnet",
            "--proof-file",
            "cli.vclp",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "safe: Verified" in result.stdout


_F = "network f : Rat -> Rat\n\np : Prop\n"
_SPEC_SHA = "sha256:" + hashlib.sha256(b"p : Prop\np = 1 <= 2\n").hexdigest()
_VCLP = f"vclp 1\nspec s.vcl {_SPEC_SHA}\n"
_WITNESSED = _VCLP + "property p Falsified queries=1 verifier=builtin time=t\n"
_COMPILE = ["compile", "--spec", "s.vcl", "--network", "f:one.vnet", "--emit", "queries"]
_CHECK = ["check", "--proof-file", "p.vclp"]

# (files written, command line, exit code, offending file, diagnostic code)
_BAD_INPUTS = {
    "unresolvable": ({"s.vcl": _F + "p = exists v . f (v + 2) <= 0"}, _COMPILE, 1, "s.vcl",
                     "UnresolvableUserVariable"),
    "mixed": ({"s.vcl": _F + "p = forall x . exists y . f x <= y"}, _COMPILE, 1, "s.vcl",
              "MixedQuantifiers"),
    "non-linear": ({"s.vcl": _F + "p = forall x . x * x <= f x"}, _COMPILE, 1, "s.vcl",
                   "NonLinearAtom"),
    "division": ({"s.vcl": _F + "p = forall x . f x <= 1 / 0"}, _COMPILE, 1, "s.vcl",
                 "DivisionByZero"),
    "index": ({"s.vcl": _F + "p = forall x . f x <= [1, 2] ! 3"}, _COMPILE, 1, "s.vcl",
              "IndexOutOfBounds"),
    "network-value": ({"s.vcl": _F + "p = forall x . (if x >= 0 then f else f) x <= 1"},
                      _COMPILE, 1, "s.vcl", "NetworkUsedAsValue"),
    "unbound-network": ({"s.vcl": _F + "p = forall x . f x <= 1"}, _COMPILE[:3], 1, "s.vcl",
                        "MissingNetworkFile"),
    "superscript": ({"s.vcl": "p : Prop\np = 1 <= ²\n"}, _COMPILE, 1, "s.vcl", "LexError"),
    "arabic-digit": ({"s.vcl": "p : Prop\np = ١ <= 1\n"}, _COMPILE, 1, "s.vcl", "LexError"),
    "spec-not-utf8": ({"s.vcl": b"p : Prop\np = 1 <= 2 -- \xff\n"}, _COMPILE, 1, "s.vcl",
                      "LexError"),
    "proof-not-utf8": ({"p.vclp": b"vclp 1\n\xff\n"}, _CHECK, 2, "p.vclp",
                       "MalformedProofFile"),
    "module-not-utf8": (
        {"p.vclp": _VCLP + "itp-module sha256:00\n", "m.agda": b"module M where\n\xff\n"},
        _CHECK + ["--module", "m.agda"], 4, "m.agda", "StaleCache",
    ),
    "witness-no-name": ({"p.vclp": _WITNESSED + "witness p =1\n"}, _CHECK, 2, "p.vclp",
                        "MalformedProofFile"),
    "witness-zero-denominator": ({"p.vclp": _WITNESSED + "witness p x0=1/0\n"}, _CHECK, 2,
                                 "p.vclp", "MalformedProofFile"),
}  # fmt: skip


@pytest.mark.parametrize("row", sorted(_BAD_INPUTS))
def test_bad_inputs_give_a_coded_diagnostic_not_a_traceback(tmp_path, row):
    import subprocess
    import sys

    files, argv, exit_code, offender, code = _BAD_INPUTS[row]
    (tmp_path / "one.vnet").write_text("vnet 1\ninput 1\naffine 1 1\n1\n0\n")
    (tmp_path / "s.vcl").write_text("p : Prop\np = 1 <= 2\n")
    for name, content in files.items():
        data = content if isinstance(content, bytes) else content.encode("utf-8")
        (tmp_path / name).write_bytes(data)
    result = subprocess.run(
        [sys.executable, "-m", "vspec", *argv], cwd=tmp_path, capture_output=True, text=True
    )
    assert result.returncode == exit_code, result.stderr
    assert result.stderr.startswith(f"{offender}:"), result.stderr
    assert result.stderr.rstrip().endswith(f"[{code}]"), result.stderr
    assert "Traceback" not in result.stderr
