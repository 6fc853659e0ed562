"""Seeded inputs for the four workloads, each op with its reference check.

``build`` writes a workload's input files into a directory and returns the
ops to run there.  An op is one ``vspec`` command line, the exit code it
must end with, and a check that compares its output with answers computed
here by ``oracles`` (never by vspec).  A check raises ``Mismatch``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import onnxw
from oracles import (
    exact_max_over_box,
    f32_bits,
    f32_value,
    read_vclp,
    relu_net_value,
    render_number,
    sha256_file,
    spec_rational,
)

WORKLOADS = ("prove", "falsify", "many-queries", "emit")

HEADER = "type InputVector = Tensor Rat [2]\n\nnetwork net : InputVector -> Rat\n\n"
BOX = "-1 <= x ! 0 <= 1 and -1 <= x ! 1 <= 1"
BOX_LINES = ["x0 >= -1", "x0 <= 1", "x1 >= -1", "x1 <= 1"]
ONE, ZERO = Fraction(1), Fraction(0)


class Mismatch(Exception):
    """An op's output disagrees with the reference."""


@dataclass
class Op:
    label: str
    argv: list[str]
    expect_code: int
    check: Callable[[str], None]  # called with the op's stdout
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    # One pass over the workload: blocks of distinct ops, each block the
    # same mix of instance sizes.  A traced run repeats the first block.
    blocks: list[list[Op]]
    warmup: Op
    # Layer spans that must fire at least once in a traced block.
    spans: tuple[str, ...]


FRONT_END = ("cli", "lexer", "surface", "typecheck", "networks", "normalise", "queries")
SOLVE_SPANS = FRONT_END + ("verifier.engine", "verifier.lp", "proofcache.write")
EMIT_SPANS = FRONT_END + ("marabou", "agda", "proofcache.write", "proofcache.check")

# Blocks per pass.  A run measures whole blocks until its time is up and
# starts the pass over if it runs out; a pass holds about what a 45-s run
# uses on a 2-vCPU Xeon VM, where an emit block takes 10-15 s.
BLOCKS = {"prove": 100, "falsify": 200, "many-queries": 16, "emit": 6}


def build(name: str, seed: int, root: Path, tiny: bool = False) -> Workload:
    """Write the inputs of workload ``name`` under ``root`` and list its ops."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    count = 2 if tiny else BLOCKS[name]
    if name == "emit":
        _tiny_affine(rng, root)
        warm = _emit_ops(root, "warmup", *_chain_spec(rng, 10))[0]
        return Workload(name, [_emit_block(rng, root, b, tiny) for b in range(count)],
                        warm, EMIT_SPANS)  # fmt: skip
    if name == "many-queries":
        # (disjunctions, zero net): each op gives 2^(k+1) queries.
        shape = ((1, False), (2, True)) if tiny else (
            (3, False), (5, True), (4, False), (6, True), (3, False), (4, True)
        )  # fmt: skip
        warm = _controller_op(rng, root, "warmup", 1, zero=True)
        blocks = [
            [_controller_op(rng, root, f"{b}n{i}", k, zero) for i, (k, zero) in enumerate(shape)]
            for b in range(count)
        ]
        return Workload(name, blocks, warm, SOLVE_SPANS)
    falsify = name == "falsify"
    # (hidden units, float32): 4-unit nets only, 16 LPs per prove op.  The
    # cost of an op varies by a fifth between nets of one size (a third
    # at 5 units, which cost three times as much), so a mix of sizes made
    # a run's sum depend on the seed; a 45-s run holds over a hundred.
    shape = ((2, False), (3, True)) if tiny else ((4, False), (4, True))
    warm = _bound_op(rng, root, "warmup", 2, False, falsify)
    blocks = [
        [
            _bound_op(rng, root, f"{b}n{i}", k, f32, falsify)
            for i, (k, f32) in enumerate(shape)
        ]
        for b in range(count)
    ]
    return Workload(name, blocks, warm, SOLVE_SPANS)


def _emit_block(rng, root: Path, b: int, tiny: bool) -> list[Op]:
    # Counts chosen so that the latencies of a run fall in groups of like
    # cost and the median and the tail each sit inside one group, however
    # many blocks the host's speed lets a run finish (3-6 in 45 s on a
    # 2-vCPU Xeon VM).  Per block: 10 checks, 2 DNF ops, 6 ops on
    # 100-conjunct chains (the median), 2 on 200 properties, 8 or 10 on
    # 200-conjunct chains (the tail) and, every other block, 2 on a
    # 300-conjunct chain.  With two of those per block, 6 blocks would put
    # the tail, which has ten samples beyond it, among them.
    ops: list[Op] = []
    longest = 300 if b % 2 == 0 else 200
    sizes = (5, 10) if tiny else (100, 200, 100, 200, longest, 200, 100, 200)
    for j, n in enumerate(sizes):
        ops += _emit_ops(root, f"b{b}n{j}chain{n}", *_chain_spec(rng, n))
    ops += _emit_ops(root, f"b{b}props", *_props_spec(rng, 4 if tiny else 200))
    ops += _emit_ops(root, f"b{b}dnf", *_dnf_spec(rng, 2 if tiny else 6))
    # Deeper than the front end handles today: kept so that the failure
    # shows in the results until it is fixed.
    ops += _emit_ops(root, f"b{b}chain600", *_chain_spec(rng, 600))[:1]
    return ops


# ---------------------------------------------------------------------------
# prove / falsify: one-hidden-layer ReLU nets over the box [-1, 1]^2
# ---------------------------------------------------------------------------


def _relu_net(rng: random.Random, hidden: int, float32: bool):
    """A net whose every ReLU line crosses the box, so none is fixed by
    interval bounds.  Returns the exact net and its file bytes."""
    if float32:
        w1, b1, w2 = [], [], []
        for _ in range(hidden):
            px, py = rng.uniform(-0.75, 0.75), rng.uniform(-0.75, 0.75)
            angle, scale = rng.uniform(0, 2 * math.pi), rng.uniform(0.5, 2.0)
            a, b = scale * math.cos(angle), scale * math.sin(angle)
            w1.append([f32_bits(a), f32_bits(b)])
            b1.append(f32_bits(-(a * px + b * py)))
            w2.append(f32_bits(rng.choice((-1, 1)) * rng.uniform(0.25, 2.0)))
        b2 = f32_bits(rng.uniform(-0.5, 0.5))
        net = (
            [(f32_value(a), f32_value(b)) for a, b in w1],
            [f32_value(v) for v in b1],
            [f32_value(v) for v in w2],
            f32_value(b2),
        )
        return net, onnxw.one_hidden_layer_model(w1, b1, w2, b2), ".onnx"
    rows, bias, out = [], [], []
    for _ in range(hidden):
        px, py = Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 4)
        a = b = ZERO
        while a == 0 and b == 0:
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        rows.append((a, b))
        bias.append(-(a * px + b * py))
        out.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3)))
    net = (rows, bias, out, Fraction(rng.randint(-2, 2), 2))
    r = _ratio
    text = f"vnet 1\ninput 2\naffine {hidden} 2\n"
    text += "".join(f"{r(a)} {r(b)}\n" for a, b in rows)
    text += " ".join(r(v) for v in bias) + "\nrelu\n"
    text += f"affine 1 {hidden}\n" + " ".join(r(v) for v in out) + f"\n{r(net[3])}\n"
    return net, text.encode(), ".vnet"


def _ratio(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _bound_op(rng, root: Path, tag: str, hidden: int, float32: bool, falsify: bool) -> Op:
    net, data, suffix = _relu_net(rng, hidden, float32)
    top, _ = exact_max_over_box(net, -ONE, ONE)
    threshold = top - Fraction(1, 1000) if falsify else top
    stem = f"bound{tag}"
    (root / f"{stem}{suffix}").write_bytes(data)
    spec = HEADER + "bounded : Prop\n"
    spec += f"bounded = forall (x : InputVector) . {BOX} => net x <= {spec_rational(threshold)}\n"
    (root / f"{stem}.vcl").write_text(spec)
    argv = [
        "verify", "--spec", f"{stem}.vcl", "--network", f"net:{stem}{suffix}",
        "--proof-file", f"{stem}.vclp", "--format", "json",
    ]  # fmt: skip

    def check(stdout: str) -> None:
        status, witness = _single_status(stdout, "bounded", queries=1)
        if not falsify:
            _expect(status == "Verified" and not witness, f"{status} {witness}, want Verified")
        else:
            _expect(status == "Falsified", f"{status}, want Falsified")
            _expect(set(witness) == {"x0", "x1", "y0"}, f"witness over {sorted(witness)}")
            x = (witness["x0"], witness["x1"])
            _expect(all(-1 <= v <= 1 for v in x), f"witness input {x} outside the box")
            _expect(witness["y0"] == relu_net_value(net, x), "witness output is not f(x)")
            _expect(witness["y0"] > threshold, "witness output does not exceed the bound")
        _check_cache(root / f"{stem}.vclp", stem, f"net:{stem}{suffix}",
                     {"bounded": (status, 1)}, witness)  # fmt: skip

    props = {"free_relus": hidden, "float32": float32, "queries": 1}
    return Op(f"{stem}", argv, 3 if falsify else 0, check, props)


# ---------------------------------------------------------------------------
# many-queries: the controller with a hypothesis made of k disjunctions
# ---------------------------------------------------------------------------

CONTROLLER = (
    "vnet 1\n# f(x, y) = -2x + y, through relu pairs\ninput 2\naffine 4 2\n"
    "1 0\n-1 0\n0 1\n0 -1\n0 0 0 0\nrelu\naffine 1 4\n-2 2 1 -1\n0\n"
)
CONTROLLER_ZERO = "vnet 1\n# ignores its inputs\ninput 2\naffine 1 2\n0 0\n0\n"
CONTROLLER_NET = (
    [(ONE, ZERO), (-ONE, ZERO), (ZERO, ONE), (ZERO, -ONE)],
    [ZERO] * 4,
    [Fraction(-2), Fraction(2), ONE, -ONE],
    ZERO,
)
ZERO_NET = ([], [], [], ZERO)
LIMIT, SAFE = Fraction(13, 4), Fraction(5, 4)


def _controller_op(rng, root: Path, tag: str, k: int, zero: bool) -> Op:
    # Each disjunction is (x ! 0 REL c or x ! 1 REL c'): an atom is
    # (variable, "<=" or ">=", constant).  Every atom keeps 0 outside its
    # variable's range, so interval bounds fix that variable's ReLUs and
    # all but two of the 2^k choices of atoms need a single LP.
    disjunctions = []
    for _ in range(k):
        pair = []
        for var in (0, 1):
            rel = rng.choice(("<=", ">="))
            c = Fraction(rng.randint(1, 12), 4)
            pair.append((var, rel, -c if rel == "<=" else c))
        disjunctions.append(tuple(pair))
    hyp = " and ".join(
        f"(x ! {a[0]} {a[1]} {spec_rational(a[2])} or x ! {b[0]} {b[1]} {spec_rational(b[2])})"
        for a, b in disjunctions
    )
    stem = f"ctl{tag}"
    spec = HEADER.replace("net :", "controller :") + "safe : Prop\n"
    spec += (
        "safe = forall (x : InputVector) . -3.25 <= x ! 0 <= 3.25 and "
        f"-3.25 <= x ! 1 <= 3.25 and {hyp} => "
        "-1.25 <= controller x + 2 * x ! 0 - x ! 1 <= 1.25\n"
    )
    (root / f"{stem}.vcl").write_text(spec)
    net_file = "controller-zero.vnet" if zero else "controller.vnet"
    (root / net_file).write_text(CONTROLLER_ZERO if zero else CONTROLLER)
    net = ZERO_NET if zero else CONTROLLER_NET
    queries = 2 ** (k + 1)
    falsifiable = _controller_falsifiable(net, disjunctions)

    def check(stdout: str) -> None:
        status, witness = _single_status(stdout, "safe", queries=queries)
        want = "Falsified" if falsifiable else "Verified"
        _expect(status == want, f"{status}, want {want}")
        if falsifiable:
            _expect(set(witness) == {"x0", "x1", "y0"}, f"witness over {sorted(witness)}")
            x = (witness["x0"], witness["x1"])
            _expect(all(-LIMIT <= v <= LIMIT for v in x), f"witness {x} outside the box")
            _expect(
                all(any(_holds(atom, x) for atom in d) for d in disjunctions),
                f"witness {x} violates the hypothesis",
            )
            _expect(witness["y0"] == relu_net_value(net, x), "witness output is not f(x)")
            _expect(abs(_margin(net, x)) > SAFE, f"witness {x} satisfies the conclusion")
        _check_cache(root / f"{stem}.vclp", stem, f"controller:{net_file}",
                     {"safe": (status, queries)}, witness)  # fmt: skip

    argv = [
        "verify", "--spec", f"{stem}.vcl", "--network", f"controller:{net_file}",
        "--proof-file", f"{stem}.vclp", "--format", "json",
    ]  # fmt: skip
    props = {"queries": queries, "disjunctions": k, "falsified": falsifiable}
    return Op(stem, argv, 3 if falsifiable else 0, check, props)


def _margin(net, x) -> Fraction:
    """The controller's conclusion holds iff this lies in [-5/4, 5/4]."""
    return relu_net_value(net, x) + 2 * x[0] - x[1]


def _holds(atom, x) -> bool:
    var, rel, c = atom
    return x[var] <= c if rel == "<=" else x[var] >= c


def _controller_falsifiable(net, disjunctions) -> bool:
    """Is there an x in the hypothesis with |f(x) + 2 x0 - x1| > 5/4?

    Each choice of one atom per disjunction is a box; the margin is affine
    on each quadrant, so its extremes over a box lie at the corners of the
    box cut by the axes.
    """
    for choice in itertools.product(*disjunctions):
        lo, hi = [-LIMIT, -LIMIT], [LIMIT, LIMIT]
        for var, rel, c in choice:
            if rel == "<=":
                hi[var] = min(hi[var], c)
            else:
                lo[var] = max(lo[var], c)
        if lo[0] > hi[0] or lo[1] > hi[1]:
            continue
        cuts = [
            sorted({lo[v], hi[v]} | ({ZERO} if lo[v] < 0 < hi[v] else set())) for v in (0, 1)
        ]
        if any(abs(_margin(net, x)) > SAFE for x in itertools.product(*cuts)):
            return True
    return False


# ---------------------------------------------------------------------------
# emit: large specifications through the front end and the writers
# ---------------------------------------------------------------------------


def _tiny_affine(rng, root: Path) -> None:
    weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)]
    text = "vnet 1\ninput 2\naffine 1 2\n"
    text += f"{_ratio(weights[0])} {_ratio(weights[1])}\n{_ratio(weights[2])}\n"
    (root / "tiny.vnet").write_text(text)


def _atom(rng) -> tuple[str, str]:
    """A random bound on one input: its spec text and its query line."""
    var, rel = rng.randrange(2), rng.choice(("<=", ">="))
    c = Fraction(rng.randint(-999, 999), rng.choice((1, 2, 3, 4, 7, 8, 10)))
    return f"x ! {var} {rel} {spec_rational(c)}", f"x{var} {rel} {render_number(c)}"


def _threshold(rng) -> Fraction:
    return Fraction(rng.randint(-50, 50), rng.choice((1, 3, 4)))


def _chain_spec(rng, n: int):
    """One property whose hypothesis is a conjunction of n atoms."""
    atoms = [_atom(rng) for _ in range(n)]
    t = _threshold(rng)
    spec = HEADER + "chain : Prop\nchain = forall (x : InputVector) . "
    spec += " and ".join(a for a, _ in atoms) + f" => net x <= {spec_rational(t)}\n"
    lines = [q for _, q in atoms] + [f"y0 > {render_number(t)}"]
    return spec, {"chain": [sorted(lines)]}, n


def _props_spec(rng, count: int):
    """Many independent properties over the box."""
    spec, expected = HEADER, {}
    for j in range(count):
        t = _threshold(rng)
        spec += f"p{j} : Prop\np{j} = forall (x : InputVector) . {BOX} => net x <= "
        spec += f"{spec_rational(t)}\n\n"
        expected[f"p{j}"] = [sorted(BOX_LINES + [f"y0 > {render_number(t)}"])]
    return spec, expected, 5


def _dnf_spec(rng, k: int):
    """A hypothesis made of k disjunctions and a two-sided conclusion."""
    pairs = [(_atom(rng), _atom(rng)) for _ in range(k)]
    lo = _threshold(rng)
    hi = lo + Fraction(rng.randint(1, 40), 2)
    hyp = " and ".join(f"({a[0]} or {b[0]})" for a, b in pairs)
    spec = HEADER + "dnf : Prop\ndnf = forall (x : InputVector) . "
    spec += f"{BOX} and {hyp} => {spec_rational(lo)} <= net x <= {spec_rational(hi)}\n"
    queries = [
        sorted(BOX_LINES + [atom[1] for atom in choice] + [last])
        for choice in itertools.product(*pairs)
        for last in (f"y0 < {render_number(lo)}", f"y0 > {render_number(hi)}")
    ]
    return spec, {"dnf": sorted(queries)}, 4 + k + 1


def _emit_ops(root: Path, stem: str, spec: str, expected: dict, conjuncts: int):
    """verify --solver emit-only, compile --target agda, then check."""
    (root / f"{stem}.vcl").write_text(spec)
    common = ["--spec", f"{stem}.vcl", "--network", "net:tiny.vnet"]
    cache, out_dir, agda_dir = f"{stem}.vclp", f"{stem}-queries", f"{stem}-agda"
    counts = {name: len(qs) for name, qs in expected.items()}
    not_checked = {name: ("NotChecked", n) for name, n in counts.items()}
    queries = sum(counts.values())
    module = f"{agda_dir}/{stem[0].upper()}{stem[1:]}.agda"

    def check_report(stdout: str) -> None:
        report = _statuses(stdout)
        want = {name: ("NotChecked", n, {}) for name, n in counts.items()}
        _expect(report == want, f"reported {report}, want {want}")

    def check_verify(stdout: str) -> None:
        check_report(stdout)
        for name, want in expected.items():
            prop_dir = root / out_dir / name
            files = sorted(prop_dir.glob("query*.txt"))
            _expect(len(files) == len(want), f"{name}: {len(files)} query files, want {len(want)}")
            got = sorted(sorted(f.read_text().splitlines()) for f in files)
            _expect(got == want, f"{name}: emitted constraints differ from the reference")
            manifest = (prop_dir / "queries.manifest").read_text().split()
            _expect(manifest == ["net", "tiny.vnet", sha256_file(root / "tiny.vnet")],
                    f"{name}: manifest {manifest}")  # fmt: skip
        _check_cache(root / cache, stem, "net:tiny.vnet", not_checked, {})

    def check_compile(stdout: str) -> None:
        _expect(f"wrote {module}\n" in stdout, f"no module {module} in {stdout!r}")
        text = (root / module).read_text()
        _expect(re.search(r"^module \S+ where$", text, re.M) is not None, "no module header")
        for name in expected:
            _expect(f"\n  {name} : " in text, f"property {name} missing from the module")
        cached = read_vclp(root / cache)["itp"]
        _expect(cached == sha256_file(root / module), "proof cache holds another module hash")

    props = {"conjuncts": conjuncts, "queries": queries, "properties": len(expected)}
    return [
        Op(f"{stem}.verify", ["verify", *common, "--solver", "emit-only", "--output", out_dir,
                              "--proof-file", cache, "--format", "json"],
           0, check_verify, props),  # fmt: skip
        Op(f"{stem}.compile", ["compile", *common, "--target", "agda", "--output", agda_dir,
                               "--proof-file", cache],
           0, check_compile, props),  # fmt: skip
        Op(f"{stem}.check", ["check", "--proof-file", cache, "--module", module,
                             "--format", "json"],
           3, check_report, props),  # fmt: skip
    ]


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def _expect(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


def _statuses(stdout: str) -> dict:
    """name -> (status, queries, witness) from ``--format json`` output."""
    report = json.loads(stdout)
    return {
        p["name"]: (
            p["status"],
            p["queries"],
            {k: Fraction(v) for k, v in p["witness"].items()},
        )
        for p in report["properties"]
    }


def _single_status(stdout: str, name: str, queries: int):
    report = _statuses(stdout)
    _expect(list(report) == [name], f"reported properties {list(report)}")
    status, count, witness = report[name]
    _expect(count == queries, f"{count} queries, want {queries}")
    return status, witness


def _check_cache(path: Path, stem: str, network: str, statuses, witness) -> None:
    """The proof cache names the right files and digests and the verdicts.

    ``network`` is the ``name:file`` binding the op passed to vspec.
    """
    cache = read_vclp(path)
    spec = f"{stem}.vcl"
    _expect(cache["spec"] == (spec, sha256_file(path.parent / spec)), "spec digest differs")
    name, net_file = network.split(":", 1)
    want = {name: (net_file, sha256_file(path.parent / net_file))}
    _expect(cache["networks"] == want, f"networks {cache['networks']}, want {want}")
    _expect(cache["properties"] == statuses, f"cached {cache['properties']}, want {statuses}")
    cached_witness = next(iter(cache["witness"].values()), {})
    _expect(cached_witness == witness, "cached witness differs from the reported one")
