"""Command-line surface binding every module.

Subcommands: gen, jlp, rip, dp (publish | cut | stream), attack, bench,
selftest.  All reports are JSON with a {version, seed, argv} envelope;
matrices travel as CSV ("rows,cols" header, row-major values).

Exit codes are a stable contract: 0 success, 1 usage error, 2 contract /
precondition / privacy error, 3 resource or IO error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import attacks, harness, privacy, rip, transforms
from .errors import ContractError, FastJlError, ResourceError
from .linalg import load_matrix_csv, save_matrix_csv
from .randomness import BitSource
from .reports import BenchReport, CutReport, emit_report
from .transforms import parse_kind


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _n_range(text: str) -> list[int]:
    """The doubling sizes lo, 2 lo, ... up to hi from "lo[:hi]", 1 <= lo <= hi."""
    lo_s, _, hi_s = text.partition(":")
    lo, hi = int(lo_s), int(hi_s or lo_s)
    if not 1 <= lo <= hi:
        raise ValueError(text)
    return [lo << k for k in range((hi // lo).bit_length())]


def _vertex_ids(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _add_common(p, seed=True, out=False):
    if seed:
        # argparse parses a string default like a given value, so a bad
        # FASTJL_SEED is a usage error when --seed is absent.
        p.add_argument("--seed", type=int, default=os.environ.get("FASTJL_SEED") or 0)
    if out:
        p.add_argument("--out", type=str, default=None)
    p.add_argument("--deterministic", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="fastjl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="build a transform, optionally realize it as CSV")
    g.add_argument("--kind", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--realize", type=str, default=None)
    g.add_argument("--allow-large-r", action="store_true")
    _add_common(g)

    j = sub.add_parser("jlp", help="empirical norm-distortion failure rate")
    j.add_argument("--kind", required=True)
    j.add_argument("--n", type=int, required=True)
    j.add_argument("--r", type=int, required=True)
    j.add_argument("--eps", type=float, required=True)
    j.add_argument("--family", default="random-unit", choices=harness.FAMILIES)
    j.add_argument("--trials", type=int, default=10000)
    _add_common(j, out=True)

    rp = sub.add_parser("rip", help="brute-force restricted isometry survey")
    rp.add_argument("--kind", required=True)
    rp.add_argument("--n", type=int, required=True)
    rp.add_argument("--r", type=int, required=True)
    rp.add_argument("--k", type=int, required=True)
    rp.add_argument("--seeds", type=int, default=20)
    _add_common(rp, out=True)

    d = sub.add_parser("dp", help="differentially private publication")
    dsub = d.add_subparsers(dest="dp_command", required=True)

    dpub = dsub.add_parser("publish")
    dpub.add_argument("--matrix", required=True)
    dpub.add_argument("--alpha", type=float, required=True)
    dpub.add_argument("--beta", type=float, required=True)
    dpub.add_argument("--r", type=int, required=True)
    dpub.add_argument("--mode", choices=("first", "second"), default="first")
    dpub.add_argument("--lift", action="store_true")
    dpub.add_argument("--kind", default="new-gaussian")
    dpub.add_argument("--out", required=True)
    _add_common(dpub)

    dcut = dsub.add_parser("cut")
    dcut.add_argument("--graph", required=True)
    dcut.add_argument(
        "--set", dest="vertex_set", required=True, type=_vertex_ids,
        help="comma-separated vertex ids",
    )
    dcut.add_argument("--vertices", type=int, required=True)
    dcut.add_argument("--alpha", type=float, required=True)
    dcut.add_argument("--beta", type=float, required=True)
    dcut.add_argument("--r", type=int, required=True)
    dcut.add_argument("--kind", default="dense-gaussian")
    _add_common(dcut, out=True)

    dstream = dsub.add_parser("stream")
    dstream.add_argument("--script", required=True)
    dstream.add_argument("--mode", choices=("mm", "lr"), default="mm")
    dstream.add_argument("--alpha", type=float, required=True)
    dstream.add_argument("--beta", type=float, required=True)
    dstream.add_argument("--r", type=int, required=True)
    dstream.add_argument("--kind", default="new-gaussian")
    dstream.add_argument("--query", default=None, help="CSV vector for lr queries")
    dstream.add_argument("--out", required=True)
    _add_common(dstream)

    a = sub.add_parser("attack", help="distinguishing attacks on rival transforms")
    a.add_argument("--target", required=True)
    a.add_argument("--n", type=int, default=64)
    a.add_argument("--w", type=float, default=10.0)
    a.add_argument("--r", type=int, default=16)
    a.add_argument("--trials", type=int, default=10000)
    a.add_argument("--control", default=None, help="gaussian mechanism for control arm")
    a.add_argument("--alpha", type=float, default=1.0)
    a.add_argument("--beta", type=float, default=0.1)
    _add_common(a, out=True)

    b = sub.add_parser("bench", help="apply-time scaling benchmark")
    b.add_argument("--kind", required=True)
    b.add_argument("--n-range", dest="sizes", type=_n_range, default="4096:65536")
    b.add_argument("--r", type=int, default=64)
    b.add_argument("--reps", type=int, default=30)
    b.add_argument("--warmups", type=int, default=5)
    _add_common(b, out=True)

    s = sub.add_parser("selftest", help="run the quick examples of every module")
    _add_common(s)
    return parser


def _emit(args, report) -> None:
    emit_report(
        report,
        getattr(args, "out", None) or None,
        seed=getattr(args, "seed", None),
        argv=sys.argv[1:],
        deterministic=args.deterministic,
    )


def _cmd_gen(args) -> int:
    kind = parse_kind(args.kind)
    src = BitSource(args.seed)
    t = transforms.build(kind, args.n, args.r, src, allow_large_r=args.allow_large_r)
    if args.realize:
        save_matrix_csv(args.realize, transforms.realize_dense(t))
    print(
        f"built {kind.describe()} n={t.n} r={t.r} scale={t.scale:.6g} "
        f"bits={src.bits_consumed} gaussians={src.gaussian_samples_consumed}"
    )
    return 0


def _cmd_jlp(args) -> int:
    report = harness.jlp_failure_rate(
        args.kind,
        args.n,
        args.r,
        args.eps,
        args.family,
        args.trials,
        args.seed,
    )
    _emit(args, report)
    return 0


def _cmd_rip(args) -> int:
    report = rip.rip_survey(args.kind, args.n, args.r, args.k, args.seeds, args.seed)
    _emit(args, report)
    return 0


def _cmd_dp(args) -> int:
    if args.dp_command == "publish":
        a = load_matrix_csv(args.matrix)
        params = privacy.DpParams(
            alpha=args.alpha, beta=args.beta, r=args.r, lift=args.lift
        )
        publish = (
            privacy.publish_first_moment
            if args.mode == "first"
            else privacy.publish_second_moment
        )
        sketch = publish(a, params, args.seed, kind=args.kind)
        save_matrix_csv(args.out, sketch.data)
        print(
            f"published {sketch.mode} sketch {sketch.data.shape} "
            f"w={params.resolved_w():.6g} delta_structural={sketch.delta_structural:.3g}"
        )
        return 0
    if args.dp_command == "cut":
        edges = load_graph_csv(args.graph)
        params = privacy.DpParams(alpha=args.alpha, beta=args.beta, r=args.r)
        cs = privacy.cut_sketch(edges, args.vertices, params, args.seed, kind=args.kind)
        report = CutReport(
            vertex_set=args.vertex_set,
            estimate=privacy.cut_query(cs, args.vertex_set),
            exact=privacy.exact_cut(edges, args.vertices, args.vertex_set),
            w=params.resolved_w(),
            seed=args.seed,
        )
        _emit(args, report)
        return 0
    if args.dp_command == "stream":
        return _cmd_dp_stream(args)
    raise UsageError(f"unknown dp subcommand {args.dp_command}")


def load_graph_csv(path):
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i, j, wt = line.split(",")
                rows.append((int(i), int(j), float(wt)))
            except ValueError as exc:
                raise ContractError(
                    f"graph line {lineno}: expected i,j,weight, got {line!r}"
                ) from exc
    return rows


def _parse_script_line(line: str, sided: bool, lineno: int):
    """(side, column index, column) from "[side,]index,values..."."""
    fields = line.split(",")
    side = fields.pop(0) if sided else None
    try:
        return side, int(fields[0]), np.array([float(v) for v in fields[1:]])
    except (IndexError, ValueError) as exc:
        layout = "side,index,values..." if sided else "index,values..."
        raise ContractError(
            f"script line {lineno}: expected {layout}, got {line!r}"
        ) from exc


def _cmd_dp_stream(args) -> int:
    if args.mode == "lr" and not args.query:
        raise UsageError("lr streaming needs --query pointing at a CSV vector")
    params = privacy.DpParams(alpha=args.alpha, beta=args.beta, r=args.r)
    with open(args.script) as fh:
        lines = [
            (no, ln.strip()) for no, ln in enumerate(fh, 1)
            if ln.strip() and not ln.startswith("#")
        ]
    parsed = [_parse_script_line(ln, args.mode == "mm", no) for no, ln in lines]
    if args.mode == "mm":
        m1 = max([0] + [idx + 1 for side, idx, _ in parsed if side == "A"])
        m2 = max([0] + [idx + 1 for side, idx, _ in parsed if side != "A"])
        sk = privacy.mm_sketch_init(params, m1, m2, args.seed, kind=args.kind)
        for side, idx, col in parsed:
            privacy.mm_sketch_update(sk, side, idx, col)
        save_matrix_csv(args.out, privacy.mm_query(sk))
        print(f"mm sketch query written to {args.out}")
        return 0
    m = max([0] + [idx + 1 for _, idx, _ in parsed])
    sk = privacy.lr_sketch_init(params, m, args.seed, kind=args.kind)
    for _, idx, col in parsed:
        privacy.lr_update(sk, idx, col)
    b = load_matrix_csv(args.query).ravel()
    x = privacy.lr_query(sk, b)
    save_matrix_csv(args.out, x[None, :])
    print(f"lr solution written to {args.out}")
    return 0


def _cmd_attack(args) -> int:
    kind = parse_kind(args.target)
    pair = attacks.pair_for(kind, args.n, args.w)
    if pair is None:
        raise UsageError(f"no attack defined against kind {kind.tag!r}")
    if args.control:
        params = privacy.DpParams(alpha=args.alpha, beta=args.beta, r=args.r)
        report = attacks.gaussian_control(
            pair, args.control, params, args.trials, args.seed, r=args.r
        )
    else:
        report = attacks.run_attack(pair, args.trials, args.seed, r=args.r)
    _emit(args, report)
    return 0


def _cmd_bench(args) -> int:
    kind = parse_kind(args.kind)
    medians = transforms.apply_median_ns(
        kind, args.sizes, args.r, args.seed, args.reps, args.warmups
    )
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    report = BenchReport(
        kind=kind.describe(),
        sizes=[(n, args.r) for n in args.sizes],
        median_ns=medians,
        doubling_ratios=ratios,
        reps=args.reps,
        warmups=args.warmups,
        seed=args.seed,
    )
    _emit(args, report)
    return 0


def _cmd_selftest(args) -> int:
    """Quick deterministic checks from every module's easy tier.

    A failed check raises ContractError naming it (exit code 2); the checks
    do not rely on assert, so they also run under python -O.
    """
    from .linalg import circular_convolve, fwht_normalized, least_squares
    from .linalg import spectral_extremes, symmetric_eigenvalues

    checks = 0

    def check(ok, name: str) -> None:
        nonlocal checks
        if not ok:
            raise ContractError(f"selftest check failed: {name}")
        checks += 1

    check(np.allclose(fwht_normalized(np.array([1.0])), [1.0]), "fwht of length 1")
    check(
        np.allclose(fwht_normalized(np.array([1.0, 0.0])), [1 / math.sqrt(2)] * 2),
        "fwht of length 2",
    )
    # 40 columns of length 4096 run through three column blocks.
    x = BitSource(args.seed).draw_gaussian(4096 * 40).reshape(4096, 40)
    check(
        np.abs(fwht_normalized(fwht_normalized(x)) - x).max() < 1e-12,
        "fwht involution over column blocks",
    )
    check(np.allclose(symmetric_eigenvalues(np.eye(3)), [1, 1, 1]), "eigenvalues of I")
    check(spectral_extremes(np.zeros((3, 3))) == (0.0, 0.0), "singular values of 0")
    b = np.array([0.0, 2.0])
    check(abs(least_squares(np.ones((2, 1)), b)[0] - 1.0) < 1e-12, "least-squares mean")
    delta = np.zeros(4)
    delta[0] = 1.0
    x = np.array([3.0, 1.0, 4.0, 1.0])
    check(np.allclose(circular_convolve(delta, x), x), "convolution with a delta")

    src = BitSource(args.seed)
    check(src.draw_rademacher(0).shape == (0,), "empty sign draw")
    check(src.draw_uniform_index(1) == 0, "uniform index from one")
    check(np.array_equal(BitSource(args.seed).sample_permutation(1), [0]), "permutation of one")

    t = transforms.build("new-rademacher", 16, 4, BitSource(args.seed), allow_large_r=True)
    check(transforms.apply(t, np.zeros(16)).shape == (4,), "sketch shape")
    check(np.allclose(transforms.apply(t, np.zeros(16)), 0.0), "sketch of zero")
    check(transforms.pad_to_pow2(np.ones(5)).shape == (8,), "power-of-two padding")

    vec = harness.make_family_vector("constant", 4, BitSource(args.seed))
    check(np.allclose(vec, 0.5), "constant family vector")
    check(harness.hw_bound(1e-12, 1.0, 1.0, 1.0, 1.0) > 1.999, "Hanson-Wright bound at 0")

    d, support = rip.rip_constant(np.eye(5), 2)
    check(d < 1e-12 and len(support) == 2, "RIP constant of I")

    p = privacy.DpParams(alpha=1.0, beta=0.1, r=4, lift=True, w=5.0)
    lo, _ = spectral_extremes(privacy.lift_matrix(np.zeros((2, 2)), p))
    check(abs(lo - 5.0) < 1e-9, "lifted singular-value floor")
    alpha, beta = privacy.compose_privacy(0, 0.5, 0.01, 0.02)
    check(alpha == 0.0 and beta == 0.02, "privacy composition")
    p = privacy.DpParams(alpha=1.0, beta=0.1, r=4, lift=True)
    a = BitSource(args.seed).draw_gaussian(3 * 2).reshape(3, 2)
    sk = privacy.mm_sketch_init(p, 2, 2, args.seed)
    for c in range(2):
        privacy.mm_sketch_update(sk, "A", c, a[:, c])
    batch = privacy.publish_first_moment(a.T, p, args.seed)
    check(np.array_equal(sk.y_a, batch.data), "stream sketch equals batch publication")

    pair = attacks.pair_bounded_orthonormal(16, 3.0)
    check(abs(pair.a[0, 0] - 3.0) < 1e-12 and pair.a[0, 1] == 1.0, "bounded-orthonormal pair")

    print(f"selftest passed ({checks} checks, seed {args.seed})")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "jlp": _cmd_jlp,
    "rip": _cmd_rip,
    "dp": _cmd_dp,
    "attack": _cmd_attack,
    "bench": _cmd_bench,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ResourceError, OSError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except FastJlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
