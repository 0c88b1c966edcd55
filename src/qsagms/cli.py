"""Command-line surface: build, validate, simulate, analyze.

Batch-oriented; every simulate run is fully determined by its flags plus
``--seed`` and prints the configuration digest it persists with.  Exit
codes: 0 success, 1 validation failure, 2 usage/parameter error, 3 I/O
error.  A failing command raises ``CommandError(message, exit code)``;
``main`` alone prints the message to stderr and returns the code.  The
``QSAGMS_LOG`` environment variable (error, info or debug) controls
logging verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .analysis import (
    alpha_star_approx,
    alpha_star_exact,
    delta_alpha,
    op_count,
    transfer,
    write_curve,
)
from .code import (
    CodeFormatError,
    GbSpec,
    OrthogonalityError,
    build_gb,
    check_decodable,
    compute_params,
    parse_code,
    save_code,
    tanner_graph,
)
from .decoder import VARIANTS, VN_MODES, DecoderConfig, GainParams
from .harness import SweepConfig, config_digest, run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

log = logging.getLogger("qsagms.cli")


class CommandError(Exception):
    """A failed command, raised as (message, exit code); ``main`` prints it."""


@contextmanager
def _exits(code: int, *errors, prefix: str = "error: "):
    """Re-raise ``errors`` from the block as CommandError(prefix + message, code)."""
    try:
        yield
    except errors as exc:
        raise CommandError(f"{prefix}{exc}", code) from None


def _setup_logging() -> None:
    name = os.environ.get("QSAGMS_LOG", "error").lower()
    level = _LOG_LEVELS.get(name)
    if level is None:
        print(f"warning: unknown QSAGMS_LOG level {name!r}", file=sys.stderr)
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_float_list(text: str, log_spaced: bool) -> tuple[float, ...]:
    """Comma list, or start:stop:count range (log-spaced for noise grids)."""
    import numpy as np

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"bad range {text!r}") from None
        if count < 1:
            raise ValueError("range count must be at least 1")
        if count == 1:
            return (start,)
        if log_spaced:
            if start <= 0 or stop <= 0:
                raise ValueError("log-spaced range needs positive endpoints")
            values = np.geomspace(start, stop, count)
        else:
            values = np.linspace(start, stop, count)
        return tuple(float(v) for v in values)
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated floats, got {text!r}") from None


def cmd_build_code(args) -> int:
    with _exits(EXIT_USAGE, ValueError):
        a, b = _parse_exponents(args.a), _parse_exponents(args.b)
        H = build_gb(GbSpec(ell=args.ell, a_exponents=a, b_exponents=b))
    with _exits(EXIT_IO, OSError):
        save_code(H, args.out)
    print(compute_params(H))
    return EXIT_OK


def _load_code(path, invalid: str):
    """The validated code in ``path`` and the bytes it was parsed from, read
    once; a file that cannot be read, or is invalid (message prefixed by
    ``invalid``), raises CommandError."""
    try:
        data = Path(path).read_bytes()
        return parse_code(data, validate=True), data
    except FileNotFoundError:
        raise CommandError(f"error: no such file: {path}", EXIT_IO) from None
    except (CodeFormatError, OrthogonalityError) as exc:
        raise CommandError(f"{invalid}{exc}", EXIT_VALIDATION) from None
    except OSError as exc:
        raise CommandError(f"error: {exc}", EXIT_IO) from None


def cmd_validate(args) -> int:
    print(compute_params(_load_code(args.code, "invalid: ")[0]))
    return EXIT_OK


def _decoder_config(args) -> DecoderConfig:
    sagms = args.decoder == "sagms"
    gain = GainParams(args.alpha_min, args.alpha_max, args.eta) if sagms else None
    alpha = args.alpha if args.decoder == "sms" else None
    return DecoderConfig(
        args.decoder, l_max=args.lmax, alpha=alpha, gain=gain, vn_mode=args.vn_mode
    )


def cmd_simulate(args) -> int:
    with _exits(EXIT_USAGE, ValueError):
        epsilons = _parse_float_list(args.eps, log_spaced=True)
        if args.eps0 == "matched":
            mode, eps0 = "matched", None
        else:
            try:
                mode, eps0 = "fixed", float(args.eps0)
            except ValueError:
                raise ValueError(
                    f"--eps0 must be 'matched' or a float, got {args.eps0!r}"
                ) from None
        decoder = _decoder_config(args)

    invalid = "error: invalid code file: "
    H, data = _load_code(args.code, invalid)
    graph = tanner_graph(H)
    with _exits(EXIT_VALIDATION, ValueError, prefix=invalid):
        check_decodable(graph)  # validate accepts such codes; the decoder cannot

    code_sha = hashlib.sha256(data).hexdigest()
    with _exits(EXIT_USAGE, ValueError):
        cfg = SweepConfig(
            code_id=f"{Path(args.code).name}:{code_sha[:16]}",
            decoder=decoder,
            epsilon_list=epsilons,
            seed=args.seed,
            epsilon0_mode=mode,
            epsilon0=eps0,
            target_failures=args.target_failures,
            max_frames=args.max_frames,
            workers=args.threads,
        )

    digest = config_digest(cfg)
    print(f"config digest: {digest}")
    with _exits(EXIT_IO, OSError):
        points = run_sweep(H, graph, cfg, out_dir=args.out)
    for p in points:
        cap = " CAP-HIT" if p.cap_hit else ""
        print(
            f"eps={p.epsilon:.6g} fer={p.fer:.6g} "
            f"wilson95=[{p.wilson_low:.6g}, {p.wilson_high:.6g}] "
            f"failures={p.failures} frames={p.frames} "
            f"mean_iters={p.mean_iterations:.3f}{cap}"
        )
    print(f"results written to {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    # every line is computed, so every input checked, before the first prints
    with _exits(EXIT_USAGE, ValueError):
        if args.mode == "transfer":
            _analyze_transfer(args)
            return EXIT_OK
        if args.mode == "alpha-star":
            lines = [
                f"dc={d_c} alpha_star_approx={alpha_star_approx(args.L0, d_c):.6g} "
                f"alpha_star_exact={alpha_star_exact(args.L0, d_c):.6g}"
                for d_c in _parse_exponents(args.dc)
            ]
        elif args.mode == "delta-alpha":
            lines = [f"delta_alpha={delta_alpha(args.L0, args.dc_ref, args.dc_new):.6g}"]
        else:  # opcount
            counts = [(variant, op_count(variant, args.dc)) for variant in VARIANTS]
            lines = ["variant adds muls cmps trans weighted"] + [
                f"{v} {c.adds} {c.muls} {c.cmps} {c.transcendentals} {c.weighted_total}"
                for v, c in counts
            ]
    print("\n".join(lines))
    return EXIT_OK


def _analyze_transfer(args) -> None:
    kappas = _parse_float_list(args.kappa, log_spaced=False)
    curves = {
        "ms": transfer("ms", kappas),
        "sms": transfer("sms", kappas, gain=args.alpha),
        "sagms": transfer("sagms", kappas, gain=args.alpha_eff),
        "bp4": transfer("bp4", kappas, d_c=args.dc),
    }
    if args.out:
        prefix = Path(args.out)
        with _exits(EXIT_IO, OSError):
            prefix.parent.mkdir(parents=True, exist_ok=True)
            for name, values in curves.items():
                with open(f"{prefix}_{name}.txt", "w", encoding="utf-8") as fh:
                    write_curve(zip(kappas, values), fh)
        print(f"wrote {len(curves)} curves to {prefix}_*.txt")
    else:
        for name, values in curves.items():
            print(f"# variant={name}")
            write_curve(zip(kappas, values), sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsagms",
        description="Quantum LDPC min-sum decoding with syndrome-adaptive gain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "build-code", help="construct a generalized bicycle code file",
        formatter_class=fmt,
    )
    p.add_argument("--ell", type=int, required=True, help="circulant size")
    p.add_argument("--a", required=True, help="exponents of a(x), e.g. 0,1")
    p.add_argument("--b", required=True, help="exponents of b(x), e.g. 0,2")
    p.add_argument("--out", required=True, help="output code file")
    p.set_defaults(func=cmd_build_code)

    p = sub.add_parser(
        "validate", help="check a code file's invariants", formatter_class=fmt
    )
    p.add_argument("code", help="code file to validate")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "simulate", help="Monte Carlo frame-error-rate sweep", formatter_class=fmt
    )
    p.add_argument("--code", required=True, help="code file")
    p.add_argument("--decoder", required=True, choices=VARIANTS)
    p.add_argument(
        "--eps", required=True,
        help="noise levels: comma list or log-spaced start:stop:count",
    )
    p.add_argument(
        "--eps0", default="matched",
        help="decoder prior rate: 'matched' or a fixed value",
    )
    p.add_argument("--lmax", type=int, default=8, help="iteration budget")
    p.add_argument("--alpha", type=float, default=0.50, help="sms scaling factor")
    p.add_argument("--alpha-min", type=float, default=0.30, help="sagms ramp floor")
    p.add_argument("--alpha-max", type=float, default=0.50, help="sagms ramp ceiling")
    p.add_argument(
        "--eta", type=float, default=1.10, help="sagms unsatisfied-check boost"
    )
    p.add_argument(
        "--vn-mode", default="marginal", choices=VN_MODES,
        help="qubit-node update rule",
    )
    p.add_argument(
        "--target-failures", type=int, default=500,
        help="stop a point after this many failures",
    )
    p.add_argument(
        "--max-frames", type=int, default=20_000_000,
        help="frame cap per point",
    )
    p.add_argument(
        "--seed", type=int, required=True,
        help="master seed (required; all randomness derives from it)",
    )
    p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.add_argument("--out", default="results", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "analyze", help="analytical curves and tables", formatter_class=fmt
    )
    asub = p.add_subparsers(dest="mode", required=True)

    t = asub.add_parser(
        "transfer", help="check-node transfer curves", formatter_class=fmt
    )
    t.add_argument("--dc", type=int, default=4, help="check degree for the bp4 curve")
    t.add_argument("--alpha", type=float, default=0.85, help="sms gain")
    t.add_argument("--alpha-eff", type=float, default=0.65, help="sagms effective gain")
    t.add_argument(
        "--kappa", default="0.05:3:20",
        help="kappa grid: comma list or linear start:stop:count",
    )
    t.add_argument("--out", default=None, help="output file prefix (default stdout)")
    t.set_defaults(func=cmd_analyze)

    a = asub.add_parser(
        "alpha-star", help="matching-ratio table", formatter_class=fmt
    )
    a.add_argument("--L0", type=float, required=True, help="prior LLR")
    a.add_argument("--dc", required=True, help="comma list of check degrees")
    a.set_defaults(func=cmd_analyze)

    d = asub.add_parser(
        "delta-alpha", help="degree-mismatch penalty", formatter_class=fmt
    )
    d.add_argument("--L0", type=float, required=True, help="prior LLR")
    d.add_argument("--dc-ref", type=int, required=True, help="reference check degree")
    d.add_argument("--dc-new", type=int, required=True, help="new check degree")
    d.set_defaults(func=cmd_analyze)

    o = asub.add_parser(
        "opcount", help="operation counts per check-node update", formatter_class=fmt
    )
    o.add_argument("--dc", type=int, required=True, help="check degree")
    o.set_defaults(func=cmd_analyze)

    p = sub.add_parser("version", help="print the package version")
    p.set_defaults(func=lambda args: print(__version__) or EXIT_OK)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        message, code = exc.args
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
