"""Command-line interface.

Subcommands: state, ree, monogamy, sweep, tc, check.  Exit codes: 0 on
success, 1 for configuration errors (a malformed command line included),
2 for numeric failures, 3 for I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import entscan, statezoo
from .qmat import partial_trace, projector, random_density_matrix
from .renyi import RenyiParameter, sand_rel_entropy, trad_rel_entropy
from .sepstates import OptimizerOptions, check_parameter, ree
from .spinchain import (ModelParams, analytic_partition, hamiltonian,
                        tfi_analytic, thermal_state, xyz_analytic)

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 1, 2, 3

# named pure states, each built from the --phi mixing angle
STATE_VECTORS = {
    "ghz": lambda phi: statezoo.ghz(), "w": lambda phi: statezoo.w(),
    "wbar": lambda phi: statezoo.wbar(), "star": lambda phi: statezoo.star(),
    "tfi-ground": statezoo.tfi_ground,
}
NAMED_STATES = tuple(STATE_VECTORS)
CUTS = {"1:23": entscan.CUT_1_23, "1:2": entscan.CUT_PAIR, "1:3": entscan.CUT_PAIR}


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_CONFIG, not argparse's 2, on a malformed command line."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A --seed value: seeds feed numpy's SeedSequence, which takes only
    non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return value


def _add_model_args(p: argparse.ArgumentParser, **model_kw) -> None:
    p.add_argument("--model", choices=("xyz", "xxz", "xy", "tfi"), **model_kw)
    p.add_argument("--jx", type=float, default=0.0)
    p.add_argument("--jy", type=float, default=0.0)
    p.add_argument("--jz", type=float, default=0.0)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", choices=NAMED_STATES,
                   help="named pure state (alternative to --model)")
    p.add_argument("--phi", type=float, default=0.0,
                   help="mixing angle for --state tfi-ground")
    _add_model_args(p, help="thermal spin model (alternative to --state)")
    p.add_argument("--temp", type=float, default=1.0)


def _add_opt_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--variant", choices=("trad", "sand"), default="trad")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)


def _model_params(args) -> ModelParams:
    return ModelParams(model=args.model, jx=args.jx, jy=args.jy, jz=args.jz,
                       j=args.j, delta=args.delta, gamma=args.gamma,
                       lam=args.lam)


def _build_state(args) -> np.ndarray:
    if (args.state is None) == (args.model is None):
        raise entscan.ConfigError("pass exactly one of --state or --model")
    if args.state is not None:
        return projector(STATE_VECTORS[args.state](args.phi))
    return thermal_state(hamiltonian(_model_params(args)), args.temp).rho


def _parameter(args) -> RenyiParameter:
    p = RenyiParameter(args.alpha, args.variant)
    check_parameter(p)
    return p


def _options(args) -> OptimizerOptions:
    return OptimizerOptions(restarts=args.restarts, max_iters=args.max_iters,
                            components=args.components, seed=args.seed)


@contextlib.contextmanager
def _inputs():
    """Report bad values met while building inputs as configuration
    errors; a ValueError raised later is a numeric failure."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise entscan.ConfigError(str(exc)) from exc


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        keys = list(payload)
        print(",".join(keys))
        print(",".join(f"{payload[k]:.9g}" if isinstance(payload[k], float)
                       else str(payload[k]) for k in keys))


def _matrix_lines(m: np.ndarray) -> list[str]:
    out = []
    for row in np.asarray(m):
        out.append("  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in row))
    return out


def cmd_state(args) -> int:
    vec = STATE_VECTORS[args.which](args.phi)
    if args.format == "json":
        payload = {"state": args.which,
                   "amplitudes": [[v.real, v.imag] for v in vec]}
        if args.reduced:
            red = statezoo.reduced_pair(vec, int(args.reduced))
            payload["reduced"] = {"pair": args.reduced,
                                  "matrix": [[[v.real, v.imag] for v in row]
                                             for row in red]}
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"{args.which}: amplitudes on |000>..|111>")
    print("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in vec))
    if args.reduced:
        red = statezoo.reduced_pair(vec, int(args.reduced))
        print(f"reduced state on qubits {args.reduced}:")
        for line in _matrix_lines(red):
            print("  " + line)
    return EXIT_OK


def cmd_ree(args) -> int:
    with _inputs():
        rho = _build_state(args)
        p, opts = _parameter(args), _options(args)
    cut = CUTS[args.cut]
    if cut.dim != rho.shape[0]:
        if args.cut == "1:23":
            raise entscan.ConfigError("cut 1:23 needs a three-qubit state")
        keep = [0, 1] if args.cut == "1:2" else [0, 2]
        rho = partial_trace(rho, [2, 2, 2], keep)
    res = entscan.exact_ree(rho, cut, p) or ree(rho, cut, p, opts)
    _emit({"cut": args.cut, "alpha": args.alpha, "variant": args.variant,
           "value": res.value, "converged": res.converged,
           "restarts_used": len(res.restarts),
           "iterations": res.iterations, "evaluations": res.evaluations,
           "path": res.path}, args.format)
    return EXIT_OK if res.converged else EXIT_NUMERIC


def cmd_monogamy(args) -> int:
    with _inputs():
        rho = _build_state(args)
        p, opts = _parameter(args), _options(args)
    res = entscan.monogamy(rho, p, opts)
    _emit({"alpha": args.alpha, "variant": args.variant,
           "e_1_23": res.e_1_23, "e_1_2": res.e_1_2, "e_1_3": res.e_1_3,
           "m": res.m, "converged": res.converged,
           "path_1_23": res.detail_1_23.path, "path_1_2": res.detail_1_2.path,
           "path_1_3": res.detail_1_3.path},
          args.format)
    return EXIT_OK if res.converged else EXIT_NUMERIC


def cmd_sweep(args) -> int:
    flags = {"out": args.out, "cache_dir": args.cache_dir, "workers": args.workers}
    # replace() re-runs SweepConfig's validation on the overridden fields
    config = replace(entscan.load_config(args.config),
                     **{k: v for k, v in flags.items() if v is not None})
    rows = entscan.sweep(config)
    n_unconverged = sum(not r.converged for r in rows)
    if config.out:
        print(f"wrote {len(rows)} rows to {config.out} "
              f"({n_unconverged} unconverged)")
    else:
        sys.stdout.write(entscan.emit_rows(rows))
    if n_unconverged > len(rows) // 2:
        print(f"numeric failure: {n_unconverged}/{len(rows)} points "
              "did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_tc(args) -> int:
    with _inputs():
        params = _model_params(args)
        p, opts = _parameter(args), _options(args)
    tc = entscan.critical_temperature(
        params, p, opts, threshold=args.threshold,
        t_range=(args.t_min, args.t_max), resolution=args.resolution)
    if tc is None:
        print("none-in-range")
    else:
        print(f"{tc:.9g}")
    return EXIT_OK


def cmd_check(args) -> int:
    """Fast self-tests: closed-form vs numeric thermal states and the
    ordering between the two divergence variants."""
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
        failures += 0 if ok else 1

    rng = np.random.default_rng(args.seed)
    closed_forms = (
        ("xyz", lambda: ModelParams.xyz(*rng.uniform(0.1, 1.5, size=3)), xyz_analytic),
        ("tfi", lambda: ModelParams.tfi(float(rng.uniform(0.0, 2.5))), tfi_analytic),
    )
    for name, draw, analytic in closed_forms:
        worst_rho, worst_z = 0.0, 0.0
        for _ in range(args.n):
            p = draw()
            t = float(rng.uniform(0.3, 3.0))
            ts = thermal_state(hamiltonian(p), t)
            rho_a, info = analytic(p, t)
            worst_rho = max(worst_rho, float(np.abs(rho_a - ts.rho).max()))
            worst_z = max(worst_z, abs(info.z - ts.z) / ts.z)
        report(f"{name} closed form vs numeric",
               worst_rho < 1e-8 and worst_z < 1e-10,
               f"max entry {worst_rho:.2e}, Z rel {worst_z:.2e}")

    worst_z = 0.0
    for _ in range(args.n):
        p = ModelParams.xxz(float(rng.uniform(0.2, 2.0)), float(rng.uniform(-0.9, 3.0)))
        t = float(rng.uniform(0.3, 3.0))
        ts = thermal_state(hamiltonian(p), t)
        worst_z = max(worst_z, abs(analytic_partition(p, t) - ts.z) / ts.z)
    report("xxz closed-form partition function", worst_z < 1e-10,
           f"Z rel {worst_z:.2e}")

    worst_gap = math.inf
    for i in range(args.n):
        rho = random_density_matrix(4, rng.integers(1, 5), int(rng.integers(2**31)))
        sig = random_density_matrix(4, 4, int(rng.integers(2**31)))
        for alpha in (0.6, 0.8, 1.5, 2.0):
            gap = (trad_rel_entropy(rho, sig, alpha)
                   - sand_rel_entropy(rho, sig, alpha))
            worst_gap = min(worst_gap, gap)
    report("traditional >= sandwiched on random pairs", worst_gap >= -1e-9,
           f"min gap {worst_gap:.2e}")

    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qree",
        description="Renyi relative-entropy entanglement for three-qubit "
                    "pure and thermal spin-chain states")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="print a canonical state / reduction")
    p.add_argument("which", choices=NAMED_STATES)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--reduced", choices=("12", "13", "23"))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_state)

    p = sub.add_parser("ree", help="one relative-entropy-of-entanglement value")
    _add_state_args(p)
    _add_opt_args(p)
    p.add_argument("--cut", choices=tuple(CUTS), default="1:23")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_ree)

    p = sub.add_parser("monogamy", help="E(1:23), E(1:2), E(1:3) and M")
    _add_state_args(p)
    _add_opt_args(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_monogamy)

    p = sub.add_parser("sweep", help="run a sweep config file")
    p.add_argument("config")
    p.add_argument("--out")
    p.add_argument("--cache-dir")
    p.add_argument("--workers", type=int)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("tc", help="critical temperature of a model")
    _add_model_args(p, required=True)
    _add_opt_args(p)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=4.0)
    p.add_argument("--resolution", type=int, default=16)
    p.set_defaults(fn=cmd_tc)

    p = sub.add_parser("check", help="closed-form vs numeric self-tests")
    p.add_argument("--n", type=int, default=25)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=cmd_check)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except entscan.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
