"""Monogamy of entanglement, parameter sweeps, and their persistence.

The monogamy quantity M = E(1:23) - E(1:2) - E(1:3) is positive when the
entanglement of a three-qubit state is distributed monogamously and
negative when polygamously.  ``sweep`` drives grids of (model parameter,
temperature, alpha) points, writes one CSV row per point, and caches
completed points keyed by everything that determines them, so reruns are
free.  ``critical_temperature`` locates the temperature where the
tripartite entanglement first drops below a zero threshold.

CSV schema (header exactly)::

    model,param_name,param_value,temp,alpha,variant,e_1_23,e_1_2,e_1_3,m,
    converged,restarts_used,seed,walltime_ms

Floats are printed with 9 significant digits; infinities as ``inf``.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .qmat import Bipartition, partial_trace, partial_transpose
from .renyi import RenyiParameter, rel_entropy
from .sepstates import (ALGORITHM_VERSION, OptimizerOptions, REEResult,
                        pure_ree, ree)
from .spinchain import ModelParams, hamiltonian, thermal_state

log = logging.getLogger(__name__)

CUT_1_23 = Bipartition(2, 4)
CUT_PAIR = Bipartition(2, 2)

# a pair state counts as PPT when lambda_min(rho^Gamma) >= -tau, with
# tau = PPT_ROUNDING * lambda_max(rho^Gamma): the d * eps rounding rule
PPT_ROUNDING = CUT_PAIR.dim * np.finfo(float).eps
# largest entry difference at which rho_13 counts as rho_12 up to SWAP
SWAP_MATCH_TOL = 1e-12

CSV_HEADER = ("model,param_name,param_value,temp,alpha,variant,"
              "e_1_23,e_1_2,e_1_3,m,converged,restarts_used,seed,walltime_ms")


class ConfigError(ValueError):
    """Malformed configuration or input; sweep files report the line or
    field."""


@dataclass
class MonogamyResult:
    e_1_23: float
    e_1_2: float
    e_1_3: float
    m: float
    detail_1_23: REEResult
    detail_1_2: REEResult
    detail_1_3: REEResult

    @property
    def converged(self) -> bool:
        return (self.detail_1_23.converged and self.detail_1_2.converged
                and self.detail_1_3.converged)


def _ppt_result(rho: np.ndarray) -> REEResult | None:
    """E = 0 for a pair state whose partial transpose has no eigenvalue
    below -PPT_ROUNDING * its largest; None for any other state."""
    w = np.linalg.eigvalsh(partial_transpose(rho, [2, 2], 1))
    if w[0] < -PPT_ROUNDING * w[-1]:
        return None
    return REEResult(value=0.0, closest_state=0.5 * (rho + rho.conj().T),
                     converged=True, iterations=0, evaluations=0,
                     restarts=(), path="ppt")


def _swap_qubits(rho: np.ndarray) -> np.ndarray:
    """SWAP rho SWAP for a two-qubit state."""
    return rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def _swap_result(rho13: np.ndarray, rho12: np.ndarray, r12: REEResult,
                 p: RenyiParameter) -> REEResult | None:
    """E(1:3) from E(1:2)'s closest state when rho13 is rho12 or
    SWAP rho12 SWAP within SWAP_MATCH_TOL per entry; None otherwise."""
    for match, sigma in ((rho12, r12.closest_state),
                         (_swap_qubits(rho12), _swap_qubits(r12.closest_state))):
        if np.abs(rho13 - match).max() <= SWAP_MATCH_TOL:
            return replace(r12, value=rel_entropy(rho13, sigma, p),
                           closest_state=sigma, path="swap")
    return None


def monogamy(rho3: np.ndarray, p: RenyiParameter,
             opts: OptimizerOptions = OptimizerOptions()) -> MonogamyResult:
    """E(1:23), E(1:2), E(1:3) and their monogamy combination for an
    8-dimensional three-qubit state.

    Every cut first tries exact paths, recorded in ``REEResult.path``, in
    the order ``ppt`` (pair cuts), ``pure``, ``swap`` (E(1:3)); E(1:23)
    comes from ``pure`` or the descent:

    - ``"ppt"``: a two-qubit state with a positive partial transpose is
      separable (Peres, PRL 77, 1413 (1996); Horodecki, PLA 223, 1
      (1996)), so its REE is 0 at every alpha.  The test allows
      lambda_min(rho^Gamma) >= -tau, tau = d eps lambda_max(rho^Gamma)
      with d = 4 (the rounding rule of ``renyi``).  Mixing in a share
      p = d tau / (1 + d tau) of I/d makes such a rho exactly PPT, and
      since D_alpha is antimonotone in sigma over the allowed alpha
      ranges, the true REE is at most -ln(1 - p) = ln(1 + d tau),
      about 4e-15: 0 is exact to that accuracy.
    - ``"pure"``: a rank-1 state gets the Renyi entropy S_beta of its
      Schmidt weights from the Schmidt-diagonal closest state
      (``sepstates.pure_ree``): beta = 1 for KL, 1/alpha for the
      traditional form and alpha/(2 alpha - 1) for the sandwiched form.
    - ``"swap"``: the separable set is SWAP-invariant and D_alpha is
      unitarily invariant, so when rho_13 equals rho_12 or
      SWAP rho_12 SWAP, E(1:3) reuses E(1:2)'s closest state (SWAPped
      in the second case).  The value is re-evaluated at that state, so
      it stays an upper bound reproducible from ``closest_state``; when
      rho_13 equals rho_12 exactly it is bit-identical to E(1:2).

    Any other state goes to the descent.
    """
    rho3 = np.asarray(rho3, dtype=complex)
    if rho3.shape != (8, 8):
        raise ValueError("monogamy expects an 8x8 three-qubit state")
    r123 = pure_ree(rho3, CUT_1_23, p) or ree(rho3, CUT_1_23, p, opts)
    rho12 = partial_trace(rho3, [2, 2, 2], [0, 1])
    rho13 = partial_trace(rho3, [2, 2, 2], [0, 2])
    r12 = (_ppt_result(rho12) or pure_ree(rho12, CUT_PAIR, p)
           or ree(rho12, CUT_PAIR, p, opts))
    r13 = (_ppt_result(rho13) or pure_ree(rho13, CUT_PAIR, p)
           or _swap_result(rho13, rho12, r12, p)
           or ree(rho13, CUT_PAIR, p, opts))
    m = r123.value - r12.value - r13.value
    return MonogamyResult(e_1_23=r123.value, e_1_2=r12.value, e_1_3=r13.value,
                          m=m, detail_1_23=r123, detail_1_2=r12, detail_1_3=r13)


# ----------------------------------------------------------------------
# sweep configuration

SWEEPABLE = {"temp", "jx", "jy", "jz", "j", "delta", "gamma", "lam"}


@dataclass
class SweepConfig:
    """One sweep: a model, fixed couplings, one swept axis, alpha entries."""

    model: str
    fixed: dict[str, float]
    sweep_param: str
    grid: list[float]
    alphas: list[RenyiParameter]
    opts: OptimizerOptions = field(default_factory=OptimizerOptions)
    seed: int = 0
    out: str | None = None
    cache_dir: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.grid:
            raise ConfigError("sweep grid is empty")
        if not self.alphas:
            raise ConfigError("alpha list is empty")
        if self.sweep_param not in SWEEPABLE:
            raise ConfigError(f"cannot sweep {self.sweep_param!r}; "
                              f"choose one of {sorted(SWEEPABLE)}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for value in self.grid:
            self.point_params(value)  # validates ModelParams invariants
            t = self.point_temp(value)
            if not (math.isfinite(t) and t > 0):
                raise ConfigError("temperature must be finite and positive at "
                                  f"every grid point, got {t}")

    def point_params(self, value: float) -> ModelParams:
        kw = dict(self.fixed)
        kw.pop("temp", None)
        if self.sweep_param != "temp":
            kw[self.sweep_param] = value
        try:
            return ModelParams(model=self.model, **kw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid model parameters at grid value {value}: {exc}")

    def point_temp(self, value: float) -> float:
        if self.sweep_param == "temp":
            return value
        try:
            return float(self.fixed["temp"])
        except KeyError:
            raise ConfigError("config must set temp= when not sweeping temperature")


@dataclass
class SweepRow:
    model: str
    param_name: str
    param_value: float
    temp: float
    alpha: float
    variant: str
    e_1_23: float
    e_1_2: float
    e_1_3: float
    m: float
    converged: bool
    restarts_used: int
    seed: int
    walltime_ms: float


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def emit_rows(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.model, r.param_name, _fmt(r.param_value), _fmt(r.temp),
            _fmt(r.alpha), r.variant, _fmt(r.e_1_23), _fmt(r.e_1_2),
            _fmt(r.e_1_3), _fmt(r.m), "true" if r.converged else "false",
            str(r.restarts_used), str(r.seed), _fmt(r.walltime_ms),
        ]))
    return "\n".join(lines) + "\n"


def parse_rows(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError("CSV header does not match the sweep schema")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 14:
            raise ConfigError(f"expected 14 fields, got {len(f)}: {ln!r}")
        rows.append(SweepRow(
            model=f[0], param_name=f[1], param_value=float(f[2]),
            temp=float(f[3]), alpha=float(f[4]), variant=f[5],
            e_1_23=float(f[6]), e_1_2=float(f[7]), e_1_3=float(f[8]),
            m=float(f[9]), converged=f[10] == "true",
            restarts_used=int(f[11]), seed=int(f[12]),
            walltime_ms=float(f[13]),
        ))
    return rows


# ----------------------------------------------------------------------
# cache: append-only jsonl files

def _point_seed(config_seed: int, grid_idx: int, alpha_idx: int) -> int:
    ss = np.random.SeedSequence([int(config_seed), grid_idx, alpha_idx])
    return int(ss.generate_state(1)[0])


def _cache_key(model: str, params: ModelParams, temp: float, p: RenyiParameter,
               opts: OptimizerOptions, seed: int) -> str:
    blob = json.dumps({
        "model": model,
        "couplings": params.couplings(),
        "temp": temp,
        "alpha": p.alpha,
        "variant": p.variant,
        "opts": {f.name: getattr(opts, f.name) for f in fields(opts)},
        "seed": seed,
        "algorithm": ALGORITHM_VERSION,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class SweepCache:
    """One jsonl record per completed point; corrupt entries are skipped.
    Infinite values are stored as json's ``Infinity``."""

    def __init__(self, cache_dir: str):
        self.dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self.entries: dict[str, SweepRow] = {}
        for name in sorted(os.listdir(cache_dir)):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(cache_dir, name)
            with open(path, encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:
                        rec = json.loads(line)
                        self.entries[rec["key"]] = SweepRow(**rec["row"])
                    except (KeyError, TypeError, ValueError, json.JSONDecodeError):
                        log.warning("skipping corrupt cache entry %s:%d",
                                    name, line_no)
        self._run_file = os.path.join(
            cache_dir, f"entries-{os.getpid()}-{int(time.time() * 1000)}.jsonl")

    def get(self, key: str) -> SweepRow | None:
        return self.entries.get(key)

    def put(self, key: str, row: SweepRow) -> None:
        self.entries[key] = row
        with open(self._run_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": key, "row": asdict(row)}) + "\n")


# ----------------------------------------------------------------------
# the sweep itself

def _evaluate_point(config: SweepConfig, grid_idx: int, alpha_idx: int) -> SweepRow:
    value = config.grid[grid_idx]
    p = config.alphas[alpha_idx]
    params = config.point_params(value)
    temp = config.point_temp(value)
    seed = _point_seed(config.seed, grid_idx, alpha_idx)
    opts = replace(config.opts, seed=seed)
    t0 = time.perf_counter()
    rho = thermal_state(hamiltonian(params), temp).rho
    res = monogamy(rho, p, opts)
    walltime_ms = (time.perf_counter() - t0) * 1000.0
    return SweepRow(
        model=config.model, param_name=config.sweep_param, param_value=value,
        temp=temp, alpha=p.alpha, variant=p.variant,
        e_1_23=res.e_1_23, e_1_2=res.e_1_2, e_1_3=res.e_1_3, m=res.m,
        converged=res.converged, restarts_used=config.opts.restarts,
        seed=seed, walltime_ms=round(walltime_ms, 3),
    )


def sweep(config: SweepConfig) -> list[SweepRow]:
    """Run every (grid point x alpha) job, reusing cached points.

    Rows come back sorted by (grid index, alpha index) regardless of the
    execution order; when ``config.out`` is set the CSV is (re)written.
    """
    cache = SweepCache(config.cache_dir) if config.cache_dir else None
    jobs: list[tuple[int, int, str | None]] = []
    rows: dict[tuple[int, int], SweepRow] = {}
    for gi in range(len(config.grid)):
        for ai in range(len(config.alphas)):
            key = None
            if cache is not None:
                seed = _point_seed(config.seed, gi, ai)
                key = _cache_key(config.model, config.point_params(config.grid[gi]),
                                 config.point_temp(config.grid[gi]),
                                 config.alphas[ai], config.opts, seed)
                hit = cache.get(key)
                if hit is not None:
                    rows[(gi, ai)] = hit
                    continue
            jobs.append((gi, ai, key))

    def run(job):
        gi, ai, key = job
        return gi, ai, key, _evaluate_point(config, gi, ai)

    if config.workers > 1 and len(jobs) > 1:
        with concurrent.futures.ThreadPoolExecutor(config.workers) as pool:
            done = list(pool.map(run, jobs))
    else:
        done = [run(j) for j in jobs]
    for gi, ai, key, row in done:
        rows[(gi, ai)] = row
        if cache is not None and key is not None:
            cache.put(key, row)

    ordered = [rows[(gi, ai)] for gi in range(len(config.grid))
               for ai in range(len(config.alphas))]
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(emit_rows(ordered))
        except OSError as exc:
            raise IOError(f"cannot write sweep output {config.out!r}: {exc}")
    return ordered


# ----------------------------------------------------------------------
# critical temperature

def _temp_seed(base_seed: int, t: float) -> int:
    bits = int(np.float64(t).view(np.int64))
    return int(np.random.SeedSequence([int(base_seed), bits & 0x7FFFFFFF]).generate_state(1)[0])


def tripartite_entanglement(params: ModelParams, temp: float, p: RenyiParameter,
                            opts: OptimizerOptions) -> float:
    """E(1:23) of the thermal state at ``temp``."""
    rho = thermal_state(hamiltonian(params), temp).rho
    return ree(rho, CUT_1_23, p, replace(opts, seed=_temp_seed(opts.seed, temp))).value


def critical_temperature(params: ModelParams, p: RenyiParameter,
                         opts: OptimizerOptions = OptimizerOptions(),
                         threshold: float = 1e-4,
                         t_range: tuple[float, float] = (0.1, 4.0),
                         resolution: int = 16) -> float | None:
    """Smallest temperature where E(1:23) stays below ``threshold``.

    Scans ``resolution`` grid points over ``t_range``, then bisects the
    bracketing interval down to a width of (range / 2^10).  Returns None
    when the entanglement never falls below the threshold in range
    (printed by the CLI as ``none-in-range``).
    """
    lo, hi = t_range
    if not (lo > 0 and hi > lo):
        raise ConfigError("t_range must be ascending and positive")
    if resolution < 4:
        raise ConfigError("resolution must be at least 4 points")
    grid = np.linspace(lo, hi, resolution)
    vals = [tripartite_entanglement(params, float(t), p, opts) for t in grid]
    below = [i for i, v in enumerate(vals) if v < threshold]
    if not below:
        return None
    first = below[0]
    if first == 0:
        return float(grid[0])
    t_hot, t_cold = float(grid[first]), float(grid[first - 1])
    width_target = (hi - lo) / 2**10
    while t_hot - t_cold > width_target:
        mid = 0.5 * (t_hot + t_cold)
        if tripartite_entanglement(params, mid, p, opts) < threshold:
            t_hot = mid
        else:
            t_cold = mid
    return 0.5 * (t_cold + t_hot)


# ----------------------------------------------------------------------
# sweep-config text format
#
#   # comment
#   model  = xyz                 # xyz | xxz | xy | tfi
#   jx     = 0.8                 # fixed couplings (floats)
#   jy     = 0.5
#   temp   = 1.0                 # required unless sweep = temp
#   sweep  = jz                  # one of: temp jx jy jz j delta gamma lam
#   grid   = 0.25 : 3.0 : 12     # linspace start : stop : count
#   grid   = 0.25, 0.5, 1.0      # ...or an explicit list
#   alphas = 0.7 trad, 1 trad, 3 sand
#   restarts = 8                 # optimizer knobs (optional)
#   max_iters = 800
#   components = 16
#   seed = 7
#   workers = 4
#   out = rows.csv
#   cache_dir = .qree-cache
#
# Unknown keys are errors; every diagnostic carries the line number.

_OPT_INT_KEYS = {"restarts", "max_iters", "components"}


def _parse_grid(raw: str, line_no: int) -> list[float]:
    try:
        if ":" in raw:
            parts = [s.strip() for s in raw.split(":")]
            if len(parts) != 3:
                raise ValueError("linspace grid needs start : stop : count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("grid count must be >= 1")
            values = [start, stop]
        else:
            values = [float(s) for s in raw.split(",") if s.strip()]
        if not all(map(math.isfinite, values)):
            raise ValueError("grid values must be finite")
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: bad grid {raw!r}: {exc}")
    if ":" in raw:
        return [float(v) for v in np.linspace(start, stop, count)]
    return values


def _parse_alphas(raw: str, line_no: int) -> list[RenyiParameter]:
    out = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        bits = chunk.split()
        if len(bits) != 2:
            raise ConfigError(f"line {line_no}: alpha entry {chunk!r} must be "
                              "'<alpha> <variant>'")
        try:
            out.append(RenyiParameter(float(bits[0]), bits[1]))
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {exc}")
    return out


def parse_config(text: str) -> SweepConfig:
    """Parse the key=value sweep format documented above."""
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        raw[key] = (value, line_no)

    known = ({"model", "sweep", "grid", "alphas", "seed", "workers", "out",
              "cache_dir"} | SWEEPABLE | _OPT_INT_KEYS)
    for key, (_, line_no) in raw.items():
        if key not in known:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    for req in ("model", "sweep", "grid", "alphas"):
        if req not in raw:
            raise ConfigError(f"missing required key {req!r}")

    def take(key: str, default=None):
        return raw.pop(key, (default, 0))[0]

    model = take("model")
    sweep_param = take("sweep").lower()
    grid = _parse_grid(*raw.pop("grid"))
    alphas = _parse_alphas(*raw.pop("alphas"))

    fixed: dict[str, float] = {}
    for key in list(raw):
        if key in SWEEPABLE:
            value, line_no = raw.pop(key)
            try:
                fixed[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {line_no}: {key} must be a number, "
                                  f"got {value!r}")

    def take_int(key: str, default: int | None) -> int | None:
        value, line_no = raw.pop(key, (None, 0))
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: {key} must be an integer, "
                              f"got {value!r}")

    opt_kwargs = {key: take_int(key, None) for key in list(raw)
                  if key in _OPT_INT_KEYS}

    seed = take_int("seed", 0)
    workers = take_int("workers", 1)
    out = take("out")
    cache_dir = take("cache_dir")
    try:
        opts = OptimizerOptions(seed=seed, **opt_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    try:
        return SweepConfig(model=model, fixed=fixed, sweep_param=sweep_param,
                           grid=grid, alphas=alphas, opts=opts, seed=seed,
                           out=out, cache_dir=cache_dir, workers=workers)
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise IOError(f"cannot read config {path!r}: {exc}")
