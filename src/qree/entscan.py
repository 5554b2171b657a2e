"""Monogamy of entanglement, parameter sweeps, and their persistence.

The monogamy quantity M = E(1:23) - E(1:2) - E(1:3) is positive when the
entanglement of a three-qubit state is distributed monogamously and
negative when polygamously.  ``sweep`` drives grids of (model parameter,
temperature, alpha) points, writes one CSV row per point, and caches
completed points keyed by everything that determines them, so reruns are
free.  ``critical_temperature`` locates the temperature where the
tripartite entanglement first drops below a zero threshold.

CSV schema: one column per ``SweepRow`` field, in declaration order, the
header naming them::

    model,param_name,param_value,temp,alpha,variant,e_1_23,e_1_2,e_1_3,m,
    converged,restarts_used,seed,walltime_ms

Floats are printed with 9 significant digits, infinities as ``inf``;
booleans as ``true``/``false``.
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
                        check_parameter, pure_ree, ree, ree_batch)
from .spinchain import ModelParams, hamiltonian, thermal_state

log = logging.getLogger(__name__)

CUT_1_23 = Bipartition(2, 4)
CUT_PAIR = Bipartition(2, 2)

# a pair state counts as PPT when lambda_min(rho^Gamma) >= -tau, with
# tau = PPT_ROUNDING * lambda_max(rho^Gamma): the d * eps rounding rule
PPT_ROUNDING = CUT_PAIR.dim * np.finfo(float).eps
# largest entry difference at which rho_13 counts as rho_12 up to SWAP
SWAP_MATCH_TOL = 1e-12
# a sweep gathers the points of one parameter into chunks of at most
# max(1, SWEEP_BATCH_ROWS // restarts) points, whose descents of one cut
# run as one batch: per-row cost falls steeply from 3 rows to some tens
# of rows and little beyond.  The cap holds for the E(1:23) batch; E(1:2)
# and E(1:3) share the pair batch, which can reach twice the cap.  Per row
# of one lockstep iteration at 3, 48 and 144 rows (one BLAS thread, K =
# 16, 2-core x86 host): value + gradient 125, 40 and 38 us at 2x4, 95, 24
# and 20 us at 2x2; L-BFGS direction and pair store (40 pairs) 56, 35 and
# 32 us at 2x4, 48, 25 and 24 us at 2x2
SWEEP_BATCH_ROWS = 48


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


def exact_ree(rho: np.ndarray, cut: Bipartition,
              p: RenyiParameter) -> REEResult | None:
    """The REE of rho across ``cut`` by an exact path, ``ppt`` on a pair
    cut, then ``pure``; None when rho takes neither (see ``monogamy``)."""
    ppt = _ppt_result(rho) if cut == CUT_PAIR else None
    return ppt or pure_ree(rho, cut, p)


def _swap_qubits(rho: np.ndarray) -> np.ndarray:
    """SWAP rho SWAP for a two-qubit state."""
    return rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def _swap_match(rho13: np.ndarray, rho12: np.ndarray) -> bool | None:
    """False when rho13 is rho12 and True when it is SWAP rho12 SWAP,
    within SWAP_MATCH_TOL per entry; None when it is neither."""
    for swapped, match in ((False, rho12), (True, _swap_qubits(rho12))):
        if np.abs(rho13 - match).max() <= SWAP_MATCH_TOL:
            return swapped
    return None


def _swap_result(rho13: np.ndarray, r12: REEResult, swapped: bool,
                 p: RenyiParameter) -> REEResult:
    """E(1:3) from E(1:2)'s closest state, SWAPped when ``swapped``."""
    sigma = _swap_qubits(r12.closest_state) if swapped else r12.closest_state
    return replace(r12, value=rel_entropy(rho13, sigma, p),
                   closest_state=sigma, path="swap")


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

    Any other state goes to the descent.  A batch of one (see
    ``monogamy_batch``).
    """
    return monogamy_batch([(rho3, opts.seed)], p, opts)[0]


def monogamy_batch(jobs: list[tuple[np.ndarray, int]], p: RenyiParameter,
                   opts: OptimizerOptions = OptimizerOptions()) -> list[MonogamyResult]:
    """``monogamy`` of every (rho3, seed) in ``jobs`` at ``p``, each equal
    bit for bit to ``monogamy(rho3, p, replace(opts, seed=seed))``.

    The exact paths of every cut of every point are decided first; the
    swap test needs only rho_12 and rho_13.  The remaining descents then
    run as two ``sepstates.ree_batch`` calls: every E(1:23), and every
    E(1:2) with every E(1:3).
    """
    rhos = [np.asarray(rho3, dtype=complex) for rho3, _ in jobs]
    if any(rho3.shape != (8, 8) for rho3 in rhos):
        raise ValueError("monogamy expects an 8x8 three-qubit state")
    seeds = [seed for _, seed in jobs]
    r123 = [exact_ree(rho3, CUT_1_23, p) for rho3 in rhos]
    rho12 = [partial_trace(rho3, [2, 2, 2], [0, 1]) for rho3 in rhos]
    rho13 = [partial_trace(rho3, [2, 2, 2], [0, 2]) for rho3 in rhos]
    r12 = [exact_ree(rho, CUT_PAIR, p) for rho in rho12]
    r13 = [exact_ree(rho, CUT_PAIR, p) for rho in rho13]
    swapped = [None if r is not None else _swap_match(b, a)
               for r, a, b in zip(r13, rho12, rho13)]
    # (result list, point, state) of every descent, by cut
    pending = (
        (CUT_1_23, [(r123, i, rhos[i]) for i, r in enumerate(r123) if r is None]),
        (CUT_PAIR, [(r12, i, rho12[i]) for i, r in enumerate(r12) if r is None]
         + [(r13, i, rho13[i]) for i, r in enumerate(r13)
            if r is None and swapped[i] is None]),
    )
    for cut, slots in pending:
        done = ree_batch([(rho, seeds[i]) for _, i, rho in slots], cut, p, opts)
        for (results, i, _), res in zip(slots, done):
            results[i] = res
    out = []
    for i in range(len(rhos)):
        if r13[i] is None:
            r13[i] = _swap_result(rho13[i], r12[i], swapped[i], p)
        m = r123[i].value - r12[i].value - r13[i].value
        out.append(MonogamyResult(
            e_1_23=r123[i].value, e_1_2=r12[i].value, e_1_3=r13[i].value, m=m,
            detail_1_23=r123[i], detail_1_2=r12[i], detail_1_3=r13[i]))
    return out


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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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


# (format, parse) of a CSV cell by the annotation of its SweepRow field
_CELL = {
    "float": (_fmt, float),
    "bool": (lambda b: "true" if b else "false", lambda s: s == "true"),
    "int": (str, int),
    "str": (str, str),
}
_COLUMNS = [(f.name, *_CELL[f.type]) for f in fields(SweepRow)]
CSV_HEADER = ",".join(name for name, _, _ in _COLUMNS)


def emit_rows(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(fmt(getattr(r, name)) for name, fmt, _ in _COLUMNS))
    return "\n".join(lines) + "\n"


def parse_rows(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError("CSV header does not match the sweep schema")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != len(_COLUMNS):
            raise ConfigError(f"expected {len(_COLUMNS)} fields, got {len(f)}: {ln!r}")
        rows.append(SweepRow(**{name: parse(cell) for (name, _, parse), cell
                                in zip(_COLUMNS, f)}))
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

def _evaluate_chunk(config: SweepConfig, alpha_idx: int,
                    grid_idxs: list[int]) -> list[SweepRow]:
    """The rows of grid points ``grid_idxs`` at one alpha entry, their
    monogamy evaluated as one batch.  Each row's walltime_ms is the chunk's
    wall time divided by its points."""
    p = config.alphas[alpha_idx]
    seeds = [_point_seed(config.seed, gi, alpha_idx) for gi in grid_idxs]
    t0 = time.perf_counter()
    rhos = [thermal_state(hamiltonian(config.point_params(config.grid[gi])),
                          config.point_temp(config.grid[gi])).rho
            for gi in grid_idxs]
    results = monogamy_batch(list(zip(rhos, seeds)), p, config.opts)
    walltime_ms = (time.perf_counter() - t0) * 1000.0 / len(grid_idxs)
    return [SweepRow(
        model=config.model, param_name=config.sweep_param,
        param_value=config.grid[gi], temp=config.point_temp(config.grid[gi]),
        alpha=p.alpha, variant=p.variant, e_1_23=res.e_1_23, e_1_2=res.e_1_2,
        e_1_3=res.e_1_3, m=res.m, converged=res.converged,
        restarts_used=config.opts.restarts, seed=seed,
        walltime_ms=round(walltime_ms, 3),
    ) for gi, seed, res in zip(grid_idxs, seeds, results)]


def sweep(config: SweepConfig) -> list[SweepRow]:
    """Run every (grid point x alpha) job, reusing cached points.

    The uncached points of each alpha entry run through ``monogamy_batch``
    in chunks of at most max(1, SWEEP_BATCH_ROWS // restarts) points, so
    their descents of one cut share a batch; with ``workers`` > 1 a thread
    pool runs the chunks.  A row does not depend on its chunk or on the
    worker count, except for walltime_ms, which is its chunk's wall time
    divided by the chunk's points.  Rows come back sorted by (grid index,
    alpha index) regardless of the execution order; when ``config.out`` is
    set the CSV is (re)written.
    """
    cache = SweepCache(config.cache_dir) if config.cache_dir else None
    pending: dict[int, list[int]] = {}
    keys: dict[tuple[int, int], str] = {}
    rows: dict[tuple[int, int], SweepRow] = {}
    for gi in range(len(config.grid)):
        for ai in range(len(config.alphas)):
            if cache is not None:
                seed = _point_seed(config.seed, gi, ai)
                key = _cache_key(config.model, config.point_params(config.grid[gi]),
                                 config.point_temp(config.grid[gi]),
                                 config.alphas[ai], config.opts, seed)
                hit = cache.get(key)
                if hit is not None:
                    rows[(gi, ai)] = hit
                    continue
                keys[(gi, ai)] = key
            pending.setdefault(ai, []).append(gi)

    size = max(1, SWEEP_BATCH_ROWS // config.opts.restarts)
    chunks = [(ai, gis[lo:lo + size]) for ai, gis in pending.items()
              for lo in range(0, len(gis), size)]

    def run(chunk):
        return _evaluate_chunk(config, *chunk)

    if config.workers > 1 and len(chunks) > 1:
        with concurrent.futures.ThreadPoolExecutor(config.workers) as pool:
            done = list(pool.map(run, chunks))
    else:
        done = [run(c) for c in chunks]
    for (ai, gis), chunk_rows in zip(chunks, done):
        for gi, row in zip(gis, chunk_rows):
            rows[(gi, ai)] = row
            if cache is not None:
                cache.put(keys[(gi, ai)], row)

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

    Scans ``resolution`` grid points over ``t_range``, their descents as
    one ``sepstates.ree_batch``, then bisects the bracketing interval down
    to a width of (range / 2^10), one point at a time.  Each temperature
    descends with its own seed (``_temp_seed``).  Returns None when the
    entanglement never falls below the threshold in range (printed by the
    CLI as ``none-in-range``).
    """
    lo, hi = t_range
    if not (lo > 0 and hi > lo and math.isfinite(hi)):
        raise ConfigError("t_range must be finite, ascending and positive, "
                          f"got {t_range}")
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    if resolution < 4:
        raise ConfigError("resolution must be at least 4 points")
    grid = np.linspace(lo, hi, resolution)
    h = hamiltonian(params)
    scan = [(thermal_state(h, float(t)).rho, _temp_seed(opts.seed, float(t)))
            for t in grid]
    vals = [r.value for r in ree_batch(scan, CUT_1_23, p, opts)]
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

_INT_KEYS = {"restarts", "max_iters", "components", "seed", "workers"}


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
            p = RenyiParameter(float(bits[0]), bits[1])
            check_parameter(p)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {exc}")
        out.append(p)
    return out


def _number(key: str, value: str, line_no: int, kind: type):
    """``value`` as a ``kind`` (float or int), or a ConfigError naming the
    line and the key."""
    try:
        return kind(value)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"line {line_no}: {key} must be {noun}, got {value!r}")


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

    known = ({"model", "sweep", "grid", "alphas", "out", "cache_dir"}
             | SWEEPABLE | _INT_KEYS)
    for key, (_, line_no) in raw.items():
        if key not in known:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    for req in ("model", "sweep", "grid", "alphas"):
        if req not in raw:
            raise ConfigError(f"missing required key {req!r}")

    grid = _parse_grid(*raw["grid"])
    alphas = _parse_alphas(*raw["alphas"])
    fixed = {key: _number(key, *raw[key], float) for key in raw if key in SWEEPABLE}
    ints = {key: _number(key, *raw[key], int) for key in raw if key in _INT_KEYS}
    seed, workers = ints.pop("seed", 0), ints.pop("workers", 1)
    if seed < 0:
        raise ConfigError(f"line {raw['seed'][1]}: seed must be non-negative, "
                          f"got {seed}")
    model, sweep_param = raw["model"][0], raw["sweep"][0].lower()
    out = raw.get("out", (None, 0))[0]
    cache_dir = raw.get("cache_dir", (None, 0))[0]
    try:
        opts = OptimizerOptions(seed=seed, **ints)
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
