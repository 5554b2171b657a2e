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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import sepstates, xstate
from .qmat import Bipartition, partial_trace, partial_transpose
from .renyi import RenyiParameter
from .sepstates import (ALGORITHM_VERSION, OptimizerOptions, REEResult,
                        _check_ree_args, _pure_ree, check_parameter)
from .spinchain import ModelParams, hamiltonian, thermal_state

log = logging.getLogger(__name__)

CUT_1_23 = Bipartition(2, 4)
CUT_PAIR = Bipartition(2, 2)

# a pair state counts as PPT when lambda_min(rho^Gamma) >= -tau, tau =
# PPT_ROUNDING * lambda_max(rho^Gamma) < 1e-12, which covers the rounding a
# thermal pair brings from its three-qubit state, whose weights carry
# relative errors of about eps beta ||H||: exactly PPT pairs of the XYZ, XXZ
# and TFI chains read lambda_min down to -33 eps lambda_max at T = 0.05 and
# -710 at T = 0.01.  0 is exact to ln(1 + 4 tau) < 4e-12 (see ``monogamy``)
PPT_ROUNDING = 2.0 ** 12 * np.finfo(float).eps


class ConfigError(ValueError):
    """Malformed configuration or input; sweep files report the line or
    field."""


def _check_integer(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


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


def _ppt_result(rho: np.ndarray, p: RenyiParameter) -> REEResult | None:
    """E = 0 for a pair state whose partial transpose has no eigenvalue
    below -PPT_ROUNDING * its largest; None for any other state.  rho has
    passed the checks of every path (see ``exact_batch``)."""
    w = np.linalg.eigvalsh(partial_transpose(rho, [2, 2], 1))
    if w[0] < -PPT_ROUNDING * w[-1]:
        return None
    return REEResult(value=0.0, closest_state=0.5 * (rho + rho.conj().T),
                     converged=True, iterations=0, evaluations=0,
                     restarts=(), path="ppt", lower_bound=0.0)


def exact_batch(rhos: list[np.ndarray], cut: Bipartition,
                p: RenyiParameter) -> list[REEResult | None]:
    """The REE of every rho in ``rhos`` across ``cut`` by an exact path, in
    the order ``ppt`` (pair cuts), ``pure``, ``xstate`` (pair cuts); None
    for a state that takes none of them (the paths are set out in
    ``monogamy``).

    The pairs that take neither closed form try ``xstate`` in one batch
    (``xstate.ree_batch`` without its checks), whose rows do not depend on
    each other, so
    each result equals that of its state in a batch of one, bit for bit.
    A pair that is not an X-state, or whose solve stops short of its
    certificate (``converged`` False), gets None.

    Each state and ``p`` are checked once, ahead of every path, so the
    ``ppt`` shortcut refuses what the other paths refuse."""
    checked = [np.asarray(rho, dtype=complex) for rho in rhos]
    for rho in checked:
        _check_ree_args(rho, cut, p)
    out = [(_ppt_result(rho, p) if cut == CUT_PAIR else None)
           or _pure_ree(c, cut, p) for rho, c in zip(rhos, checked)]
    todo = [i for i, res in enumerate(out) if res is None]
    if cut == CUT_PAIR:
        for i, res in zip(todo, xstate._ree_batch([checked[i] for i in todo], p)):
            out[i] = res if res is not None and res.converged else None
    return out


def ree_batch(jobs: list[tuple[np.ndarray, int]], cut: Bipartition,
              p: RenyiParameter, opts: OptimizerOptions) -> list[REEResult]:
    """The reported REE of every (rho, seed) in ``jobs`` across ``cut``:
    ``exact_batch``, then one ``sepstates.ree_batch`` descent of the states
    it leaves open, each with its seed; ``jobs`` may be of any length (the
    descent caps its own batches).  ``monogamy``, ``qree ree`` and
    ``critical_temperature`` report it; ``sepstates.ree`` is the descent."""
    out = exact_batch([rho for rho, _ in jobs], cut, p)
    todo = [i for i, res in enumerate(out) if res is None]
    done = sepstates.ree_batch([jobs[i] for i in todo], cut, p, opts)
    for i, res in zip(todo, done):
        out[i] = res
    return out


def monogamy(rho3: np.ndarray, p: RenyiParameter,
             opts: OptimizerOptions = OptimizerOptions()) -> MonogamyResult:
    """E(1:23), E(1:2), E(1:3) and their monogamy combination for an
    8-dimensional three-qubit state.

    Every cut goes through ``ree_batch``, exact paths first, recorded in
    ``REEResult.path``: a pair cut tries ``ppt``, ``pure`` and ``xstate``
    in that order; E(1:23) comes from ``pure`` or the descent:

    - ``"ppt"``: a two-qubit state with a positive partial transpose is
      separable (Peres, PRL 77, 1413 (1996); Horodecki, PLA 223, 1
      (1996)), so its REE is 0 at every alpha.  The test allows
      lambda_min(rho^Gamma) >= -tau, tau = PPT_ROUNDING
      lambda_max(rho^Gamma) < 1e-12.  Mixing in a share p = d tau / (1 +
      d tau) of I/d, d = 4, makes such a rho exactly PPT, and since
      D_alpha is antimonotone in sigma over the allowed alpha ranges, the
      true REE is at most -ln(1 - p) = ln(1 + d tau) < 4e-12: 0 is exact
      to that accuracy.
    - ``"pure"``: a rank-1 state gets the Renyi entropy S_beta of its
      Schmidt weights from the Schmidt-diagonal closest state
      (``sepstates.pure_ree``): beta = 1 for KL, 1/alpha for the
      traditional form and alpha/(2 alpha - 1) for the sandwiched form.
    - ``"xstate"``: a pair that commutes with (n1.sigma) (x) (n2.sigma) is
      an X-state after a local rotation.  Twirling sigma over that local
      symmetry keeps it separable and cannot raise D_alpha (Vollbrecht &
      Werner, PRA 64, 062307 (2001)), so a closest separable state is a
      PPT X-state, and the REE is a convex problem in five real numbers
      (Frank & Lieb, J. Math. Phys. 54, 122201 (2013) for the sandwiched
      form), solved by a barrier method that certifies ``lower_bound``
      (``xstate``).  Only a certified result is kept, one whose value is
      within ``xstate.XSTATE_TOLERANCE`` of that bound; an uncertified
      pair descends, as a pair that is not an X-state does.  The value
      is re-evaluated against rho at the rotated-back closest state, so
      it stays an upper bound reproducible from ``closest_state``.

    Any other state goes to the descent.  A batch of one (see
    ``monogamy_batch``).
    """
    return monogamy_batch([(rho3, opts.seed)], p, opts)[0]


def monogamy_batch(jobs: list[tuple[np.ndarray, int]], p: RenyiParameter,
                   opts: OptimizerOptions = OptimizerOptions()
                   ) -> list[MonogamyResult]:
    """``monogamy`` of every (rho3, seed) in ``jobs`` at ``p``, each equal
    bit for bit to ``monogamy(rho3, p, replace(opts, seed=seed))``.

    Two ``ree_batch`` passes, each over one cut: E(1:23) of every rho3,
    then the pair cut of every rho_12 followed by every rho_13, each state
    with its point's seed; ``jobs`` may be of any length."""
    rhos = [np.asarray(rho3, dtype=complex) for rho3, _ in jobs]
    if any(rho3.shape != (8, 8) for rho3 in rhos):
        raise ValueError("monogamy expects an 8x8 three-qubit state")
    r123 = ree_batch(jobs, CUT_1_23, p, opts)
    pairs = [(partial_trace(rho3, [2, 2, 2], keep), seed)
             for keep in ([0, 1], [0, 2]) for rho3, (_, seed) in zip(rhos, jobs)]
    r_pairs = ree_batch(pairs, CUT_PAIR, p, opts)
    out = []
    for e123, e12, e13 in zip(r123, r_pairs[:len(rhos)], r_pairs[len(rhos):]):
        out.append(MonogamyResult(
            e_1_23=e123.value, e_1_2=e12.value, e_1_3=e13.value,
            m=e123.value - e12.value - e13.value,
            detail_1_23=e123, detail_1_2=e12, detail_1_3=e13))
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
        _check_integer("workers", self.workers)
        _check_integer("seed", self.seed)
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
        # each point descends from its own seed, never from opts.seed
        "opts": {f.name: getattr(opts, f.name) for f in fields(opts)
                 if f.name != "seed"},
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

def _evaluate_alpha(config: SweepConfig, alpha_idx: int,
                    grid_idxs: list[int]) -> list[SweepRow]:
    """The rows of grid points ``grid_idxs`` at one alpha entry, their
    monogamy evaluated as one ``monogamy_batch``.  Each row's walltime_ms
    is that batch's wall time divided by its points."""
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

    The uncached points of each alpha entry run through one
    ``monogamy_batch`` (the descent caps its own batches); with
    ``workers`` > 1 a thread pool runs the alpha entries.  A row does not
    depend on its batch or on the worker count, except for walltime_ms,
    which is its alpha entry's wall time divided by its uncached points.
    Rows come back sorted by (grid index, alpha index) regardless of the
    execution order; when ``config.out`` is set the CSV is (re)written.
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

    def run(entry):
        return _evaluate_alpha(config, *entry)

    if config.workers > 1 and len(pending) > 1:
        with concurrent.futures.ThreadPoolExecutor(config.workers) as pool:
            done = list(pool.map(run, pending.items()))
    else:
        done = [run(entry) for entry in pending.items()]
    for (ai, gis), entry_rows in zip(pending.items(), done):
        for gi, row in zip(gis, entry_rows):
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
    """E(1:23) of the thermal state at ``temp`` (``ree_batch``)."""
    rho = thermal_state(hamiltonian(params), temp).rho
    return ree_batch([(rho, _temp_seed(opts.seed, temp))], CUT_1_23, p, opts)[0].value


def critical_temperature(params: ModelParams, p: RenyiParameter,
                         opts: OptimizerOptions = OptimizerOptions(),
                         threshold: float = 1e-4,
                         t_range: tuple[float, float] = (0.1, 4.0),
                         resolution: int = 16) -> float | None:
    """Smallest temperature where E(1:23) stays below ``threshold``.

    Scans ``resolution`` grid points over ``t_range`` as one
    ``ree_batch``, then bisects the bracketing interval down to a width of
    (range / 2^10), one point at a time (``tripartite_entanglement``).
    Each temperature has its own seed (``_temp_seed``).  Returns None when
    the entanglement never falls below the threshold in range (printed by
    the CLI as ``none-in-range``).
    """
    lo, hi = t_range
    if not (lo > 0 and hi > lo and math.isfinite(hi)):
        raise ConfigError("t_range must be finite, ascending and positive, "
                          f"got {t_range}")
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    _check_integer("resolution", resolution)
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
