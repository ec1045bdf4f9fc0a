"""Command-line surface: simulation runs, verification suites, and
serialization.

Commands::

    confmech models
    confmech simulate         --model ... --dt ... --t-end ... [--output f]
    confmech reconstruct      --model ... --t-end ... --num ...
    confmech verify-algebra   --model ... --samples ... --tol ... --seed ...
    confmech verify-decoupling --model ... [--dim ...]
    confmech reduce           --model ... --state "q1,..,p1,.."
    confmech exact            --model ... [--state ...] --t-end ... --num ...

Exit codes: 0 success / verification passed; 1 verification failed (the
report is still written); 2 usage error; 3 numeric error (singularity,
collapse, chart pole, no admissible sample state) or I/O error, with a
diagnostic JSON document.

A flat ``key = value`` config file can seed any flag (``--config run.cfg``);
explicit flags take precedence, unknown keys are rejected. All randomness
flows through the single ``--seed`` value echoed in every report.

Trajectory CSV schema: header ``t,q1..qd,p1..pd,H,D,K,I``, floats as
``'%.17g'`` writes them, LF line endings. JSON reports have a stable key
order and embed the tool version, the seed, and the parsed config.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__, models, radial
from .conformal import verify_algebra
from .errors import ConfmechError, UsageError
from .lobachevsky import canonicity_report
from .phase import PhaseState, Trajectory, integrate_verlet, verlet_steps
from .radial import RadialData, fall_time
from .reduction import from_hyperspherical, to_hyperspherical

COMMANDS = ("simulate", "reconstruct", "verify-algebra", "verify-decoupling",
            "reduce", "exact", "models")
# the commands that can write CSV; the others write JSON only
_CSV_COMMANDS = ("simulate", "reconstruct", "exact")


def _flag(default=None, **argparse_kwargs):
    """A RunConfig field that is also a ``--flag``; the keywords go to
    ``add_argument`` (``help``, ``choices``)."""
    return field(default=default, metadata=argparse_kwargs)


@dataclass
class RunConfig:
    """Every field but ``command`` and ``echo`` is a ``--flag`` (``t_end``
    is ``--t-end``) and a config-file key, parsed as the annotated type."""

    command: str
    model: str = _flag(help="free | inverse-square | higgs | coulomb "
                            "| calogero")
    dim: int = None
    kappa: float = None
    omega: float = None
    gamma: float = None
    g: float = None
    particles: int = None
    state: str = _flag(help="comma-separated q1..qd,p1..pd")
    dt: float = 1e-3
    t_end: float = 10.0
    rtol: float = 1e-10
    samples: int = 200
    tol: float = 1e-8
    num: int = _flag(101, help="grid points for reconstruct/exact")
    seed: int = 0
    output: str = _flag(help="output path (default stdout)")
    format: str = _flag(choices=("csv", "json"))
    echo: dict = field(default_factory=dict)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """``float(text)``; NaN and +-inf are bad values (ValueError)."""
    if not math.isfinite(x := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return x


# argparse names the type in its message: "invalid finite float value"
_finite_float.__name__ = "finite float"

_FLAGS = [f for f in fields(RunConfig) if f.name not in ("command", "echo")]
# the annotations are strings (postponed evaluation)
_FLAG_TYPES = {f.name: {"str": str, "int": int, "float": _finite_float}[f.type]
               for f in _FLAGS}
# a config-file value must meet its flag's choices too
_FLAG_CHOICES = {f.name: f.metadata["choices"] for f in _FLAGS
                 if "choices" in f.metadata}


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process (parsing leaves it unchanged)."""
    p = _Parser(prog="confmech", description="conformal mechanics toolkit")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="flat key = value file; flags win")
    for f in _FLAGS:
        p.add_argument("--" + f.name.replace("_", "-"),
                       type=_FLAG_TYPES[f.name], **f.metadata)
    return p


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in _FLAG_TYPES:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    out[key] = _FLAG_TYPES[key](val.strip())
                    if out[key] not in _FLAG_CHOICES.get(key, (out[key],)):
                        raise ValueError(out[key])
                except ValueError:
                    raise UsageError(
                        f"{path}:{lineno}: bad value for {key!r}") from None
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from None
    return out


def parse_config(argv) -> RunConfig:
    """argv (plus an optional config file) -> validated RunConfig."""
    ns = _build_parser().parse_args(argv)
    values = {k: getattr(ns, k) for k in _FLAG_TYPES}
    if ns.config:
        for key, val in _read_config_file(ns.config).items():
            if values.get(key) is None:
                values[key] = val
    cfg = RunConfig(command=ns.command)
    for key, val in values.items():
        if val is not None:
            setattr(cfg, key, val)
    if cfg.format is None:
        cfg.format = "csv" if cfg.command in ("simulate", "reconstruct") \
            else "json"
    _validate(cfg)
    # the output destination is not semantic config: identical runs must
    # produce byte-identical reports wherever they are written
    cfg.echo = {k: v for k, v in values.items()
                if v is not None and k != "output"}
    cfg.echo["command"] = cfg.command
    return cfg


def _validate(cfg: RunConfig):
    if cfg.dt <= 0:
        raise UsageError("--dt must be positive")
    if cfg.t_end <= 0:
        raise UsageError("--t-end must be positive")
    if cfg.command == "simulate":
        try:
            verlet_steps(cfg.dt, cfg.t_end)
        except ValueError:
            raise UsageError(
                "--t-end must be a whole multiple of --dt") from None
    if not (1e-13 <= cfg.rtol <= 1e-3):
        raise UsageError("--rtol must lie in [1e-13, 1e-3]")
    if cfg.seed < 0:
        raise UsageError("--seed must be >= 0")
    if cfg.samples < 1:
        raise UsageError("--samples must be >= 1")
    if cfg.tol <= 0:
        raise UsageError("--tol must be positive")
    if cfg.num < 2:
        raise UsageError("--num must be >= 2")
    if cfg.format == "csv" and cfg.command not in _CSV_COMMANDS:
        raise UsageError(f"{cfg.command} writes JSON only; --format csv "
                         "is for " + ", ".join(_CSV_COMMANDS))
    if cfg.command == "verify-decoupling" and cfg.model is None:
        # bare --dim N checks the plain inverse-square system (g = 1)
        cfg.model = "inverse-square"
        if cfg.kappa is None:
            cfg.kappa = 0.5
    if cfg.command != "models" and cfg.model is None:
        raise UsageError(f"{cfg.command} needs --model")


def _model_spec(cfg: RunConfig) -> models.ModelSpec:
    params = {}
    for key in ("kappa", "omega", "gamma", "g"):
        if getattr(cfg, key) is not None:
            params[key] = getattr(cfg, key)
    if cfg.particles is not None:
        params["particles"] = cfg.particles
    try:
        ms = models.spec(cfg.model, d=cfg.dim, **params)
    except (ValueError, TypeError) as err:
        raise UsageError(str(err)) from None
    return ms


def _initial_state(cfg: RunConfig, ms: models.ModelSpec) -> PhaseState:
    if cfg.state is None:
        try:
            return models.reference_state(ms)
        except ValueError as err:
            raise UsageError(str(err)) from None
    try:
        vals = list(map(_finite_float, cfg.state.replace(",", " ").split()))
    except ValueError:
        raise UsageError("--state must be a list of finite numbers") from None
    if len(vals) != 2 * ms.d:
        raise UsageError(f"--state needs {2 * ms.d} numbers for d={ms.d}")
    return PhaseState(vals[:ms.d], vals[ms.d:])


# The CSV writer makes '%.17g' text in numpy. For E = floor(log10|x|) in
# [-4, 16] (%g's fixed notation) the 17 digits N = round(|x| 10**(16 - E))
# come exactly from Dekker's product hi + lo, rounded half to even as
# CPython's dtoa does. Any other value (0, nan, inf, exponent notation, hi
# on an end of [1e16, 1e17], N = 1e17) is formatted by '%.17g' itself.
_CSV_CHUNK = 256  # table rows at a time (bounds the work arrays)
_POW10 = np.array([float(10 ** k) for k in range(21)])  # exact doubles
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI  # Veltkamp's split at 2**27 + 1


def _csv_tables():
    """The 4-digit groups as four uint16 cells, then again with trailing
    zeros as zero bytes; and a 40-byte layout per E = -4..16: "-", "0.000",
    digit j in byte 6 + 2j with its "." after it, "," last. A zero byte is
    deleted from the text; the integer-part digits are "0"s to OR into."""
    k = np.arange(10000, dtype=np.uint16)
    words = np.empty((2, 10000, 4), "<u2")
    for j in range(4):
        words[0, :, j] = k // 10 ** (3 - j) % 10 + 48
    kept = words[0] != 48
    for j in (2, 1, 0):
        kept[:, j] |= kept[:, j + 1]
    np.multiply(words[0], kept, out=words[1])
    rows = np.zeros((21, 40), np.uint8)
    for e in range(-4, 17):
        if e < 0:
            rows[e + 4, 1:2 - e] = list(b"0." + b"0" * (-1 - e))
        else:
            rows[e + 4, 6:7 + 2 * e:2] = 48
            rows[e + 4, 7 + 2 * e] = 46
    rows[:, 0], rows[:, 39] = 45, 44  # "-" (kept for x < 0) and ","
    return words.reshape(-1, 4).view("<u8")[:, 0], rows


_CSV_WORDS, _CSV_ROWS = _csv_tables()


def _csv_chunk(x, out, m: int) -> str:
    """The text of the flat values ``x`` of rows of ``m`` columns, made in
    the ``(len(x), 40)`` byte buffer ``out``."""
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= -4) & (e <= 16)
    k = np.where(ok, 16 - e, 0).astype(np.intp)
    a = np.where(ok, a, 1.0)
    hi = a * _POW10[k]
    ah = 134217729.0 * a - (134217729.0 * a - a)
    al = a - ah
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    ok &= (hi > 1e16) & (hi < 1e17)  # so hi is an integer above 2**53
    fl = np.floor(lo)
    frac = lo - fl
    big = hi.astype(np.int64) + fl.astype(np.int64)
    big += (frac > 0.5) | ((frac == 0.5) & (big & 1 == 1))
    ok &= big < 10 ** 17
    q = big // 10 ** 8  # N's 4-digit groups g, with a scalar per division
    r = big - q * 10 ** 8
    t = q // 10 ** 4
    u, v = t // 10 ** 4, r // 10 ** 4
    g = np.stack([u, t - u * 10 ** 4, q - t * 10 ** 4, v, r - v * 10 ** 4], 1)
    strip = True  # the last group, and the zero groups before it
    for j in (4, 3, 2, 1):
        g[:, j] += 10000 * strip
        strip = g[:, j] == 10000
    np.take(_CSV_ROWS, 20 - k, axis=0, out=out)
    out.view("<u2")[:, 3:] |= _CSV_WORDS[g].view("<u2")[:, 3:]
    out[:, 7:39:2] *= out[:, 8:40:2] != 0  # no "." before a hidden digit
    out[:, 0] *= x < 0
    out.reshape(-1, 40 * m)[:, -1] = 10
    for i in np.flatnonzero(~ok).tolist():
        s = b"%.17g" % x[i]
        out[i, :-1] = 0
        out[i, :len(s)] = np.frombuffer(s, np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _csv(header: list, columns: list) -> str:
    """CSV text: the header line, then one line per row of the stacked
    columns, every value as '%.17g' writes it."""
    table = np.column_stack(columns)
    n, m = table.shape
    out = np.empty((min(n, _CSV_CHUNK) * m, 40), np.uint8)
    parts = [",".join(header) + "\n"]
    for start in range(0, n, _CSV_CHUNK):
        x = table[start:start + _CSV_CHUNK].ravel()
        parts.append(_csv_chunk(x, out[:len(x)], m))
    return "".join(parts)


def trajectory_csv(traj: Trajectory) -> str:
    d = traj.qs.shape[1]
    cols = (["t"] + [f"q{i + 1}" for i in range(d)]
            + [f"p{i + 1}" for i in range(d)] + ["H", "D", "K", "I"])
    return _csv(cols, [traj.times, traj.qs, traj.ps]
                + [traj.monitors[k] for k in ("H", "D", "K", "I")])


def read_trajectory_csv(path: str):
    """Parse a trajectory CSV back into (times, qs, ps, monitors)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")]
                for line in fh if line.strip()]
    data = np.asarray(rows)
    d = (len(header) - 5) // 2
    mons = {k: data[:, 1 + 2 * d + j] for j, k in enumerate("HDKI")}
    return data[:, 0], data[:, 1:1 + d], data[:, 1 + d:1 + 2 * d], mons


def _json_doc(cfg: RunConfig, payload: dict) -> dict:
    doc = {"tool": "confmech", "version": __version__, "seed": cfg.seed,
           "config": {k: cfg.echo[k] for k in sorted(cfg.echo)}}
    doc.update(payload)
    return doc


def emit(text_or_doc, fmt: str, path: str):
    """Write CSV text or a JSON document to a path (or stdout)."""
    if fmt == "json":
        text = json.dumps(text_or_doc, indent=2) + "\n"
    else:
        text = text_or_doc
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _trajectory_payload(traj: Trajectory) -> dict:
    return {
        "times": traj.times.tolist(),
        "q": traj.qs.tolist(),
        "p": traj.ps.tolist(),
        "monitors": {k: v.tolist() for k, v in traj.monitors.items()},
    }


def run(cfg: RunConfig) -> int:
    """Execute a parsed config; returns the process exit code."""
    if cfg.command == "models":
        entries = []
        for ms in models.catalog():
            s0 = models.reference_state(ms)
            entries.append({
                "name": ms.name, "d": ms.d,
                "params": {k: ms.params[k] for k in sorted(ms.params)},
                "reference_state": {"q": list(s0.q), "p": list(s0.p)},
            })
        emit(_json_doc(cfg, {"models": entries}), "json", cfg.output)
        return 0

    ms = _model_spec(cfg)
    sys_ = models.build(ms)

    if cfg.command in ("simulate", "reconstruct"):
        s0 = _initial_state(cfg, ms)
        if cfg.command == "simulate":
            traj = integrate_verlet(sys_, s0, cfg.dt, cfg.t_end)
        else:
            grid = np.linspace(0.0, cfg.t_end, cfg.num)
            traj = radial.reconstruct(sys_, s0, grid, rtol=cfg.rtol)
        if cfg.format == "csv":
            emit(trajectory_csv(traj), "csv", cfg.output)
        else:
            emit(_json_doc(cfg, _trajectory_payload(traj)), "json",
                 cfg.output)
        return 0

    if cfg.command == "verify-algebra":
        report = verify_algebra(sys_, samples=cfg.samples, tol=cfg.tol,
                                seed=cfg.seed)
        emit(_json_doc(cfg, report.to_dict()), "json", cfg.output)
        return 0 if report.passed else 1

    if cfg.command == "verify-decoupling":
        report = canonicity_report(sys_, samples=cfg.samples, tol=cfg.tol,
                                   seed=cfg.seed)
        emit(_json_doc(cfg, report.to_dict()), "json", cfg.output)
        expected = "canonical" if ms.d == 1 else "non-canonical"
        return 0 if report.verdict == expected else 1

    if cfg.command == "reduce":
        s0 = _initial_state(cfg, ms)
        rs = to_hyperspherical(s0)
        back = from_hyperspherical(rs)
        err = max(float(np.max(np.abs(back.q - s0.q))),
                  float(np.max(np.abs(back.p - s0.p))))
        emit(_json_doc(cfg, {
            "r": rs.r, "p_r": rs.p_r,
            "phi": list(rs.phi), "pi": list(rs.pi),
            "round_trip_error": err,
        }), "json", cfg.output)
        return 0

    if cfg.command == "exact":
        s0 = _initial_state(cfg, ms)
        rd = RadialData.from_state(sys_, s0)
        t_fall = fall_time(rd)
        t_max = cfg.t_end
        if t_fall is not None:
            t_max = min(t_max, 0.999 * t_fall)
        grid = np.linspace(0.0, t_max, cfg.num)
        T, r2 = radial._radial_rows(rd, grid)
        keys = ("t", "r_squared", "T")
        if cfg.format == "csv":
            emit(_csv(keys, [grid, r2, T]), "csv", cfg.output)
        else:
            rows = [dict(zip(keys, row)) for row
                    in zip(grid.tolist(), r2.tolist(), T.tolist())]
            emit(_json_doc(cfg, {"E": rd.E, "D0": rd.D0, "r0sq": rd.r0sq,
                                 "I0": rd.I0, "fall_time": t_fall,
                                 "samples": rows}), "json", cfg.output)
        return 0

    raise UsageError(f"unknown command {cfg.command!r}")


def main(argv=None) -> int:
    """Entry point; maps typed failures onto the documented exit codes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
        try:
            return run(cfg)
        except UsageError:
            raise
        except ConfmechError as err:
            # numeric failure: a diagnostic document goes where the report
            # would have gone (an OSError writing it is caught below)
            diag = {"tool": "confmech", "version": __version__,
                    "error": type(err).__name__, "message": str(err)}
            for attr in ("last_good_time", "t_reached", "collapse_time"):
                if getattr(err, attr, None) is not None:
                    diag[attr] = getattr(err, attr)
            emit(diag, "json", cfg.output)
            return 3
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
