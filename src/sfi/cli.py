"""Command-line front end: configuration, orchestration, report emission.

Four commands share one flat INI configuration:

* eval: domain functionals and curvature summary of a single graph;
* verify: one deficit-report row per (case, direction, amplitude),
  computed one sampled graph (direction, amplitude) at a time, with
  every case's row on it;
* expand: fitted-versus-closed-form expansion coefficient table;
* sweep: verify over random directions, with a summary line per case.

Exit codes: 0 success, 1 at least one row failed its inequality,
2 configuration error (the offending key is named), 3 numerical failure,
4 worker failure (a --threads worker process died or returned a
truncated result; no report is written).
For verify and sweep, 3 means at least one row raised: each such row is
listed on stderr as a numerical failure with its direction id, amplitude
and error, and the report still holds every other row.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import lab
from sfi import model
from sfi import spherebasis as sb
from sfi.spaceform import SpaceForm, WeightFunction


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


class WorkerFailure(Exception):
    """A worker process died or returned a result that cannot be read."""


class _WorkerTraceback(Exception):
    """The traceback text of an exception raised in a worker process, set
    as the cause of the exception re-raised in the parent."""

    def __str__(self):
        return "\n" + self.args[0]


# ---------------------------------------------------------------------------
# configuration schema

_LIST_INT = "list-of-int"
_LIST_FLOAT = "list-of-float"

SCHEMA = {
    "space": {"K": int, "n": int, "rho": float},
    "grid": {"basis_degree": int, "resolution": int},
    "weight": {"kind": str, "value": float, "alpha": float, "scale": float},
    "perturbation": {"mode": str, "degrees": _LIST_INT, "directions": int,
                     "seed": int, "epsilon": _LIST_FLOAT,
                     "coefficients": str},
    "case": {"theorem": str, "k": int, "j": int, "eta_frac": float},
    "output": {"path": str, "format": str},
}

REQUIRED = {"space": ("K", "n", "rho"), "weight": ("kind",),
            "case": ("theorem",)}

WEIGHT_KINDS = ("constant", "power", "affine", "shifted_power")
MODES = ("zero", "random", "coefficients")
FORMATS = ("csv", "json")

# eval exits 3 when its finer-grid volume or area check differs by more.
EVAL_QUAD_TOL = 1e-8


def _convert(section, key, raw, typ):
    """The typed value of raw. Floats must be finite: nan fails every
    comparison, so a range check written as "reject if x < 0" would let
    it through."""
    raw = raw.strip()
    try:
        if typ is int:
            return int(raw)
        if typ is str:
            return raw
        if typ == _LIST_INT:
            return tuple(int(t) for t in raw.split(",") if t.strip())
        if typ is float:
            values = (float(raw),)
        elif typ == _LIST_FLOAT:
            values = tuple(float(t) for t in raw.split(",") if t.strip())
        else:
            raise ConfigError(f"{section}.{key}: unsupported type in schema")
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as "
                          f"{getattr(typ, '__name__', typ)}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{section}.{key}: {raw!r} is not finite")
    return values[0] if typ is float else values


def load_config(path):
    """Parse and type-check the INI file into plain dicts.

    Returns (sections, cases) where cases is the ordered list of
    (name, values) for each [case:<name>] section.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None

    sections, cases = {}, []
    for name in parser.sections():
        base = "case" if name == "case" or name.startswith("case:") else name
        if base not in SCHEMA:
            raise ConfigError(f"unknown config section {name!r}")
        schema = SCHEMA[base]
        values = {}
        for key, raw in parser.items(name):
            if key not in schema:
                raise ConfigError(f"unknown config key {name}.{key}")
            values[key] = _convert(name, key, raw, schema[key])
        for key in REQUIRED.get(base, ()):
            if key not in values:
                raise ConfigError(f"missing required config key "
                                  f"{name}.{key}")
        if base == "case":
            cases.append((name, values))
        else:
            sections[name] = values
    for name in REQUIRED:
        if name != "case" and name not in sections:
            raise ConfigError(f"missing required config section [{name}]")
    return sections, cases


# ---------------------------------------------------------------------------
# construction helpers

def build_weight(wcfg):
    kind = wcfg["kind"]
    if kind not in WEIGHT_KINDS:
        raise ConfigError(f"weight.kind: unknown kind {kind!r}; expected "
                          f"one of {WEIGHT_KINDS}")
    if "value" in wcfg and kind != "constant":
        raise ConfigError(f"weight.value: only constant weights take a "
                          f"value, not {kind}")
    if "alpha" in wcfg and kind in ("constant", "affine"):
        raise ConfigError(f"weight.alpha: {kind} weights take no alpha")
    try:
        if kind == "constant":
            w = WeightFunction.constant(wcfg.get("value", 1.0))
        elif kind == "power":
            w = WeightFunction.power(wcfg.get("alpha", 1.0))
        elif kind == "affine":
            w = WeightFunction.affine()
        else:
            w = WeightFunction.shifted_power(wcfg.get("alpha", 2.0))
    except ValueError as exc:  # the power constructors hold alpha >= 1
        raise ConfigError(f"weight.alpha: {exc}") from None
    scale = wcfg.get("scale", 1.0)
    if scale != 1.0:
        w = w.scaled(scale)
    return w


def build_space(scfg):
    """The space form of [space]; n must be a dimension the basis
    supports and rho must lie in the radial domain (0, r_max)."""
    K, n, rho = scfg["K"], scfg["n"], scfg["rho"]
    if K not in (-1, 0, 1):
        raise ConfigError(f"space.K: curvature must be -1, 0 or +1, got {K}")
    if n not in sb.SUPPORTED_DIMENSIONS:
        raise ConfigError(f"space.n: unsupported dimension {n}; expected "
                          f"one of {sb.SUPPORTED_DIMENSIONS}")
    sf = SpaceForm(K=K, n=n)
    if not 0 < rho < sf.r_max:
        raise ConfigError(f"space.rho: {rho:g} is outside (0, {sf.r_max:g})")
    return sf


def build_basis_grid(gcfg, n, resolution_override=None):
    d_max = gcfg.get("basis_degree", 8)
    if d_max < 0:
        raise ConfigError(f"grid.basis_degree: {d_max} is negative")
    res = resolution_override
    if res is None:
        res = gcfg.get("resolution", sb.default_resolution(d_max))
    if res < sb.MIN_RESOLUTION:
        raise ConfigError(f"grid.resolution: {res} is below the minimum "
                          f"{sb.MIN_RESOLUTION}")
    if res < 2 * d_max:
        raise ConfigError(f"grid.resolution: {res} is below twice the "
                          f"basis degree {d_max}")
    return sb.build_basis(n, d_max), sb.build_grid(n, res)


def build_cases(cases_cfg, sf, w, rho):
    out = []
    for name, c in cases_cfg:
        kwargs = {"k": c.get("k", 1), "rho": rho,
                  "eta_frac": c.get("eta_frac", 0.25)}
        if "j" in c:
            kwargs["j"] = c["j"]
        try:
            out.append((name, lab.TheoremCase(c["theorem"], sf, w,
                                              **kwargs)))
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return out


def parse_coefficient_triples(text, basis):
    """Parse "degree:offset:value, ..." into a coefficient vector."""
    coeffs = np.zeros(basis.size)
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(f"perturbation.coefficients: bad entry "
                              f"{item!r}; expected degree:offset:value")
        try:
            d, off, val = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigError(f"perturbation.coefficients: bad entry "
                              f"{item!r}") from None
        block = basis.degree_block(d)
        if not 0 <= off < len(block):
            raise ConfigError(f"perturbation.coefficients: offset {off} out "
                              f"of range for degree {d}")
        coeffs[block[off]] = val
    return coeffs


def build_directions(pcfg, basis, seed, *, unit=False):
    """Ordered (direction_id, SphericalFunction) list from the
    perturbation spec (random mode: lab.sample_directions); unit forces
    L2 normalization."""
    mode = pcfg.get("mode", "zero")
    if mode not in MODES:
        raise ConfigError(f"perturbation.mode: unknown mode {mode!r}; "
                          f"expected one of {MODES}")
    if mode == "zero":
        if unit:
            raise ConfigError("perturbation.mode: zero direction cannot be "
                              "normalized for an expansion fit")
        return [("zero", sb.zero_function(basis))]
    if mode == "coefficients":
        text = pcfg.get("coefficients", "")
        coeffs = parse_coefficient_triples(text, basis)
        norm = float(np.linalg.norm(coeffs))
        if norm == 0:
            raise ConfigError("perturbation.coefficients: no nonzero "
                              "entries")
        if unit:
            coeffs = coeffs / norm
        return [("explicit", sb.from_coeffs(basis, coeffs))]
    degrees = pcfg.get("degrees", (2, 3, 4))
    count = pcfg.get("directions", 1)
    if count < 1:
        raise ConfigError("perturbation.directions: need at least 1")
    try:
        return lab.sample_directions(basis, seed, count, degrees)
    except ValueError as exc:
        raise ConfigError(f"perturbation.degrees: {exc}") from None


def epsilon_schedule(pcfg, *, default=(0.01,)):
    eps = pcfg.get("epsilon", tuple(default))
    if not eps:
        raise ConfigError("perturbation.epsilon: no amplitude given")
    for e in eps:
        if e < 0:
            raise ConfigError(f"perturbation.epsilon: negative amplitude "
                              f"{e}")
    return eps


# ---------------------------------------------------------------------------
# output plumbing

def resolve_out_path(out):
    if out is None:
        return None
    base = os.environ.get("SFI_OUT_DIR")
    if base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def check_out_path(path, source):
    """Raise ConfigError, naming source (the flag or key that gave the
    path), unless path is None (stdout) or names a file in an existing
    directory, so that an unwritable report path fails before any row
    runs."""
    if path is None:
        return
    if not os.path.basename(path) or os.path.isdir(path):
        raise ConfigError(f"{source}: {path!r} is a directory, not a file")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"{source}: cannot write {path!r}: directory "
                          f"{parent!r} does not exist")


def emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# run context

@dataclass(frozen=True)
class RunContext:
    """Set-up that every command shares, built once per invocation.
    The flags take precedence: --seed over perturbation.seed, --out and
    --format over output.path and output.format. The seed lies in
    [0, 2**64) and the output paths (with --dump-nodes) are writable."""

    sections: dict
    sf: object
    w: object
    rho: float
    basis: object
    grid: object
    seed: int
    cases: list
    out: object
    format: str

    @property
    def perturbation(self):
        return self.sections.get("perturbation", {})


def build_run_context(sections, cases_cfg, args):
    ocfg = sections.get("output", {})
    fmt = args.format or ocfg.get("format", "csv")
    if fmt not in FORMATS:
        raise ConfigError(f"output.format: unknown format {fmt!r}; "
                          f"expected one of {FORMATS}")
    out, out_key = args.out, "--out"
    if out is None:
        out, out_key = ocfg.get("path"), "output.path"
    out = resolve_out_path(out)
    check_out_path(out, out_key)
    if getattr(args, "dump_nodes", None):
        check_out_path(resolve_out_path(args.dump_nodes), "--dump-nodes")
    seed, seed_key = args.seed, "--seed"
    if seed is None:
        seed = sections.get("perturbation", {}).get("seed", 2025)
        seed_key = "perturbation.seed"
    # the direction generator's Philox key is (seed << 64) | stream
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{seed_key}: {seed} is outside [0, 2**64)")
    sf = build_space(sections["space"])
    w = build_weight(sections["weight"])
    rho = sections["space"]["rho"]
    basis, grid = build_basis_grid(sections.get("grid", {}), sf.n,
                                   args.resolution)
    return RunContext(sections=sections, sf=sf, w=w, rho=rho, basis=basis,
                      grid=grid, seed=seed,
                      cases=build_cases(cases_cfg, sf, w, rho),
                      out=out, format=fmt)


# ---------------------------------------------------------------------------
# commands

def cmd_eval(ctx, args):
    sf, w, rho, grid = ctx.sf, ctx.w, ctx.rho, ctx.grid
    pcfg = ctx.perturbation
    directions = build_directions(pcfg, ctx.basis, ctx.seed)
    eps = epsilon_schedule(pcfg)[0] if directions[0][0] != "zero" else 0.0
    graph = gg.RadialGraph(sf=sf, rho=rho, u=directions[0][1].scaled(eps))

    geo = gg.surface_geometry(graph, grid)
    W = dm.quermassintegrals(geo)
    fine = sb.build_grid(grid.n, grid.d_exact + 6)
    geo_fine = gg.surface_geometry(graph, fine)
    vol_err = abs(dm.volume(geo_fine) - W[-1])
    area_err = abs(fine.integrate(geo_fine.area_factor) - W[0])
    convex = geo.convex_flags()

    pairs = [("K", sf.K), ("n", sf.n), ("rho", rho),
             ("weight", w.label), ("direction", directions[0][0]),
             ("epsilon", eps), ("nodes", grid.node_count),
             ("volume", W[-1]), ("weighted_volume", dm.weighted_volume(geo)),
             ("area", W[0])]
    for k in sorted(W):
        pairs.append((f"W_{k}", W[k]))
    for k in range(sf.n + 1):
        pairs.append((f"sigma_int_{k}",
                      grid.integrate(geo.sigma[:, k] * geo.area_factor)))
    for k in range(sf.n + 1):
        pairs.append((f"weighted_sigma_int_{k}",
                      gg.weighted_curvature_integral(geo, w, k)))
    pairs += [("min_radius", float(np.min(geo.r))),
              ("max_radius", float(np.max(geo.r))),
              ("mean_convex", bool(np.all(geo.H > 0))),
              ("convex_fraction", float(np.mean(convex))),
              ("barycenter_displacement",
               float(np.linalg.norm(model.model_vector(
                   sf, dm.barycenter(geo))))),
              ("vol_err", vol_err), ("area_err", area_err),
              ("quad_tol", EVAL_QUAD_TOL)]

    emit(lab.table_text(dict(pairs), ctx.format), ctx.out)
    if args.dump_nodes:
        emit(lab.table_text(gg.node_dump_rows(geo), "csv"),
             resolve_out_path(args.dump_nodes))
    if max(vol_err, area_err) > EVAL_QUAD_TOL:
        print(f"numerical failure: quadrature error "
              f"{max(vol_err, area_err):.3e} exceeds tolerance "
              f"{EVAL_QUAD_TOL:g}", file=sys.stderr)
        return 3
    return 0


def _available_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(tasks, runner, threads):
    """[runner(t) for t in tasks] on W = min(threads, len(tasks), CPUs
    available) worker processes. One worker runs the tasks inline.
    Otherwise the parent forks W times, worker k runs tasks k, k + W,
    k + 2W, ... on the parent's state (copy-on-write) and pickles its
    results into a pipe, and the parent puts them back in task order.

    If tasks raise, the exception of the first of them in task order is
    re-raised with the worker's traceback text as its cause. A worker
    that dies or returns a truncated result raises WorkerFailure; the
    other workers are then killed. Every worker is reaped, also when the
    parent is interrupted. Forking copies only the calling thread, so
    the parent must have no other Python threads when it calls this.
    BLAS threads have not been seen to break a worker: the tests run
    with them unpinned."""
    workers = min(threads, len(tasks), _available_cpus())
    if workers <= 1:
        return [runner(t) for t in tasks]
    pids, fds = [], []
    try:
        for k in range(workers):
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(w)
                raise WorkerFailure(f"cannot fork worker {k}: {exc}") \
                    from None
            if pid == 0:
                _worker_main(w, fds, tasks, k, workers, runner)
            os.close(w)
            pids.append(pid)
        results, raised = [None] * len(tasks), []
        for k in range(workers):
            data = _read_to_eof(fds[k])
            status = os.waitpid(pids[k], 0)[1]
            pids[k] = None
            out = _worker_output(k, data, status,
                                 len(range(k, len(tasks), workers)))
            if out[0] is None:
                results[k::workers] = out[1]
            else:
                raised.append(out)
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
    if raised:
        i, exc, tb = min(raised, key=lambda out: out[0])
        if exc is None:
            raise WorkerFailure(f"task {i} raised an exception that cannot "
                                f"be pickled:\n{tb}")
        raise exc from _WorkerTraceback(tb)
    return results


def _worker_main(fd, read_fds, tasks, start, step, runner):
    """Body of a forked worker: close the read ends read_fds, so that a
    write to fd fails rather than blocks once the parent is gone, write
    the pickled result of tasks start, start + step, ... to fd and leave
    by os._exit, so that the caller's cleanup and inherited buffers never
    run in the worker. The result is (None, results), or (index,
    exception, traceback text) of the first task that raised; the
    exception is None if it does not survive a pickle round trip."""
    status = 1
    try:
        for r in read_fds:
            os.close(r)
        results = []
        for i in range(start, len(tasks), step):
            try:
                results.append(runner(tasks[i]))
            except BaseException as exc:
                tb = traceback.format_exc()
                try:
                    data = pickle.dumps((i, exc, tb))
                    pickle.loads(data)
                except Exception:
                    data = pickle.dumps((i, None, tb))
                break
        else:
            data = pickle.dumps((None, results))
        with open(fd, "wb") as fh:
            fh.write(data)
        status = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _read_to_eof(fd):
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _worker_output(k, data, status, count):
    """The unpickled result of worker k, which ran count tasks."""
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = (f"was killed by signal {-code}" if code < 0
               else f"exited with status {code}")
        raise WorkerFailure(f"worker {k} {how}")
    try:
        out = pickle.loads(data)
    except Exception:
        out = None
    if not (isinstance(out, tuple)
            and (len(out) == 3 or len(out) == 2 and out[0] is None
                 and len(out[1]) == count)):
        raise WorkerFailure(f"worker {k} returned a truncated result "
                            f"({len(data)} bytes)")
    return out


def _verify_rows(ctx, args, pcfg, eps_default, summary=False):
    """Verify every (case, direction, amplitude) row of the perturbation
    spec pcfg; the zero direction is one row with no amplitude. Every
    case runs on the same sampled graphs (one space form and rho), so
    there is one task per (direction, amplitude), which verifies every
    case's row on that graph through lab.verify_rows; the tasks run on
    up to --threads worker processes (see _run_tasks). Each case's rows
    make one lab.SweepResult; with summary, one line per case gives its
    row and failure counts and its empirical constant on stderr.
    Lists the rows that raised, case by case, writes the report of the
    others and returns the exit code: 3 if any row raised, else 1 if
    any failed."""
    if not ctx.cases:
        raise ConfigError("missing required config section [case:<name>]")
    directions = build_directions(pcfg, ctx.basis, ctx.seed)
    eps_list = epsilon_schedule(pcfg, default=eps_default)

    tasks = []
    for did, u0 in directions:
        for eps in [None] if did == "zero" else eps_list:
            u = u0 if eps is None else u0.scaled(eps)
            tasks.append((gg.RadialGraph(sf=ctx.sf, rho=ctx.rho, u=u), did,
                          eps))
    cases = [case for _, case in ctx.cases]

    def run(task):
        graph, did, eps = task
        return lab.verify_rows(cases, graph, ctx.grid, did, eps)

    by_case = zip(*_run_tasks(tasks, run, args.threads))
    reports, failures = [], []
    for (name, case), rows in zip(ctx.cases, by_case, strict=True):
        res = lab.SweepResult.of_rows(case, rows)
        reports += res.reports
        failures += [(name, *f) for f in res.failures]
        if summary:
            emp = res.empirical_constant
            emp = "n/a" if emp is None else format(emp, ".6g")
            print(f"{name}: rows={len(res.reports)} "
                  f"failures={len(res.failures)} "
                  f"min_deficit_over_alpha_sq={emp}", file=sys.stderr)
    for name, did, eps, msg in failures:
        eps_text = "n/a" if eps is None else format(eps, "g")
        print(f"numerical failure: {name}: {did} eps={eps_text} "
              f"error: {msg}", file=sys.stderr)
    emit(lab.report_text(reports, ctx.format), ctx.out)
    if failures:
        return 3
    return 1 if any(r.status == "fail" for r in reports) else 0


def cmd_verify(ctx, args):
    return _verify_rows(ctx, args, ctx.perturbation, (0.01,))


def cmd_sweep(ctx, args):
    """verify over random directions, whatever perturbation.mode says:
    lab.sweep's directions and amplitudes unless configured, with one
    summary line per case."""
    pcfg = {"directions": lab.SWEEP_DIRECTIONS, **ctx.perturbation,
            "mode": "random"}
    return _verify_rows(ctx, args, pcfg, lab.SWEEP_AMPLITUDES, summary=True)


EXPAND_COLUMNS = ("target", "weight_kind", "K", "n", "rho", "constraint",
                  "direction_id", "c0_fit", "c1_fit", "c2_fit", "c0_closed",
                  "c1_closed", "c2_closed", "rel_c0", "rel_c1", "rel_c2",
                  "residual_slope", "condition_number")


def cmd_expand(ctx, args):
    pcfg = ctx.perturbation
    try:
        eps_list = lab.expansion_amplitudes(pcfg.get("epsilon", ()))
    except ValueError as exc:
        raise ConfigError(f"perturbation.epsilon: {exc}") from None
    if not ctx.cases:
        raise ConfigError("missing required config section [case:<name>]")
    directions = build_directions(pcfg, ctx.basis, ctx.seed, unit=True)

    def run(task):
        case, did, u0 = task
        rep = lab.expansion_oracle(
            ctx.sf, ctx.w, case.k, case.constraint().label, u0, eps_list,
            ctx.grid, rho=case.rho)
        target = "H" if case.family.target == "H" else rep.target_id
        cells = [target, rep.weight_kind, rep.K, rep.n, rep.rho,
                 rep.constraint, did, *rep.fitted, *rep.closed,
                 *rep.rel_errors, rep.residual_slope, rep.condition_number]
        return dict(zip(EXPAND_COLUMNS, cells))

    rows = _run_tasks([(case, did, u0) for _, case in ctx.cases
                       for did, u0 in directions], run, args.threads)
    emit(lab.table_text(rows, ctx.format), ctx.out)
    return 0


# ---------------------------------------------------------------------------
# entry point

def parse_args(argv):
    top = argparse.ArgumentParser(
        prog="sfi",
        description="curvature-integral comparisons for nearly spherical "
                    "hypersurfaces in space forms")
    sub = top.add_subparsers(dest="command", required=True)
    for name, doc in (("eval", "domain functionals of one graph"),
                      ("verify", "deficit-report rows per case"),
                      ("expand", "expansion-coefficient fit table"),
                      ("sweep", "randomized verification sweeps")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", help="output file (default: output.path, "
                                     "else stdout)")
        p.add_argument("--format", choices=FORMATS)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None,
                       help="override perturbation.seed")
        p.add_argument("--resolution", type=int, default=None,
                       help="override grid.resolution")
        if name == "eval":
            p.add_argument("--dump-nodes", metavar="PATH",
                           help="write per-node curvature CSV to PATH")
    return top.parse_args(argv)


COMMANDS = {"eval": cmd_eval, "verify": cmd_verify, "expand": cmd_expand,
            "sweep": cmd_sweep}


def main(argv=None):
    args = parse_args(argv)
    if args.threads < 1:
        print("config error: --threads must be at least 1", file=sys.stderr)
        return 2
    if args.threads > 1 and not hasattr(os, "fork"):
        print("config error: --threads above 1 needs os.fork, which this "
              "platform lacks", file=sys.stderr)
        return 2
    try:
        sections, cases = load_config(args.config)
        ctx = build_run_context(sections, cases, args)
        return COMMANDS[args.command](ctx, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except lab.NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except WorkerFailure as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
