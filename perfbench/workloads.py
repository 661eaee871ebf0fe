"""The benchmark's three workloads, their inputs and their correctness gate.

Every workload is a closed loop with one client: the next work item starts
when the previous one has returned. Items are numbered from 0, and item i
draws its directions from ``sample_direction`` with a seed derived from the
run's seed and i (``item_seed``), so one run seed fixes every input.

All workloads share the grid of acceptance criteria 4 and 7: n = 3,
basis degree 8, resolution ``default_resolution(8)`` = 24 (4225 nodes,
285 basis functions, 495 monomials).

* ``sweep-hyperbolic``: ``lab.sweep`` on ``sigmak-quermass-hyperbolic``
  (K = -1, rho = 0.9) over every admissible (k, j) and the four default
  weights, one direction per case at eps 0.003 and 0.01, single-threaded.
  This is criterion 7's traffic, dominated by normalization (hyperbolic
  barycenter, ray shooting) and Fraenkel asymmetry; constant-weight cases
  take the hypothesis_unmet path.
* ``cli-euclidean-t2``: ``cli.main(["sweep", "--threads", "2", ...])`` in
  process on a K = 0, rho = 1.0 config with H-volume and
  sigmak-quermass-euclidean at k = 2, j in {-1, 0, 1}. It is the only
  workload that runs the command line (config parsing, per-invocation
  basis and grid set-up, the thread pool, CSV emission) and
  ``lab.equality_function``; its flat model makes the barycenter cheap,
  so it is the control for barycenter and hyperbolic-model work.
* ``expand``: ``lab.expansion_oracle`` over K in {-1, 0, 1} and
  k in 0..3 with the affine weight and 6 amplitudes, directions on
  degrees 0..4 as in criterion 4. It runs only jets and geometry, so it is
  the target for that work and the control for normalization and
  asymmetry work.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from sfi import cli
from sfi import lab
from sfi import spherebasis as sb
from sfi.spaceform import SpaceForm, WeightFunction, default_weight_set

N = 3
BASIS_DEGREE = 8

# Relative quadrature floor of criterion 7's row rule.
REL_TOL_FLOOR = 1e-11
# Coefficient accuracy every expansion fit must reach (criterion 4).
FIT_REL_TOL = 1e-4


def item_seed(seed, i):
    """Seed of work item i: disjoint across run seeds for i < 100000."""
    return int(seed) * 100_000 + int(i)


@dataclass
class Outcome:
    """What one work item produced: rows completed, rows attempted, rows
    that raised or went missing, rows with a wrong verdict, and the item's
    report text (for the rerun digest)."""

    rows: int
    attempted: int
    failed: int
    wrong: int
    report: str


# ---------------------------------------------------------------------------
# correctness gate

def row_ok(status, deficit, bound, err_quad, lhs, expect_unmet=False):
    """Criterion 7's row rule.

    A row whose case misses a hypothesis by construction must be
    ``hypothesis_unmet``; every other row must be ``pass`` with
    deficit >= bound - max(err_quad, 1e-11 max(1, |lhs|)), where a
    validity row has bound 0.
    """
    if expect_unmet:
        return status == "hypothesis_unmet"
    tol = max(err_quad, REL_TOL_FLOOR * max(1.0, abs(lhs)))
    return status == "pass" and deficit >= (bound or 0.0) - tol


def gate_reports(reports, attempted, expect_unmet=False):
    """(failed, wrong) for the DeficitReports of one item: rows missing
    from the attempted count are failed, rows breaking row_ok are wrong."""
    wrong = sum(not row_ok(r.status, r.deficit, r.bound, r.err_quad, r.lhs,
                           expect_unmet) for r in reports)
    return max(attempted - len(reports), 0), wrong


def gate_csv(text, attempted):
    """(failed, wrong) for a sweep CSV report; same rule as gate_reports,
    read back from the emitted cells."""
    rows = list(csv.DictReader(io.StringIO(text)))
    wrong = 0
    for row in rows:
        try:
            ok = row_ok(row["pass"], float(row["deficit"]),
                        float(row["bound"]) if row["bound"] else None,
                        float(row["err_quad"]), float(row["lhs"]))
        except (KeyError, ValueError):
            ok = False
        wrong += not ok
    return max(attempted - len(rows), 0), wrong


def fit_ok(rep):
    """An expansion fit is right when every coefficient matches its
    closed form to FIT_REL_TOL."""
    return bool(rep.max_rel_error < FIT_REL_TOL)


def fit_text(rep):
    """Fixed-format record of one expansion fit, all digits kept."""
    return json.dumps({"target": rep.target_id, "K": rep.K, "rho": rep.rho,
                       "fitted": rep.fitted, "closed": rep.closed,
                       "rel_errors": rep.rel_errors,
                       "residual_slope": rep.residual_slope,
                       "condition_number": rep.condition_number}) + "\n"


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Shared set-up: the basis and grid every workload runs on."""

    name = ""
    rows_per_item = 1
    threads = 1

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.basis = self.grid = None

    def setup(self):
        self.basis = sb.build_basis(N, BASIS_DEGREE)
        self.grid = sb.build_grid(N, sb.default_resolution(BASIS_DEGREE))

    def warmup(self):
        """One row, which fills the package's grid-keyed caches."""
        raise NotImplementedError

    def run(self, i):
        """Run work item i and return its Outcome."""
        raise NotImplementedError


class SweepHyperbolic(Workload):
    name = "sweep-hyperbolic"
    EPS = (0.003, 0.01)
    rows_per_item = len(EPS)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        sf = SpaceForm(K=-1, n=N)
        self.cases = [lab.TheoremCase("sigmak-quermass-hyperbolic", sf, w,
                                      k=k, j=j, rho=0.9)
                      for k in range(N) for j in range(-1, k)
                      for w in default_weight_set()]

    def warmup(self):
        lab.sweep(self.cases[0], self.grid, self.basis, directions=1,
                  eps_schedule=self.EPS[:1], seed=self.seed)

    def run(self, i):
        case = self.cases[i % len(self.cases)]
        sw = lab.sweep(case, self.grid, self.basis, directions=1,
                       eps_schedule=self.EPS, seed=item_seed(self.seed, i))
        # constant weights miss the monotonicity the hyperbolic stability
        # statement requires, so those rows must all be hypothesis_unmet
        failed, wrong = gate_reports(sw.reports, self.rows_per_item,
                                     expect_unmet=case.w.kind == "constant")
        return Outcome(len(sw.reports), self.rows_per_item, failed, wrong,
                       lab.csv_text(sw.reports))


CLI_CONFIG = """\
[space]
K = 0
n = 3
rho = 1.0

[grid]
basis_degree = 8

[weight]
kind = affine

[perturbation]
mode = random
degrees = 2, 3, 4
directions = {directions}
epsilon = {epsilon}
"""

CLI_CASES = ["[case:H-volume]\ntheorem = H-volume\n"] + [
    f"[case:quermass-k2-j{j}]\ntheorem = sigmak-quermass-euclidean\n"
    f"k = 2\nj = {j}\n" for j in (-1, 0, 1)]


def cli_config(cases, directions, eps):
    """INI text of an `sfi sweep` run over the given case sections."""
    head = CLI_CONFIG.format(directions=directions,
                             epsilon=", ".join(str(e) for e in eps))
    return "\n".join([head, *cases])


class CliEuclidean(Workload):
    name = "cli-euclidean-t2"
    threads = 2
    DIRECTIONS = 2
    EPS = (0.003, 0.01)
    rows_per_item = len(CLI_CASES) * DIRECTIONS * len(EPS)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.config = os.path.join(out_dir, "cli-euclidean.ini")
        self.warm_config = os.path.join(out_dir, "cli-euclidean-warm.ini")
        self.out = os.path.join(out_dir, "cli-euclidean.csv")
        with open(self.config, "w") as fh:
            fh.write(cli_config(CLI_CASES, self.DIRECTIONS, self.EPS))
        with open(self.warm_config, "w") as fh:
            fh.write(cli_config(CLI_CASES[:1], 1, self.EPS[:1]))

    def _sweep(self, config, seed):
        """Run `sfi sweep` in process; returns its CSV text, "" if none."""
        if os.path.exists(self.out):
            os.remove(self.out)
        cli.main(["sweep", "--config", config, "--out", self.out,
                  "--threads", str(self.threads), "--seed", str(seed)])
        if not os.path.exists(self.out):
            return ""
        with open(self.out) as fh:
            return fh.read()

    def warmup(self):
        self._sweep(self.warm_config, self.seed)

    def run(self, i):
        # `sfi sweep` reports rows that raise on stderr and still exits 0,
        # so failures are counted from rows missing in the CSV
        text = self._sweep(self.config, item_seed(self.seed, i))
        failed, wrong = gate_csv(text, self.rows_per_item)
        rows = self.rows_per_item - failed
        return Outcome(rows, self.rows_per_item, failed, wrong, text)


class Expand(Workload):
    name = "expand"
    RHO = {-1: 0.9, 0: 1.0, 1: 0.8}
    EPS = tuple(np.geomspace(2e-3, 2e-2, 6))
    DEGREES = (0, 1, 2, 3, 4)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.weight = WeightFunction.affine()
        self.cases = [(SpaceForm(K=K, n=N), k) for K in (-1, 0, 1)
                      for k in range(N + 1)]

    def _fit(self, i, seed):
        sf, k = self.cases[i % len(self.cases)]
        u0 = lab.sample_direction(self.basis, seed, 0, degrees=self.DEGREES)
        return lab.expansion_oracle(sf, self.weight, k, "volume", u0,
                                    self.EPS, self.grid, rho=self.RHO[sf.K])

    def warmup(self):
        self._fit(0, self.seed)

    def run(self, i):
        rep = self._fit(i, item_seed(self.seed, i))
        return Outcome(1, 1, 0, int(not fit_ok(rep)), fit_text(rep))


WORKLOADS = {w.name: w for w in (SweepHyperbolic, CliEuclidean, Expand)}
