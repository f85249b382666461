"""Command-line front end: CSV in, coefficient table out, optional JSON."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import warnings

import numpy as np
from scipy.special import ndtr

from ivqr.estimate import DEFAULT_SEED, fit
from ivqr.exceptions import EstimationError
from ivqr.model import build_problem

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _comma_list(text: str) -> list[str]:
    items = [t.strip() for t in text.split(",")]
    return [t for t in items if t]


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(t) for t in _comma_list(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers: {exc}")


def parse_args(argv) -> argparse.Namespace:
    """Parse and check the command line; a conflicting combination raises ValueError."""
    parser = argparse.ArgumentParser(
        prog="ivqr",
        description="Instrumental-variables quantile regression via smoothed estimating equations.",
    )
    parser.add_argument("--data", required=True, help="input CSV file with a header row")
    parser.add_argument("--y", required=True, help="dependent-variable column")
    parser.add_argument("--exog", type=_comma_list, default=[], help="comma-separated exogenous regressor columns")
    parser.add_argument("--endog", type=_comma_list, default=[], help="comma-separated endogenous regressor columns")
    parser.add_argument("--iv", type=_comma_list, default=[], help="comma-separated excluded instrument columns")
    parser.add_argument("--weight", default=None, help="observation-weight column")
    parser.add_argument("--quantile", type=float, required=True,
                        help="quantile, either in (0,1) or as a percentile in [1,100)")
    parser.add_argument("--bandwidth", type=float, default=None,
                        help="manual smoothing bandwidth; 0 requests the smallest feasible one")
    parser.add_argument("--level", type=float, default=95.0, help="confidence level in percent")
    parser.add_argument("--reps", type=int, default=0,
                        help="Bayesian-bootstrap replications (0 = analytic standard errors)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="bootstrap RNG seed")
    parser.add_argument("--noconstant", action="store_true", help="suppress the intercept")
    parser.add_argument("--nodots", action="store_true", help="suppress bootstrap progress dots")
    parser.add_argument("--log-iterations", action="store_true",
                        help="print one solver line per Newton step to stderr")
    parser.add_argument("--initial", type=_comma_floats, default=None,
                        help="comma-separated starting values for the solver; they change "
                        "neither the bandwidth nor the estimate beyond solver tolerance")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write results as JSON to this path")
    args = parser.parse_args(argv)
    if not args.endog or not args.iv:
        raise ValueError(
            "at least one endogenous regressor and one excluded instrument are "
            "required (--endog and --iv)"
        )
    if not 0.0 < args.level < 100.0:
        raise ValueError(f"--level must lie strictly between 0 and 100, got {args.level}")
    if args.reps < 0:
        raise ValueError("--reps cannot be negative")
    if args.reps == 1:
        raise ValueError("--reps must be 0 (analytic standard errors) or at least 2")
    if args.reps > 0 and args.seed < 0:
        raise ValueError(f"--seed must be non-negative with --reps, got {args.seed}")
    if args.bandwidth is not None and (not np.isfinite(args.bandwidth) or args.bandwidth < 0):
        raise ValueError("--bandwidth must be a finite nonnegative number")
    for flag in ("exog", "endog", "iv"):
        if args.y in getattr(args, flag):
            raise ValueError(f"the --y column {args.y!r} is also listed under --{flag}")
    overlap = set(args.exog) & set(args.endog)
    if overlap:
        raise ValueError(f"columns listed as both exogenous and endogenous: {sorted(overlap)}")
    bad_iv = set(args.iv) & set(args.endog)
    if bad_iv:
        raise ValueError(f"columns listed as both endogenous and instrument: {sorted(bad_iv)}")
    # exogenous regressors instrument themselves, so listing one under
    # --iv as well is redundant but harmless
    args.iv = [c for c in args.iv if c not in set(args.exog)]
    if not args.iv:
        raise ValueError("every instrument duplicates an exogenous regressor")
    return args


def ingest_csv(config: argparse.Namespace):
    """Read the referenced columns; empty cells mark missing values.

    Returns (problem, coefficient names, number of dropped rows).  Rows with
    any missing cell among the referenced columns are dropped listwise by
    the problem builder; unparseable cells raise with their row and column.

    The data rows are parsed in one ``np.loadtxt`` call.  Input it rejects
    is parsed again by ``np.loadtxt`` with ``float`` on every cell and an
    empty cell read as NaN.  Input that pass rejects too (a short row, text
    that is not a number), or that holds a row with every cell blank, is read
    cell by cell, which skips blank rows and names a bad cell.
    """
    cols = [config.y] + config.endog + config.exog + config.iv
    if config.weight:
        cols.append(config.weight)
    with open(config.data, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{config.data} is empty")
        header = [h.strip() for h in header]
        missing = [c for c in dict.fromkeys(cols) if c not in header]
        if missing:
            raise ValueError(f"columns not found in {config.data}: {missing}")
        usecols = [header.index(c) for c in cols]
        table = _load_rows(fh, usecols, None)
        if table is None:
            _rewind(fh)
            table = _load_rows(fh, usecols, _cell_or_nan)
            # cell by cell, a row of blank cells is skipped, not read as NaN
            if table is None or np.isnan(table).all(axis=1).any():
                table = _parse_cells(_rewind(fh), cols, usecols, config.data)
    if table.shape[0] == 0:
        raise ValueError(f"{config.data} has a header but no observations")
    # the table's columns follow cols: y, endogenous, exogenous, instruments, weight
    block = lambda names, start: table[:, start:start + len(names)] if names else None
    n_endog, n_exog = len(config.endog), len(config.exog)
    prob = build_problem(
        table[:, 0],
        raw_exog=block(config.exog, 1 + n_endog),
        raw_endog=block(config.endog, 1),
        raw_instr=block(config.iv, 1 + n_endog + n_exog),
        weights=table[:, -1] if config.weight else None,
        quantile=config.quantile,
        add_constant=not config.noconstant,
    )
    names = list(config.endog) + list(config.exog)
    if not config.noconstant:
        names.append("_cons")
    return prob, names, table.shape[0] - prob.n


def _load_rows(fh, usecols, converters):
    """The data rows of the referenced columns as one float table, or None
    when ``np.loadtxt`` rejects them."""
    try:
        with warnings.catch_warnings():
            # a file without data rows is reported by the caller, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', usecols=usecols,
                              ndmin=2, dtype=float, converters=converters)
    except ValueError:
        return None


def _cell_or_nan(cell):
    """A cell as ``float`` reads it, or NaN when it is blank."""
    cell = cell.strip()
    return float(cell) if cell else np.nan


def _rewind(fh):
    """Move ``fh`` to its first data row; a CSV reader that starts there."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    return reader


def _parse_cells(reader, cols, usecols, path):
    """Cell-by-cell read of the data rows into an (n, len(cols)) table.

    Blank rows are skipped; an empty or absent cell becomes NaN, and any
    other cell that ``float`` rejects raises with its line and column.
    """
    rows = []
    for i, row in enumerate(reader, start=2):  # line 1 is the header
        if not row or all(not cell.strip() for cell in row):
            continue
        values = []
        for c, j in zip(cols, usecols):
            cell = row[j].strip() if j < len(row) else ""
            if cell == "":
                values.append(np.nan)
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"unparseable value {cell!r} at line {i}, column {c!r} of {path}"
                )
        rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, len(cols))


def _make_progress(out):
    """Bootstrap progress dots, fifty per line with a running count."""

    def dot(r):
        out.write(".")
        if (r + 1) % 50 == 0:
            out.write(f"    {r + 1}\n")
        out.flush()

    return dot


def render_table(result, tau, names, out):
    level_pct = result.level * 100.0
    out.write(
        f"smoothed IV quantile regression        quantile = {tau:.4g}        obs = {result.n_obs}\n"
    )
    out.write(
        f"bandwidth used = {result.bandwidth.h_used:.6g} "
        f"(requested {result.bandwidth.h_requested:.6g})\n"
    )
    vce = "Robust" if result.vcov_kind == "analytic" else "Bootstrap"
    out.write(f"vce: {vce}\n")
    if result.bandwidth.escalated_past_max:
        out.write(
            "warning: bandwidth escalated above the largest plug-in candidate "
            f"({result.bandwidth.h_used:.6g} > {result.bandwidth.h_max:.6g}); "
            "instruments may be weak - inspect the first stage\n"
        )
    out.write("\n")
    name_w = max(12, max(len(n) for n in names) + 1)
    out.write(
        f"{'':<{name_w}}{'coef':>12}{'std err':>12}{'z':>9}{'P>|z|':>9}"
        f"{f'[{level_pct:g}% conf. int.]':>26}\n"
    )
    out.write("-" * (name_w + 68) + "\n")
    se, ci = result.se, result.ci
    for j, name in enumerate(names):
        b = result.beta[j]
        s = se[j]
        z = b / s if s > 0 else np.inf * np.sign(b)
        pval = 2.0 * (1.0 - ndtr(abs(z)))
        out.write(
            f"{name:<{name_w}}{b:>12.6g}{s:>12.6g}{z:>9.2f}{pval:>9.3f}"
            f"{ci[j, 0]:>13.6g}{ci[j, 1]:>13.6g}\n"
        )


def results_json(result, tau, names, config: argparse.Namespace) -> dict:
    """JSON document mirroring the stored results (full float precision)."""
    bw = result.bandwidth
    return {
        "b": [float(b) for b in result.beta],
        "V": [[float(v) for v in row] for row in result.cov],
        "se": [float(s) for s in result.se],
        "ci": [[float(lo), float(hi)] for lo, hi in result.ci],
        "names": names,
        "bwidth": float(bw.h_used),
        "bwidth_req": float(bw.h_requested),
        "bwidth_max": float(bw.h_max) if bw.h_max is not None else None,
        "N": int(result.n_obs),
        "reps": int(config.reps),
        "q": float(tau),
        "level": float(config.level),
        "vcetype": "Robust" if result.vcov_kind == "analytic" else "Bootstrap",
        "seed": int(config.seed),
    }


def run_estimation(config: argparse.Namespace, out=None, err=None):
    """Full pipeline: ingest, estimate, render, optionally dump JSON."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    prob, names, n_dropped = ingest_csv(config)
    if n_dropped:
        out.write(f"note: dropped {n_dropped} row(s) with missing values\n")
    if config.initial is not None and len(config.initial) != prob.p:
        raise ValueError(
            f"--initial supplies {len(config.initial)} values but the model has {prob.p} coefficients"
        )
    progress = None
    if config.reps > 0 and not config.nodots:
        progress = _make_progress(out)
    solver_log = logging.getLogger("ivqr.solver")
    log_level = solver_log.level
    handler = logging.StreamHandler(err)
    if config.log_iterations:
        solver_log.addHandler(handler)
        solver_log.setLevel(logging.DEBUG)
    try:
        result = fit(
            prob,
            bandwidth=config.bandwidth,
            level=config.level / 100.0,
            reps=config.reps,
            seed=config.seed,
            beta_init=config.initial,
            progress=progress,
        )
    finally:
        solver_log.removeHandler(handler)
        solver_log.setLevel(log_level)
    if progress is not None and config.reps % 50 != 0:
        out.write("\n")
    render_table(result, prob.tau, names, out)
    if config.json_path:
        doc = results_json(result, prob.tau, names, config)
        with open(config.json_path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return result


def main(argv=None) -> int:
    try:
        run_estimation(parse_args(argv))
    except SystemExit as exc:
        # argparse already printed a usage message
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    except (ValueError, OSError, EstimationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC if isinstance(exc, EstimationError) else EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
