"""Generate a small endogenous-wage CSV for trying out the command-line tool.

Schooling (``educ``) is endogenous: an unobserved ability term raises both
schooling and wages.  Distance to the nearest college (``dist``) shifts
schooling but not wages directly, so it serves as the excluded instrument.
``age`` is an exogenous control and ``wgt`` a sampling weight.

Example:

    python3 scripts/make_example_data.py --n 500 --out wages.csv
    python3 -m ivqr.cli --data wages.csv --y wage --endog educ --exog age \
        --iv dist --quantile 0.5
"""

import argparse
import csv
import sys

import numpy as np

# rows written per batch: the columns are converted to Python lists this
# many rows at a time, so the lists never hold more than this many rows
CHUNK_ROWS = 8192


def make_columns(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dist = rng.uniform(0.0, 10.0, size=n)
    ability = rng.standard_normal(n)
    educ = 14.0 - 0.4 * dist + 1.2 * ability + 0.8 * rng.standard_normal(n)
    age = rng.integers(25, 60, size=n).astype(float)
    wage = 1.0 + 0.3 * educ + 0.02 * age + ability + 0.5 * rng.standard_normal(n)
    wgt = rng.uniform(0.5, 2.0, size=n)
    return {"wage": wage, "educ": educ, "age": age, "dist": dist, "wgt": wgt}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=500, help="number of observations")
    parser.add_argument("--seed", type=int, default=33, help="RNG seed")
    parser.add_argument("--out", default="wages.csv", help="output CSV path")
    args = parser.parse_args(argv)

    cols = make_columns(args.n, args.seed)
    names = list(cols)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for start in range(0, args.n, CHUNK_ROWS):
            writer.writerows(zip(*(col[start:start + CHUNK_ROWS].tolist()
                                   for col in cols.values())))
    print(f"wrote {args.out} ({args.n} rows: {', '.join(names)})")
    print("try: python3 -m ivqr.cli --data", args.out,
          "--y wage --endog educ --exog age --iv dist --quantile 0.5")
    return 0


if __name__ == "__main__":
    sys.exit(main())
