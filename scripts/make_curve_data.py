#!/usr/bin/env python3
"""Generate the single-parameter curve data for every built-in family.

Writes one CSV per family into the output directory (default ./curves):
noise sweeps over [0, 1] for the three- and four-qubit families and a
gamma sweep over [2, 10] for the Kay family. `lqu random` prints the
seeded random-state demonstration.
"""

import argparse
import pathlib

from lqu.cli import main as lqu_main

SWEEPS = [
    ("ghz3", "0", "1", "101"),
    ("w3", "0", "1", "101"),
    ("kay", "2", "10", "81"),
    ("ghz4", "0", "1", "101"),
    ("w4", "0", "1", "101"),
    ("dicke24", "0", "1", "101"),
    ("singlet4", "0", "1", "101"),
    ("cluster4", "0", "1", "101"),
    ("chi4", "0", "1", "101"),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="curves", help="directory for the CSVs")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for family, lo, hi, steps in SWEEPS:
        out = outdir / f"{family}.csv"
        code = lqu_main(["sweep", "--family", family, "--from", lo, "--to", hi,
                         "--steps", steps, "--out", str(out)])
        if code != 0:
            raise SystemExit(code)
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
