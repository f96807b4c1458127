#!/usr/bin/env python3
"""Print the per-channel scheme ranking at a chosen noise strength.

Damping channels are evaluated at a rate eta, collective channels at an
angle theta (radians); pass --include-w to rank the W state alongside the
schemes that have closed forms.
"""

import argparse

from decoynoise.analysis import recommend
from decoynoise.channels import FAMILIES, family_tag
from decoynoise.fidelity import TABLE_SCHEMES
from decoynoise.states import WState, scheme_label


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eta", type=float, default=0.3, help="damping rate for ad/pd")
    parser.add_argument("--angle", type=float, default=0.7, help="angle for cd/cr (radians)")
    parser.add_argument("--include-w", action="store_true")
    args = parser.parse_args()

    schemes = TABLE_SCHEMES + ((WState(),) if args.include_w else ())
    for tag, family in FAMILIES.items():
        value = args.eta if tag in ("ad", "pd") else args.angle
        ranking = recommend(family(value), schemes)
        print(f"{family_tag(family)} @ {value:g}")
        for group in ranking.ties:
            fidelities = dict(ranking.ordered)
            joined = ", ".join(scheme_label(s) for s in group)
            print(f"  {fidelities[group[0]]:.6f}  {joined}")


if __name__ == "__main__":
    main()
