#!/usr/bin/env python3
"""Sensitivity of the bundled case study to the zeroing mode.

Prints incidence degrees, superiority degrees, and the resulting ranking for
every zeroing mode, next to the reference values tabulated in the source
material. Output feeds the sensitivity table in the README.
"""

from greyrisk import RiskLevel, RunConfig, ZeroingMode, run_assessment
from greyrisk.pipeline import load_bundled_case

REFERENCE = {
    "area1": (0.89, 0.97, 0.46),
    "area2": (0.92, 0.93, 0.50),
    "area3": (0.96, 0.89, 0.54),
}


def main() -> None:
    inp = load_bundled_case()
    print(f"{'mode':14s} {'area':7s} {'g+':>7s} {'g-':>7s} {'s':>7s} "
          f"{'rank':>4s} {'level':12s} {'dev(g+)':>8s} {'dev(g-)':>8s}")
    for mode in ZeroingMode:
        res = run_assessment(inp, RunConfig(zeroing_mode=mode)).result
        rows = zip(res.names, res.gamma_pos.tolist(), res.gamma_neg.tolist(),
                   res.superiority.tolist(), res.rank.tolist(), res.level.tolist())
        for name, gp, gn, s, rank, level in sorted(rows, key=lambda r: r[0]):
            ref_gp, ref_gn, _ = REFERENCE[name]
            print(f"{mode.value:14s} {name:7s} {gp:7.4f} {gn:7.4f} {s:7.4f} {rank:4d} "
                  f"{RiskLevel(level).label:12s} {gp - ref_gp:+8.4f} {gn - ref_gn:+8.4f}")
        ranking = " > ".join(res.names)
        print(f"{'':14s} ranking: {ranking}\n")
    print("reference: g+ = (0.89, 0.92, 0.96), g- = (0.97, 0.93, 0.89), "
          "s = (0.46, 0.50, 0.54), ranking area3 > area2 > area1, all medium")


if __name__ == "__main__":
    main()
