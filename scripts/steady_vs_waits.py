#!/usr/bin/env python3
"""Steady polarization versus the inter-block wait t_s.

Sweeps t_s through two nuclear periods for several pulse numbers at fixed
tau = pi/omega, with both engines, and writes one CSV per pulse number.
The steady value flips sign each time the control angle crosses a half
integer of pi, and the crossings sharpen as n_p grows.
"""

import argparse
import math
from pathlib import Path

from hyperpol.params import SequenceParams, SystemParams
from hyperpol.sweep import Axis, SweepSpec, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results/steady_vs_waits")
    parser.add_argument("--a-perp", type=float, default=0.1)
    parser.add_argument("--waits", type=float, default=0.5,
                        help="t_w = t_c in units of pi/omega")
    parser.add_argument("--points", type=int, default=81)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sys_p = SystemParams(omega=1.0, a_perp=args.a_perp)
    for n_p in (2, 4, 8, 12, 16):
        base = SequenceParams(n_p=n_p, tau=math.pi,
                              t_s=0.0, t_w=args.waits * math.pi,
                              t_c=args.waits * math.pi, n_r=1)
        spec = SweepSpec(
            target="stable_polarization",
            axes=(Axis("t_s", 0.0, 2 * math.pi, args.points),),
            base_system=sys_p,
            base_sequence=base,
            engine="both",
        )
        table = run_sweep(spec)
        path = out_dir / f"steady_np{n_p}.csv"
        table.write(path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
