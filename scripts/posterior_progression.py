#!/usr/bin/env python3
"""Export the posterior narrowing with pulse number at a fixed true phase.

Simulates one long run at a chosen phase and writes the accumulated
posterior density after p = 1, 10, 100, 1000, ... pulses, one CSV per
checkpoint (phi in radians, full grid resolution). The sequence shows the
root-p collapse of the phase uncertainty toward the Cramer-Rao bound.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from mzbayes.photon_model import InterferometerModel
from mzbayes.posterior import (
    PhaseGrid,
    Posterior,
    credible_interval,
    ideal_likelihood,
    posterior_mean,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--theta-pi", type=float, default=0.24,
                        help="true phase in units of pi")
    parser.add_argument("--nbar", type=float, default=1.08)
    parser.add_argument("--checkpoints", type=int, nargs="+",
                        default=[1, 10, 100, 1000])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", default="posterior_progression")
    args = parser.parse_args(argv)

    theta = args.theta_pi * math.pi
    model = InterferometerModel(nbar=args.nbar)
    likelihood = ideal_likelihood(PhaseGrid())
    rng = np.random.default_rng(args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # One draw for the longest run: port c then port d, pulse after pulse.
    max_p = max(args.checkpoints)
    counts = rng.poisson(np.tile(model.output_means(theta), max_p)).reshape(max_p, 2)
    for p in sorted(args.checkpoints):
        log_density = likelihood.on_grid(counts[:p].sum(axis=0))
        post = Posterior.from_log_density(likelihood.grid, log_density)
        mean = posterior_mean(post)
        dtheta = credible_interval(post)
        path = out_dir / f"posterior_p{p}.csv"
        path.write_text(post.to_csv(), newline="")
        print(f"p={p:>6d}  mean={mean:.5f} rad  dtheta={dtheta:.5f} rad  "
              f"sqrt(p)*dtheta={math.sqrt(p) * dtheta:.4f}  -> {path}")
    print(f"true phase {theta:.5f} rad; CRLB level 1/sqrt(nbar) = "
          f"{1 / math.sqrt(args.nbar):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
