#!/usr/bin/env python3
"""Figure data: normal QQ points and Gaussian-kernel density curves for the
replicated deviations, plus the on-disk report bundle.

No plots are drawn here; the arrays are two-column and drop straight into
any plotting tool (`plt.plot(q[:, 0], q[:, 1], '.')`).
"""

import tempfile
from pathlib import Path

import numpy as np

from momest import (LawSpec, SimulationConfig, parzen_density, qq_plot_data,
                    run_simulation, silverman_bandwidth, write_report)

law = LawSpec.gamma(2.0, 3.0)
cfg = SimulationConfig(law=law, n=300, replications=2000, master_seed=1789)
report = run_simulation(cfg)

dev = report.dev_a / np.std(report.dev_a, ddof=1)
qq = qq_plot_data(dev)
corr = float(np.corrcoef(qq[:, 0], qq[:, 1])[0, 1])
print(f"{law}, n={cfg.n}, B={cfg.replications}")
print(f"QQ points for the standardized a-deviations: {qq.shape[0]} pairs, "
      f"correlation with the diagonal {corr:.5f}")

bw = silverman_bandwidth(dev)
curve = parzen_density(dev, -4.0, 4.0, 201)
peak = curve[np.argmax(curve[:, 1])]
print(f"kernel density: bandwidth {bw:.4f}, "
      f"peak {peak[1]:.4f} at x={peak[0]:+.3f} "
      f"(standard normal peaks at 0.3989 at 0)")

with tempfile.TemporaryDirectory(prefix="momest-demo-") as tmp:
    outdir = Path(tmp)
    paths = write_report(report, outdir)
    print(f"\nreport bundle written to {outdir}:")
    for p in paths:
        print(f"  {p.name}")
print("\nqq_*.csv and parzen_*.csv are the two-column figure files; "
      "report.json carries the full summary.")
