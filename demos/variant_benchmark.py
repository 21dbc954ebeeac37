# -*- coding: utf-8 -*-
"""
===========================================
Full versus small variant: speed and memory
===========================================

Benchmark the two published configurations on white noise of a few
lengths and print the side-by-side table the `manner bench` command
produces. The small variant keeps multi-view attention only at the
deepest layer, trading a little capacity for a speedup that grows with
input length.
"""

from manner import ModelConfig, build_model, num_params
from manner.bench import format_table, run_bench

################################################################################
# Each measurement is the median of three forward passes after one
# untimed warmup; memory is the high-water mark of live tensor bytes
# during the pass.

lengths = [1, 2, 4]
reports = []
for variant in ("full", "small"):
    params = build_model(ModelConfig(variant=variant).validate(), seed=0)
    print(f"{variant}: {num_params(params):,} parameters")
    reports.append(run_bench(params, lengths, runs=3, seed=0))

print()
print(format_table(reports))
