"""Benchmark for Fig. 20: stability-experiment cutoff-fidelity study.

Paper scale: a d = 5 patch, bad-qubit two-qubit error rates of 5-15%, good
qubit error rates swept from 0.1% to 0.9%.  Laptop scale: a width-4 stability
patch (the all-Z-boundary construction needs an even width - see
"Scale mapping" in the README), two bad-qubit rates and a coarse sweep.  The reproduced
shape: for a sufficiently bad qubit, disabling it and forming
super-stabilizers gives a lower stability failure rate than keeping it.
"""

from repro.experiments.paper import figure20_cutoff

from conftest import print_series


def test_fig20_keep_vs_disable(benchmark, benchmark_seed):
    def run():
        return figure20_cutoff(
            size=4,
            rounds=4,
            physical_error_rates=(0.003, 0.006),
            bad_qubit_error_rates=(0.05, 0.15),
            shots=1500,
            seed=benchmark_seed,
        )

    study = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (p.strategy, p.bad_qubit_error_rate, p.physical_error_rate,
         round(p.logical_error_rate, 4))
        for p in study.points
    ]
    print_series("Fig. 20 - stability failure rate, keep vs disable", rows)

    disable = {p.physical_error_rate: p.logical_error_rate
               for p in study.curve("disable")}
    keep_bad = {p.physical_error_rate: p.logical_error_rate
                for p in study.curve("keep", 0.15)}
    keep_ok = {p.physical_error_rate: p.logical_error_rate
               for p in study.curve("keep", 0.05)}
    # A 15% bad qubit should be (weakly) worse to keep than a 5% one.
    for p in disable:
        assert keep_bad[p] >= keep_ok[p] - 0.02
    # At the lowest good-qubit error rate, disabling a 15% qubit should not be
    # (much) worse than keeping it - this is the cutoff behaviour of Fig. 20.
    lowest = min(disable)
    assert disable[lowest] <= keep_bad[lowest] + 0.02
