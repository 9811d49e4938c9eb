"""The set-up of each workload, and a fresh process that does one.

    PYTHONPATH=src python3 perfbench/setup_child.py solutions_sweep

The benchmark times this script as a whole as one set-up sample: interpreter
start, ``import localp2`` and, for the warm workload, its warm-up calls.  It
imports nothing else, so that the sample is the program's own set-up.
"""

import sys


def setup_reproduce_cold():
    import localp2.cli  # noqa: F401  (the rest comes with the package)


def setup_solutions_sweep():
    """Import plus one call of every request kind; returns the precision
    configurations the requests use."""
    from localp2 import picard_fuchs as pf
    from localp2 import specfun
    from localp2.specfun import PrecisionConfig

    configs = {m: PrecisionConfig(mode=m) for m in ("double", "extended")}
    pf.continue_solutions(100.0)
    pf.chf_expand(0.01)
    pf.series_w1(0.01)
    pf.series_w2(0.01)
    pf.mellin_barnes(0.01, "plain")
    pf.mellin_barnes(0.01, "digamma")
    pf.w_at_infinity(100.0)
    pf.monodromy_around_origin()
    for cfg in configs.values():
        specfun.closed_form_checks(cfg)
    return configs


SETUPS = {
    "reproduce_cold": setup_reproduce_cold,
    "solutions_sweep": setup_solutions_sweep,
}

if __name__ == "__main__":
    SETUPS[sys.argv[1]]()
