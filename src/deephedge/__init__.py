"""Deep hedging of a cliquet option under Heston dynamics.

The package couples:

* ``diffcore``   the reference tape the tests check ``policy.reverse_sweep`` against,
                 loaded only by them, the benchmark's tracer and ``batch_objective``,
* ``market``     Heston simulation and semi-analytic vanilla pricing,
* ``contracts``  floating-grid instruments, cliquet payoff, hedging objective,
* ``policy``     the recurrent hedging network,
* ``optim``      the Kronecker-factored second-order optimizer and Adam,
* ``harness``    configuration, training loop, evaluation, metrics,
* ``checkpoint`` checkpoint files of the parameters and the optimizer state,
* ``rngstreams`` the random streams derived from the root seed, one per purpose.
"""

__version__ = "0.1.0"
