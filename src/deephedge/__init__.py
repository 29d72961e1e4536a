"""Deep hedging of a cliquet option under Heston dynamics.

The package couples:

* ``diffcore``   the reference tape the tests check ``policy.reverse_sweep`` against,
* ``market``     Heston simulation and semi-analytic vanilla pricing,
* ``contracts``  floating-grid instruments, cliquet payoff, hedging objective,
* ``policy``     the recurrent hedging network,
* ``optim``      the Kronecker-factored second-order optimizer and Adam,
* ``harness``    configuration, training loop, evaluation, metrics.
"""

__version__ = "0.1.0"
