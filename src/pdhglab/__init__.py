"""Primal-dual hybrid gradient solvers with a Lyapunov diagnostics laboratory.

The package splits into a solver side (problems, proximal, schedules, engine)
and a diagnostics side (lyapunov, dynamics, rates) joined by a problem
catalog (zoo) and a config-driven CLI.  Each name is imported from the module
that defines it; the package itself exports none.
"""
