"""Computational laboratory for prime chains, recursive prime trees,
sifted chain-count bounds, singular series, smooth-number densities, and
the fragmentation / branching-random-walk model behind them.

Submodules:

* sieve     segmented smallest-prime-factor table, prime stream, progression counts
* pratt     tree statistics f, H, g over shifted-prime factorizations
* chains    explicit chain enumeration and counting identities
* sifted    residue-matrix upper bounds via Hurwitz zeta row sums
* singular  singular series and residue-count inequalities
* brw       truncated branching random walk on stick-breaking fragments
* dickman   numerical smooth-number density rho(u)
* rng       counter-based splittable random streams
* verify    acceptance criteria and property suites
* cli       command-line front end
"""

from . import brw, chains, dickman, errors, pratt, rng, sieve, sifted, singular, verify

__version__ = "0.1.0"

__all__ = [
    "brw",
    "chains",
    "dickman",
    "errors",
    "pratt",
    "rng",
    "sieve",
    "sifted",
    "singular",
    "verify",
    "__version__",
]
