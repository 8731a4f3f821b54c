"""pqbench: desk-scale post-quantum crypto, benchmarking, and a TLS 1.3 sim.

Subpackage map:

* registry  - scheme metadata, size tables, security-strength arithmetic
* hashsig   - one-time signatures, hash chains, Merkle trees, many-time MSS
* codecrypt - binary linear codes and a code-based encryption scheme
* lattice   - LWE encryption plus SIS/SVP brute-force oracles
* mq        - multivariate quadratic systems and oil-and-vinegar signing
* sigma     - sigma protocols and the Fiat-Shamir transform
* kex       - elliptic-curve Diffie-Hellman and the KEM/signature contracts
* bench     - timing harness with interval sampling and adaptive re-runs
* tlssim    - simulated TLS 1.3 handshake with exact byte accounting
* cli       - command-line front end over all of the above
"""
