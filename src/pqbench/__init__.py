"""pqbench: desk-scale post-quantum crypto, benchmarking, and a TLS 1.3 sim.

Module map:

* errors    - exception types raised from more than one module
* serialize - length-prefixed framing, fixed-width vectors, bit-field codecs
* hashing   - named hashes: BLAKE2b as the default, pqh as the reference
* registry  - scheme metadata, size tables, security-strength arithmetic
* binmat    - word-packed matrices over GF(2)
* hashsig   - one-time signatures, hash chains, Merkle trees, many-time MSS
* codecrypt - binary linear codes and a code-based encryption scheme
* lattice   - LWE encryption plus SIS/SVP brute-force oracles
* mq        - multivariate quadratic systems and oil-and-vinegar signing
* sigma     - sigma protocols and the Fiat-Shamir transform
* kex       - elliptic-curve Diffie-Hellman and the KEM/signature contracts
* suites    - stub instances, shared signer helpers, the built-in tables
* adapters  - the package's schemes as KEM and signature instances
* bench     - timing harness with interval sampling and adaptive re-runs
* tlssim    - simulated TLS 1.3 handshake with exact byte accounting
* cli       - command-line front end over all of the above

A run that builds only registry stub suites loads none of adapters, the
scheme modules it imports (binmat, hashsig, codecrypt, lattice, mq,
sigma) or bench: suites imports adapters when a built-in instance is
asked for, and tlssim imports bench when a measurement is.
"""
