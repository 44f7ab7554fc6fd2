"""tamenorm: exact-arithmetic certificates for the local combinatorics of
anticyclotomic norm relations.

Modules:
  matrices   -- integer and modular matrix kernels, primality, desk-scale bounds
  exactnum   -- Q[s, z]/(s^2 - ell, Phi_k(z)) scalars and polynomials
  qcomb      -- Gaussian binomials, rank/chain counts, lambda/b coefficients
  lattice    -- the lattice poset, inclusion-exclusion and measure identities
  hecke      -- U_m -> psi_m reduction, phi assembly, orbit/stabilizer data
  lfactor    -- Frobenius polynomials, central L-values, group-algebra form
  fingroup   -- finite groups on Cayley tables: permutations, matrices over Z/N
  mackey     -- cohomology-functor axioms, Hecke maps, ordinary projector
  classfield -- ring class groups via binary quadratic forms
  trc        -- the trc-1 certificate builder and its two rules
  cli        -- certificate-emitting command line (entry point: tamenorm)
"""

__version__ = "0.1.0"
