"""Desk-scale toolkit for products of primes in (Z/qZ)^x.

Exact product-set algebra over the multiplicative group mod a prime,
upper/lower sieve weight systems with clause audits, additive and
multiplicative Fourier machinery with Kloosterman-sum bound checks, and
coset-obstruction detection -- every stated bound paired with a brute-force
oracle at small scale.
"""
