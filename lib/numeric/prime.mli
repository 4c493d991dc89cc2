(** Probabilistic primality testing and prime generation, the key
    ingredient of the RSA substrate.

    The draw sequence is part of the contract, not only the result:
    every seeded world (keys, certificates, report and arena digests,
    CT heads) depends on which candidates reach Miller–Rabin and which
    bases they draw from the PRNG.  A candidate with a factor among
    {!small_primes} is rejected without drawing; one that reaches
    Miller–Rabin draws one base per round, uniform in [\[2, n-2\]] by
    [Bigint.random_below], and stops at its first witness.  A change
    that keeps the verdicts but moves a draw changes every key. *)

val small_primes : int array
(** The primes below 1000, used for the small-factor sieve. *)

val is_probably_prime : ?rounds:int -> Tangled_util.Prng.t -> Bigint.t -> bool
(** Miller–Rabin test with [rounds] random bases (default 20) after a
    small-factor sieve, which draws nothing.  Deterministically
    correct for candidates below the small-prime bound; otherwise the
    error probability is at most [4^-rounds].  Miller–Rabin runs on
    {!Montgomery.powm}.
    @raise Invalid_argument if a positive [n] is wider than
    {!Montgomery.max_bits}. *)

val generate : ?rounds:int -> Tangled_util.Prng.t -> bits:int -> Bigint.t
(** [generate rng ~bits] is a random probable prime with exactly [bits]
    bits and its top two bits set, found by incremental search from a
    random odd starting point: each starting point is [0b11] followed
    by [bits - 2] random bits (made odd), its candidates step by 2 and
    are tested exactly as {!is_probably_prime} would, and a run of 400
    failures or an overflow past [bits] draws a new starting point.
    The prefix puts every result at or above [3 * 2^(bits-2)], which
    meets FIPS 186-4 §B.3's [sqrt 2 * 2^(bits-1)] bound, so the product
    of two such primes of [b1] and [b2] bits always has exactly
    [b1 + b2] bits.  The small-factor sieve works on residues computed
    once per starting point.  [rounds] is passed to {!is_probably_prime}
    (default 20; the PKI generator uses fewer — random candidates fail
    Miller–Rabin far more often than the worst-case 4{^-rounds} bound).
    @raise Invalid_argument if [bits < 2] or [bits > Montgomery.max_bits]. *)
