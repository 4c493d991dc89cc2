(** RSA key generation and PKCS#1 v1.5 signatures.

    The simulation signs every certificate for real: chains only verify
    when the issuer's private key actually produced the signature.  Key
    sizes are configurable; the default used across the project is
    384 bits — small enough that a pure-OCaml bignum signs tens of
    thousands of leaves per second, and irrelevant to the paper's
    analysis, which never attacks the keys. *)

type public = {
  n : Tangled_numeric.Bigint.t;  (** modulus *)
  e : Tangled_numeric.Bigint.t;  (** public exponent *)
  mutable n_sha1 : string option;
      (** memoised SHA-1 of the modulus bytes ({!modulus_sha1}) *)
}

type signer
(** A key's immutable signing state: both CRT Montgomery contexts, the
    [dp]/[dq] exponent schedules, [qinv] in [p]'s Montgomery form and
    [q] at [p]'s limb count. *)

type private_key = {
  pub : public;
  d : Tangled_numeric.Bigint.t;  (** private exponent *)
  p : Tangled_numeric.Bigint.t;
  q : Tangled_numeric.Bigint.t;
  dp : Tangled_numeric.Bigint.t;   (** d mod (p-1), for CRT signing *)
  dq : Tangled_numeric.Bigint.t;   (** d mod (q-1) *)
  qinv : Tangled_numeric.Bigint.t; (** q^-1 mod p *)
  signer : signer;  (** built by {!generate}, shared by every domain *)
}

type keypair = private_key

val make_public : n:Tangled_numeric.Bigint.t -> e:Tangled_numeric.Bigint.t -> public
(** A public key with an empty modulus-digest memo. *)

val generate : ?mr_rounds:int -> Tangled_util.Prng.t -> bits:int -> keypair
(** [generate rng ~bits] makes a fresh keypair with a [bits]-bit
    modulus and public exponent 65537.  [mr_rounds] tunes the
    Miller–Rabin confidence of the prime search (default 20); bulk
    generators trade it down.  It draws p then q with
    {!Tangled_numeric.Prime.generate} and draws the pair again when
    p = q, when p·q comes out short of [bits], or when 65537 is not
    invertible mod (p-1)(q-1).  That draw sequence is part of the
    contract: seeded worlds depend on it for every key, so the
    candidates that reach Miller–Rabin and the bases they draw must
    not move.
    @raise Invalid_argument when [bits < 64] or [bits] exceeds
    {!Tangled_numeric.Montgomery.max_bits} (3 528). *)

val key_size_bytes : public -> int
(** Modulus size in bytes, the signature length. *)

val modulus_bytes : public -> string
(** Big-endian modulus — the paper's "RSA key modulus" identity
    component (§4.1). *)

val modulus_sha1 : public -> string
(** SHA-1 of {!modulus_bytes}, memoised on the key: the X.509 key
    identifier hashes the same modulus for every certificate a CA
    signs, and a CA pool signs hundreds of thousands. *)

val sign : private_key -> digest:Tangled_hash.Digest_kind.t -> string -> string
(** [sign key ~digest msg] is the PKCS#1 v1.5 signature over [msg]:
    EMSA-PKCS1-v1_5 encoding of DigestInfo(digest, H(msg)) followed by
    the CRT private-key operation, two half-width Montgomery
    exponentiations and a Garner recombination.  The contexts and
    schedules come from the key's {!signer}; only the mutable scratch
    and the two half results are per domain, one set per limb count.
    @raise Invalid_argument when the key is too small for the digest,
    or is not a key {!generate} could make. *)

val verify : public -> digest:Tangled_hash.Digest_kind.t -> msg:string -> signature:string -> bool
(** Full encode-then-compare verification; returns [false] on any
    malformation rather than raising, including a public exponent
    [<= 0].  Odd moduli in [(1, 2^3528)] run on cached Montgomery
    contexts; any other modulus, which only hostile DER produces, goes
    through {!Tangled_numeric.Bigint.modpow}. *)
