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
  mutable mont_n : Tangled_numeric.Montgomery.t option;
      (** lazily-built Montgomery context for [n]; build with
          {!make_public} and leave this field to the library *)
  mutable n_sha1 : string option;
      (** memoised SHA-1 of the modulus bytes ({!modulus_sha1}) *)
}

type private_key = {
  pub : public;
  d : Tangled_numeric.Bigint.t;  (** private exponent *)
  p : Tangled_numeric.Bigint.t;
  q : Tangled_numeric.Bigint.t;
  dp : Tangled_numeric.Bigint.t;   (** d mod (p-1), for CRT signing *)
  dq : Tangled_numeric.Bigint.t;   (** d mod (q-1) *)
  qinv : Tangled_numeric.Bigint.t; (** q^-1 mod p *)
  mutable mont_p : Tangled_numeric.Montgomery.t option;
  mutable mont_q : Tangled_numeric.Montgomery.t option;
}

type keypair = private_key

val make_public : n:Tangled_numeric.Bigint.t -> e:Tangled_numeric.Bigint.t -> public
(** A public key with an empty Montgomery cache; the context is built
    on the first verification against the key and reused after. *)

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
    @raise Invalid_argument when [bits < 64]. *)

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
    the private-key operation.
    @raise Invalid_argument when the key is too small for the digest. *)

val verify : public -> digest:Tangled_hash.Digest_kind.t -> msg:string -> signature:string -> bool
(** Full encode-then-compare verification; returns [false] on any
    malformation rather than raising. *)

val set_precompute : bool -> unit
(** Toggle the per-key operation precompute (on by default): bounded
    per-domain lib/cache caches of exponent window schedules and
    Montgomery scratch, keyed by modulus bytes, that make repeated
    sign/verify against hot CA keys allocation-free and dispatch
    65537 to a table-free sparse walk.  Signatures and verdicts are
    byte-identical either way — the toggle exists for the bench's
    before/after pairs. *)

val precompute_enabled : unit -> bool

val set_wide_kernel : bool -> unit
(** Toggle the wide-limb (28-bit) Montgomery plane for sign/verify (on
    by default; only reachable while the precompute is also on).  Off
    pins both operations to the original 26-bit plane.  Byte-identical
    results either way — the QCheck suite pins sign and verify across
    all four toggle combinations; the switch exists for the bench's
    before/after pairs. *)

val wide_enabled : unit -> bool

val encrypt_raw : public -> string -> string
(** Textbook RSA of a byte string interpreted big-endian; used by the
    tests to cross-check [d] against [e], never by the pipeline. *)

val decrypt_raw : private_key -> string -> string
