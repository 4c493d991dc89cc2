(** Montgomery-form modular exponentiation for odd moduli.

    A context precomputes everything exponentiation needs for one
    modulus — the limb-wise inverse [-m⁻¹ mod 2^28], [R² mod m] and
    [R³ mod m] — so repeated operations against the same modulus (every
    signature a CA issues or verifies) pay the setup once.  Operands
    live in 28-bit limbs, and each modular product is one
    division-free pass that fuses the multiply with its reduction.

    A {!schedule} hoists an exponent's window digits and popcount out
    of the loop, and a {!scratch} preallocates every buffer the walk
    needs, so repeated exponentiations reuse them.  {!powm} picks a sparse
    square-and-multiply walk for low-weight exponents like 65537 and a
    fixed 4-bit window walk otherwise.  Every exponentiation records
    its exponent width once in the [montgomery.modpow_bits] histogram.

    {!Bigint.modpow} remains the independent oracle; the test suite
    cross-checks the two at every width up to {!max_bits}, and results
    are bit-exact. *)

type t
(** A reusable context for one odd modulus [> 1]. *)

val max_bits : int
(** 3 528: the widest modulus a context carries (126 limbs). *)

val create : ?limbs:int -> Bigint.t -> t
(** [create m] precomputes a context for modulus [m].  [limbs] widens
    the context past [m]'s own limb count, so two moduli of different
    widths can share one operand width (RSA-CRT halves of an odd-width
    key).
    @raise Invalid_argument unless [m] is odd, positive, [> 1] and at
    most {!max_bits} wide. *)

val limbs : t -> int
(** The context's limb count [k]: [R = 2^(28k)]. *)

(** {1 Exponentiation} *)

type schedule
(** A fixed exponent's window digits, bit length and popcount,
    computed once and reused across every exponentiation with that
    exponent (a CA key's CRT halves sign millions of times). *)

val schedule : Bigint.t -> schedule
(** @raise Invalid_argument on a negative exponent. *)

type scratch
(** Preallocated working set (ping-pong accumulators, window table,
    double-width REDC buffer) for one context width.  Single-domain:
    share a scratch between concurrent users and results are garbage. *)

val scratch : t -> scratch

val powm : t -> scratch -> schedule -> Bigint.t -> Bigint.t
(** [powm t sc sched b] is [b^e mod m] for the context's modulus [m]
    and the [e] behind [sched]; [b] may be negative or exceed the
    modulus (it is reduced first).  Agrees exactly with
    [Bigint.modpow b e m].
    @raise Invalid_argument if [sc] was built for another width. *)

val modpow : t -> Bigint.t -> Bigint.t -> Bigint.t
(** [modpow t b e] is {!powm} with a one-shot schedule and scratch.
    @raise Invalid_argument on negative [e]. *)

(** {1 RSA plumbing on bare limbs}

    The RSA sign and verify paths work on bare limb arrays, so a
    per-key context turns message bytes into signature bytes without
    touching {!Bigint}. *)

val limbs_of_bigint : t -> Bigint.t -> int array
(** Pack a non-negative value below [R] into the context's [k] limbs
    (allocates; meant for per-key precomputes).
    @raise Invalid_argument out of range. *)

val to_mont_limbs : t -> scratch -> int array -> int array
(** Montgomery form of a packed [k]-limb value (allocates the result;
    meant for once-per-key precomputes like [qinv·R mod p]). *)

val load_base_bytes : t -> scratch -> string -> unit
(** Pack a big-endian byte string at most [2k] limbs wide (the 384-bit
    EMSA block against a 192-bit CRT prime) and convert it to
    Montgomery form without division, leaving the base in the scratch
    for {!powm_loaded}.
    @raise Invalid_argument on a wider value or a scratch of another
    width. *)

val powm_loaded : t -> scratch -> schedule -> dst:int array -> unit
(** The exponentiation walk behind {!powm}, over the base left by
    {!load_base_bytes}; writes the plain (out-of-Montgomery-form),
    fully reduced [k]-limb result to [dst]. *)

val write_bytes_be : int array -> int -> bytes -> unit
(** [write_bytes_be limbs nlimbs out] serialises the value in the
    first [nlimbs] limbs big-endian, exactly filling [out]
    (zero-padded on the left; the value must fit). *)

val crt_combine :
  pctx:t ->
  psc:scratch ->
  qinv_m:int array ->
  qlimbs:int array ->
  m1:int array ->
  m2:int array ->
  out:bytes ->
  unit
(** Garner recombination [m2 + q·(qinv·(m1 − m2) mod p)] on [p]'s
    context, writing the signature big-endian into [out] (whose length
    fixes the output width).  [qinv_m] is [qinv] in [p]'s Montgomery
    form, [qlimbs] is [q] packed at [p]'s limb count, and [m1 < p],
    [m2 < q < 2p]. *)
