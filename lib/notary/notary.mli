(** The passive certificate observatory (§4.2).

    The real ICSI Notary watches TLS handshakes on eight networks and
    stores ~1.9 M unique certificates (~1 M unexpired).  This simulator
    issues a scaled-down leaf population from the universe's active
    roots, with per-root volumes proportional to the traffic weights
    the blueprint derived from Table 3, then {e measures} everything
    the paper measures — anchoring every chain at its issuing root
    and aggregating per-root and per-store validation counts.

    {2 Streaming generation over a columnar arena}

    The corpus is held in a {!Tangled_x509.Arena}: raw leaf DER in one
    off-heap blob plus fixed-width columns (issuer index, verified
    anchor id, validity window, flags, key fingerprint).  A chain is
    an [int] handle; the boxed {!chain} view is re-materialised on
    demand by {!chain} and dropped by the caller.  Generation streams:
    a sequential {e planning} pass performs every PRNG draw in the same
    order the original single-pass generator did, then fixed-size
    batches of chains are built in parallel (pure RSA issuance + chain
    verification), appended to the arena, folded into the incremental
    {!Tangled_engine.Coverage} index, and dropped.  A worker hands the
    fold only each leaf's DER, key fingerprint and anchor, so the heap
    holds one batch of DER strings whatever the corpus size, and seeded
    output is byte-identical at any [jobs] count — including the arena
    digest.

    Every aggregate query below is an array reduction over the
    coverage index rather than a scan of the corpus. *)

type chain = {
  leaf : Tangled_x509.Certificate.t;
  intermediates : Tangled_x509.Certificate.t list;
  expired : bool;  (** outside its validity window at the paper epoch *)
  anchor : string option;
      (** equivalence key of the verified issuing root; [None] when the
          signature chain does not verify *)
}
(** Materialised view of one chain handle — decode on demand, drop when
    done; nothing retains these. *)

type t = {
  universe : Tangled_pki.Blueprint.t;
  arena : Tangled_x509.Arena.t;
      (** the corpus: one row + DER slice per chain, handle = chain
          index *)
  inter_certs : Tangled_x509.Certificate.t array;
      (** per-issuer shared intermediate, indexed by the arena's
          [issuer_id] column *)
  scale : float;  (** leaves here per paper leaf (~1 M) *)
  interner : Tangled_engine.Interner.t;
      (** the universe's root-identity table (shared, not a copy) *)
  coverage : Tangled_engine.Coverage.t;
      (** incremental per-root validated counts, folded during
          generation *)
}

val generate :
  ?leaves:int ->
  ?expired_fraction:float ->
  ?jobs:int ->
  seed:int ->
  Tangled_pki.Blueprint.t ->
  t
(** [generate ~seed universe] issues [leaves] (default 10,000) unexpired
    chains plus an [expired_fraction] (default 0.10; the paper's
    population is 47% expired — the default trades that for speed and
    the fraction only affects totals, never the analysis shape).
    Per-root leaf counts use largest-remainder apportionment of the
    traffic weights so every active root validates at least one
    certificate.  About half the chains go through an intermediate CA.
    [jobs] (default 1) bounds the worker domains used for the build
    phase.  Deterministic in [seed], independent of [jobs].

    Every chain's signatures were produced one stack frame up, so
    generation cryptographically verifies a deterministic 1-in-64
    sample by chain index (an audited chain that fails to verify
    aborts generation) and anchors the rest at their issuer directly.
    Leaves are assembled from the fields just encoded, never re-decoded
    ({!Tangled_x509.Authority.issue_leaf}). *)

val unexpired : t -> int
val total : t -> int

val arena : t -> Tangled_x509.Arena.t
(** The backing arena (also reachable through the record) — digest,
    memory accounting, column reads. *)

(** {2 Per-chain reads} — O(1) column lookups; no DER decode. *)

val anchor_id : t -> int -> int
(** Chain [i]'s verified anchor as an interned root id, or [-1]. *)

val anchor_key : t -> int -> string option
(** Chain [i]'s verified anchor equivalence key. *)

val chain_expired : t -> int -> bool
val via_intermediate : t -> int -> bool

val chain : t -> int -> chain
(** Materialise chain [i] from its DER slice and columns.  Costs one
    certificate decode; callers iterate handles and drop the view. *)

(** {2 Aggregate queries} *)

val store_ids : t -> Tangled_store.Root_store.t -> Tangled_engine.Id_set.t
(** The store's enabled membership as interned root ids — compute once,
    query {!validated_by_ids} many times (the minimization loop's
    pattern). *)

val validated_by_ids : t -> Tangled_engine.Id_set.t -> int
(** Unexpired chains anchored by any id in the set: a single reduction
    over the per-root count array. *)

val validated_by_store : t -> Tangled_store.Root_store.t -> int
(** Unexpired chains whose verified anchor is an enabled member of the
    store — Table 3's per-store count.  Equivalent to
    [validated_by_ids t (store_ids t store)]. *)

val count_for_id : t -> int -> int
(** Unexpired validated-chain count for one interned root id (0 for
    ids the Notary never saw anchor, or out of range). *)

val per_root_counts : t -> (string, int) Hashtbl.t
(** Unexpired validated-chain count per root equivalence key — the raw
    series behind Figure 3.  Materialised from the index for callers
    that want string keys; id-based callers should use
    {!count_for_id}. *)

val counts_for_certs : t -> Tangled_x509.Certificate.t list -> float array
(** Per-certificate validation counts for a root population (0 for
    roots the Notary never saw validate), ready for an ECDF. *)

val has_record : t -> Tangled_x509.Certificate.t -> bool
(** Whether the Notary knows this certificate: it anchored or appeared
    in observed traffic, or belongs to one of the official stores it
    mirrors — the Figure 2 classification primitive. *)

val classify :
  t -> Tangled_x509.Certificate.t -> Tangled_pki.Paper_data.notary_class
(** The Figure 2 legend class of a device-store extra, computed from
    the Notary's perspective (store membership + traffic records). *)

val crosscheck : t -> Tangled_store.Root_store.t -> sample:int -> seed:int -> bool
(** Validate [sample] random chains with the full path-building
    validator and compare with the arena's anchor-id membership
    shortcut; [true] when they agree everywhere.  Used by the test
    suite to justify the fast counting path. *)
