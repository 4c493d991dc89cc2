(** X.509 chain building and verification against a root store — the
    client-side half of both Netalyzr's trust-chain probes and the
    Notary's per-store validation counts. *)

val verify_cert :
  issuer:Tangled_x509.Certificate.t -> Tangled_x509.Certificate.t -> bool
(** [verify_cert ~issuer cert] is [Certificate.verify_signature cert
    ~issuer_key:issuer.public_key] behind a domain-local bounded
    decision cache (lib/cache CLOCK, default capacity 8192) keyed by
    (store epoch, issuer-key fingerprint, certificate fingerprint) —
    concretely a SHA-256 over the issuer equivalence key, issuer
    exponent, TBS bytes and signature, epoch-checked on lookup.  The
    Notary and Netalyzr re-verify the same CA-signed intermediates
    thousands of times; the cache collapses each distinct (issuer,
    certificate) pair to one RSA operation per domain while keeping
    resident memory capped at the configured capacity. *)

val verify_cache_stats : unit -> int * int
(** Process-wide [(hits, misses)] of the decision cache, summed over
    all domains. *)

val verify_cache_info : unit -> Tangled_cache.Cache.stats
(** Full cache statistics: process-wide hit/miss/eviction counters
    plus the calling domain's live-entry count, capacity and epoch. *)

val clear_verify_cache : unit -> unit
(** Bump the process-global store epoch: every domain's cached
    verdicts become logically dead and are reclaimed lazily (cold-path
    measurements, store mutations).  Verdicts are identical before and
    after — the QCheck cached-vs-cleared oracle pins this. *)

val set_verify_cache_capacity : int -> unit
(** Capacity for per-domain caches (existing instances are rebuilt on
    next use).  @raise Invalid_argument when [< 1].  Default 8192. *)

type failure =
  | No_trusted_root
      (** no enabled store entry terminates any candidate path *)
  | Bad_signature of Tangled_x509.Dn.t
      (** the certificate with this subject fails verification *)
  | Expired of Tangled_x509.Dn.t
  | Not_yet_valid of Tangled_x509.Dn.t
  | Not_a_ca of Tangled_x509.Dn.t
      (** an intermediate without CA basicConstraints *)
  | Path_len_exceeded of Tangled_x509.Dn.t
  | Wrong_key_usage of Tangled_x509.Dn.t
      (** leaf refused for serverAuth by its EKU *)
  | Chain_too_long

val failure_to_string : failure -> string

type result = {
  verdict : (Tangled_x509.Certificate.t, failure) Stdlib.result;
      (** on success, the trusted root that anchors the chain *)
  path : Tangled_x509.Certificate.t list;
      (** leaf-first path considered (root excluded) *)
}

val validate :
  ?max_depth:int ->
  ?check_server_auth:bool ->
  now:Tangled_util.Timestamp.t ->
  store:Tangled_store.Root_store.t ->
  Tangled_x509.Certificate.t list ->
  result
(** [validate ~now ~store chain] takes the server-presented chain
    (leaf first, any order and junk tolerated after the leaf) and
    attempts to build a path from the leaf to a store-trusted root:

    - candidate issuers are found by subject/issuer DN chaining among
      the presented certificates and the store;
    - every signature on the path is verified cryptographically;
    - validity windows are checked at [now];
    - intermediates must be CAs and honour pathLenConstraint;
    - with [check_server_auth] (default true) the leaf must allow TLS
      server authentication.

    [max_depth] bounds the path length (default 8).
    @raise Invalid_argument on an empty chain. *)

val validate_ok :
  ?max_depth:int ->
  ?check_server_auth:bool ->
  now:Tangled_util.Timestamp.t ->
  store:Tangled_store.Root_store.t ->
  Tangled_x509.Certificate.t list ->
  bool
(** [validate_ok] is [validate] collapsed to a boolean. *)

val anchor_key :
  now:Tangled_util.Timestamp.t ->
  store:Tangled_store.Root_store.t ->
  Tangled_x509.Certificate.t list ->
  string option
(** On success, the equivalence key of the anchoring root — what the
    Notary aggregates per-root validation counts by. *)

val anchor_id :
  interner:Tangled_engine.Interner.t ->
  now:Tangled_util.Timestamp.t ->
  store:Tangled_store.Root_store.t ->
  Tangled_x509.Certificate.t list ->
  int option
(** {!anchor_key} projected onto the universe's interned root ids —
    the form the coverage index consumes.  [None] when the chain does
    not validate or the anchoring root was never interned. *)
