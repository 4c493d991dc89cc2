(** A fleet of CT logs with per-log accepted-root policies, fed from
    the Notary's arena corpus.

    Each log admits a seeded Bernoulli subset of the universe's public
    roots (admission fractions spread across the fleet, so early logs
    are choosier than late ones — mirroring the divergence measured in
    {e Characterizing the Root Landscape of Certificate Transparency
    Logs}).  The submission pass streams every arena chain once, in
    handle order, into each log whose policy accepts its verified
    anchor; the pass is sequential over the jobs-invariant arena, so
    log heads are byte-identical at any [--jobs]. *)

type entry = {
  log : Log.t;
  policy : Tangled_engine.Id_set.t;
      (** interned root ids this log accepts submissions under *)
  accepted_roots : int;  (** [Id_set.cardinal policy] at build *)
  mutable submitted : int;
      (** chains appended to this log by the submission pass *)
}

type t

val build :
  ?n_logs:int ->
  seed:int ->
  Tangled_pki.Blueprint.t ->
  Tangled_notary.Notary.t ->
  t
(** Build [n_logs] (default 3) logs with admission fractions spread
    linearly over [[0.55, 0.90]], then run the submission pass over
    the whole corpus.  Deterministic in [seed]; independent of how the
    notary was parallelised. *)

val entries : t -> entry array
val n_logs : t -> int

val find_log : t -> string -> entry option
(** Lookup by log name (["ct0"], ["ct1"], ...). *)

val leaf_der : t -> entry -> int -> string option
(** [leaf_der t e i] is the raw DER bytes of leaf [i] of [e.log] — the
    submission the log hashed — or [None] out of range.  Lets callers
    re-verify inclusion proofs from first principles. *)

type store_row = {
  store_name : string;
  roots : int;          (** enabled roots in the store *)
  accepted : int;       (** of those, accepted by >= 1 log policy *)
  logged : int;         (** of those, with >= 1 logged certificate *)
  dark : int;           (** roots - logged: invisible in every log *)
  dark_names : string list;
      (** display names of the dark roots (sorted), capped at 8 *)
}

val store_visibility : t -> string -> Tangled_store.Root_store.t -> store_row
(** Visibility of one store's enabled membership against the fleet. *)

val official_visibility : t -> store_row list
(** {!store_visibility} over the official stores, fixed order:
    AOSP 4.1–4.4, Mozilla, iOS 7. *)
