(** Construction of the synthetic certificate world.

    One call builds every root authority (store members, Figure 2
    device extras, private/unknown CAs, the Table 5 rooted-device CAs
    and the Reality Mine interception root), assembles the official
    AOSP 4.1–4.4, Mozilla and iOS 7 stores with the paper's sizes and
    overlap structure, and attaches to every root the share of Notary
    traffic it validates (Table 3/4 derivation, DESIGN.md §4). *)

module PD := Paper_data

type root = {
  id : int;
      (** dense {!Tangled_engine.Interner} id of the root's equivalence
          key, minted at build — the index every coverage join runs on *)
  authority : Tangled_x509.Authority.t;
  display_name : string;
  in_aosp : PD.android_version list;
      (** the AOSP releases whose store contains it (empty: none) *)
  in_mozilla : bool;
  in_ios : bool;
  traffic_weight : float;
      (** share of unexpired Notary leaves this root validates; 0 for
          roots absent from live traffic *)
  extra : PD.extra_cert option;
      (** the Figure 2 record when this is a device-store extra *)
  mozilla_variant : Tangled_x509.Certificate.t option;
      (** for the shared roots Mozilla ships as a re-issued (equivalent
          but byte-distinct) certificate *)
}

type t = {
  seed : int;
  key_bits : int;
  roots : root array;          (** every public root, store-member or extra *)
  private_cas : (Tangled_x509.Authority.t * float) array;
      (** CAs seen in traffic but trusted by no store, with weights *)
  rooted_authorities : (string * Tangled_x509.Authority.t) array;
      (** the Table 5 CAs, by name *)
  interceptor : Tangled_x509.Authority.t;  (** the Reality Mine root *)
  aosp : PD.android_version -> Tangled_store.Root_store.t;
  mozilla : Tangled_store.Root_store.t;
  ios7 : Tangled_store.Root_store.t;
  extra_by_id : (string, root) Hashtbl.t;
      (** Figure 2 extras indexed by their bracketed hash id *)
  interner : Tangled_engine.Interner.t;
      (** the universe's identity table: every root, private CA,
          rooted-device CA and the interceptor, interned at build.
          Shared mutable state — later sequential phases may mint more
          ids (e.g. for user-added device certificates); the
          domain-parallel phases only read. *)
  root_of_id : root option array;
      (** public root per interned id ([None] for ids that are private
          CAs or other non-store identities) — the id-indexed
          replacement for the Notary's string-keyed root table *)
}

val build : ?key_bits:int -> ?jobs:int -> seed:int -> unit -> t
(** Deterministic in [seed] and independent of [jobs].  [key_bits]
    defaults to 384.  Every authority is self-signed under a key drawn
    from its own PRNG stream, split off the seed's ["blueprint-keys"]
    stream by the authority's serial, so the whole set is made in one
    {!Tangled_engine.Parallel.tabulate} over up to [jobs] domains
    (default {!Tangled_engine.Parallel.default_jobs}).  The pool is
    released before [build] returns. *)

val default : t Lazy.t
(** A process-wide universe with seed 1, shared by tests and examples
    so the ~400 keypairs are generated once. *)

val find_root_by_name : t -> string -> root option
(** Lookup by display name (first match). *)

val find_root_by_key : t -> string -> root option
(** Lookup by equivalence key, through the interner and the id-indexed
    table — [O(1)]. *)

val store_of_name : t -> string -> Tangled_store.Root_store.t option
(** An official store by its short name: [aosp41], [aosp42], [aosp43],
    [aosp44], [mozilla] or [ios7] — the names the CLI and the serve
    protocol take.  [None] for any other name. *)

val store_of_category : t -> string -> Tangled_x509.Certificate.t list
(** The certificate population of a Table 4 category, by its paper row
    label.  @raise Invalid_argument on an unknown label. *)
