(** The Android system root store model (§2 of the paper).

    A store is a set of trusted root certificates, each tagged with the
    provenance the analysis pipeline later attributes additions to, and
    with Android's enable/disable state.  Mutation goes through an
    {!actor}-checked API that enforces the platform's rules — and
    reproduces their central weakness: any actor with root privileges
    can do anything, silently. *)

type provenance =
  | Aosp          (** shipped in Google's official distribution *)
  | Manufacturer of string
  | Operator of string
  | User          (** added through system settings, e.g. for a VPN *)
  | App of string (** installed by a (root-privileged) application *)

val provenance_to_string : provenance -> string

type entry = {
  cert : Tangled_x509.Certificate.t;
  provenance : provenance;
  enabled : bool;
}

type actor =
  | System_image        (** the firmware build: unrestricted, pre-boot *)
  | Settings_ui         (** the device owner in Settings: may add [User]
                            certificates and disable/re-enable any *)
  | Privileged_app of string
      (** an app running with root permissions: unrestricted — the
          paper's §6 threat *)
  | Unprivileged_app of string  (** a normal app: read-only *)

type error =
  | Permission_denied of actor * string
  | Not_found_in_store of string
  | Duplicate of string

val error_to_string : error -> string

type t
(** Immutable; mutations return updated stores.  Identity of entries is
    the paper's (subject, RSA modulus) equivalence key. *)

val empty : string -> t
(** [empty name] is a store with the given display name. *)

val name : t -> string

val of_certs : string -> provenance -> Tangled_x509.Certificate.t list -> t
(** Bulk-load a firmware store; duplicates (by equivalence) collapse,
    first occurrence wins. *)

val add : t -> actor -> provenance -> Tangled_x509.Certificate.t -> (t, error) result
val remove : t -> actor -> Tangled_x509.Certificate.t -> (t, error) result
val disable : t -> actor -> Tangled_x509.Certificate.t -> (t, error) result
val enable : t -> actor -> Tangled_x509.Certificate.t -> (t, error) result

val merge : t -> t -> t
(** [merge a b] is [a] extended with [b]'s entries ([a] wins on
    conflicts); used to assemble firmware images (AOSP base + vendor +
    operator overlays). *)

val mem : t -> Tangled_x509.Certificate.t -> bool
(** Membership by equivalence key, enabled entries only. *)

val mem_key : t -> string -> bool
(** Membership by a precomputed {!Tangled_x509.Certificate.equivalence_key}. *)

val id_set : Tangled_engine.Interner.t -> t -> Tangled_engine.Id_set.t
(** The enabled membership projected onto interned root ids — the form
    every coverage-index query consumes.  Keys unknown to the interner
    (certificates the universe never minted, e.g. user imports) are
    dropped: they cannot anchor an indexed chain. *)

val find_by_subject : t -> Tangled_x509.Dn.t -> entry list
(** All enabled entries whose certificate subject matches — chain
    building's issuer lookup. *)

val entries : t -> entry list
(** All entries, disabled included, in insertion order. *)

val certs : t -> Tangled_x509.Certificate.t list
(** Enabled certificates in insertion order. *)

val cardinal : t -> int
(** Number of enabled entries. *)

val provenance_counts : t -> (provenance * int) list
(** Enabled-entry census by provenance (provenances collapsed by
    constructor argument equality). *)

val diff : t -> t -> Tangled_x509.Certificate.t list * Tangled_x509.Certificate.t list
(** [diff device baseline] is [(additions, missing)] by equivalence
    key — the Figure 1 measurement. *)

type journal_event = {
  actor : actor;
  action : [ `Add | `Remove | `Disable | `Enable ];
  subject : string;
}

val journal : t -> journal_event list
(** Audit log of every successful mutation since construction, oldest
    first.  System-image loads are not journalled: the paper's point is
    that post-factory mutations are what users never see. *)

val to_pem : t -> string
(** All enabled certificates as concatenated PEM blocks, mirroring
    /system/etc/security/cacerts. *)

val of_pem : string -> provenance -> string -> (t, string) result
(** [of_pem name provenance pem] loads a store from concatenated PEM
    blocks, as {!of_certs} does from a list.  Blocks labelled other than
    CERTIFICATE are skipped.  A CERTIFICATE block whose DER does not
    decode fails the load with ["block N: <reason>"] (N counts every
    block from 1), as does any block {!Tangled_x509.Pem.decode_all}
    rejects: a damaged certificate is never silently left out. *)
