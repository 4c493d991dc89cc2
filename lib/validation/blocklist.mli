(** Compromise handling (§2).

    The paper recalls that root-store CAs (Comodo, Türktrust) have been
    compromised, and that Android 4.4 added detection of fraudulently
    issued Google certificates.  This module models both platform
    responses: a public-key blocklist (the DigiNotar treatment) and
    per-subject issuance pins (the 4.4 Google-certificate check), each
    enforceable as an extra gate in front of {!Chain.validate}. *)

type t

val empty : t

val block_key : t -> Tangled_x509.Certificate.t -> t
(** Distrust the certificate's public key: any chain element carrying
    (or signed into existence below) this key is rejected.  Blocking is
    by key, not by certificate bytes, so re-issued variants of a
    compromised CA stay blocked. *)

val pin_issuer : t -> subject_cn:string -> Tangled_x509.Certificate.t -> t
(** [pin_issuer t ~subject_cn ca] records that end-entity certificates
    whose subject CN equals (or is a subdomain of) [subject_cn] must
    chain to [ca]'s key — the Android 4.4 rule for google.com. *)

val blocked_keys : t -> int
val pinned_subjects : t -> int

type rejection =
  | Blocked_key of Tangled_x509.Dn.t
      (** the chain contains a blocklisted public key *)
  | Issuer_pin_violation of string
      (** a pinned subject's chain anchors outside its allowed set *)

val rejection_to_string : rejection -> string

val validate :
  t ->
  now:Tangled_util.Timestamp.t ->
  store:Tangled_store.Root_store.t ->
  Tangled_x509.Certificate.t list ->
  (Tangled_x509.Certificate.t, [ `Chain of Chain.failure | `Screen of rejection ]) result
(** {!Chain.validate}, then the screen of the validated chain (leaf
    first) and its anchor: a blocklisted key anywhere in it, or a
    pinned subject anchored outside its allowed set, rejects it. *)
