(** X.509 v3 certificates: in-memory model, DER round-trip,
    fingerprints, and the identity relations the paper's methodology
    defines (§4.1–4.2). *)

module B := Tangled_numeric.Bigint

type key_usage =
  | Digital_signature
  | Key_cert_sign
  | Crl_sign
  | Key_encipherment

type ext_key_usage =
  | Server_auth
  | Client_auth
  | Code_signing
  | Email_protection
  | Time_stamping

type extensions = {
  basic_constraints : (bool * int option) option;
      (** [(is_ca, path_len_constraint)]; [None] when absent. *)
  key_usage : key_usage list option;
  ext_key_usage : ext_key_usage list option;
  subject_key_id : string option;
  authority_key_id : string option;
  subject_alt_names : string list;
}

val no_extensions : extensions

type t = {
  version : int;  (** 3 for v3, encoded as 2. *)
  serial : B.t;
  signature_alg : Tangled_hash.Digest_kind.t;
  issuer : Dn.t;
  not_before : Tangled_util.Timestamp.t;
  not_after : Tangled_util.Timestamp.t;
  subject : Dn.t;
  public_key : Tangled_crypto.Rsa.public;
  extensions : extensions;
  tbs_der : string;  (** DER of the TBSCertificate actually signed. *)
  signature : string;
  raw : string;  (** Full DER of the certificate. *)
}

val build_tbs :
  version:int ->
  serial:B.t ->
  signature_alg:Tangled_hash.Digest_kind.t ->
  issuer:Dn.t ->
  not_before:Tangled_util.Timestamp.t ->
  not_after:Tangled_util.Timestamp.t ->
  subject:Dn.t ->
  public_key:Tangled_crypto.Rsa.public ->
  extensions:extensions ->
  string
(** DER of the TBSCertificate, the byte string an issuer signs. *)

val assemble :
  tbs_der:string ->
  signature_alg:Tangled_hash.Digest_kind.t ->
  signature:string ->
  (t, string) result
(** Wrap a signed TBS into a full certificate (re-parsing the TBS so
    the model and the bytes cannot diverge). *)

val assemble_trusted :
  version:int ->
  serial:B.t ->
  signature_alg:Tangled_hash.Digest_kind.t ->
  issuer:Dn.t ->
  not_before:Tangled_util.Timestamp.t ->
  not_after:Tangled_util.Timestamp.t ->
  subject:Dn.t ->
  public_key:Tangled_crypto.Rsa.public ->
  extensions:extensions ->
  tbs_der:string ->
  signature:string ->
  t
(** Like {!assemble} but trusting the caller's fields instead of
    re-parsing the TBS it just encoded — for issuers on the bulk path
    whose [tbs_der] came from {!build_tbs} over these exact fields.
    [decode (assemble_trusted ...).raw] gives back the same record
    field for field (a QCheck property in test_x509 pins this);
    hand-rolled TBS bytes must go through {!assemble}. *)

val decode : string -> (t, string) result
(** Parse a DER certificate. *)

val encode : t -> string
(** The certificate's bytes ([raw]). *)

val fingerprint : ?alg:Tangled_hash.Digest_kind.t -> t -> string
(** Digest of [raw]; SHA-256 by default. *)

val subject_hash32 : t -> string
(** First 32 bits of the SHA-1 of the encoded subject, rendered as 8
    hex digits — the bracketed ids the paper prints in Figure 2. *)

val equivalence_key : t -> string
(** The paper's certificate identity: subject string together with the
    RSA key modulus.  Two byte-distinct certificates with equal keys
    can validate the same children (§4.2). *)

val byte_identity : t -> string
(** SHA-256 of the full DER — the strict alternative identity, kept for
    the identity-definition ablation. *)

val is_ca : t -> bool
(** True when basicConstraints marks a CA, or (legacy v1 roots) when
    the certificate is self-issued and has no extensions at all. *)

val is_self_signed : t -> bool
(** Subject equals issuer and the signature verifies under the
    certificate's own key. *)

val verify_signature : t -> issuer_key:Tangled_crypto.Rsa.public -> bool

val valid_at : t -> Tangled_util.Timestamp.t -> bool

val allows_server_auth : t -> bool
(** EKU absent or containing serverAuth. *)

val pp : Format.formatter -> t -> unit
(** One-line human summary. *)

val pp_details : Format.formatter -> t -> unit
(** Multi-line openssl-text-style dump. *)
