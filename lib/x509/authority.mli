(** Certificate issuance: a keyed authority that signs subordinate
    certificates, used by the PKI generator, the MITM proxy (which
    mints rogue authorities on the fly) and the tests. *)

type t = {
  certificate : Certificate.t;
  key : Tangled_crypto.Rsa.private_key;
}

val self_signed :
  ?bits:int ->
  ?serial:Tangled_numeric.Bigint.t ->
  ?digest:Tangled_hash.Digest_kind.t ->
  ?path_len:int ->
  ?not_before:Tangled_util.Timestamp.t ->
  ?not_after:Tangled_util.Timestamp.t ->
  ?version:int ->
  Tangled_util.Prng.t ->
  Dn.t ->
  t
(** [self_signed rng dn] generates a key and a self-signed CA
    certificate.  Defaults: 512-bit key, SHA-256, serial 1, validity
    2000-01-01 to 2030-01-01, v3 with CA basicConstraints and
    keyCertSign usage.  [~version:1] issues a legacy v1 root with no
    extensions, as several of the paper's older roots are. *)

val issue_intermediate :
  ?bits:int ->
  ?serial:Tangled_numeric.Bigint.t ->
  ?digest:Tangled_hash.Digest_kind.t ->
  ?path_len:int ->
  ?not_before:Tangled_util.Timestamp.t ->
  ?not_after:Tangled_util.Timestamp.t ->
  ?key:Tangled_crypto.Rsa.private_key ->
  Tangled_util.Prng.t ->
  parent:t ->
  Dn.t ->
  t
(** A subordinate CA signed by [parent].  [key] supplies the subject
    keypair instead of generating one — bulk generators reuse a small
    key pool, since the analysis never depends on subject-key
    uniqueness of non-root certificates. *)

val issue_leaf :
  ?bits:int ->
  ?serial:Tangled_numeric.Bigint.t ->
  ?digest:Tangled_hash.Digest_kind.t ->
  ?ekus:Certificate.ext_key_usage list ->
  ?not_before:Tangled_util.Timestamp.t ->
  ?not_after:Tangled_util.Timestamp.t ->
  ?key:Tangled_crypto.Rsa.private_key ->
  Tangled_util.Prng.t ->
  parent:t ->
  dns_names:string list ->
  Dn.t ->
  Certificate.t
(** An end-entity certificate signed by [parent].  The private key of a
    leaf is not retained — the simulation never needs it.  The record
    is built from the fields just encoded ({!Certificate.assemble_trusted}),
    not re-decoded from the DER. *)

val renew :
  ?serial:Tangled_numeric.Bigint.t ->
  ?not_before:Tangled_util.Timestamp.t ->
  ?not_after:Tangled_util.Timestamp.t ->
  t ->
  t
(** [renew t] re-issues [t]'s self-signed certificate with the same key
    and subject but a new validity window and serial.  The result is
    byte-distinct yet {e equivalent} in the paper's (subject, modulus)
    sense — it validates the same children (§4.2). *)

val reissue_as :
  ?serial:Tangled_numeric.Bigint.t ->
  ?bits:int ->
  Tangled_util.Prng.t ->
  parent:t ->
  Certificate.t ->
  Certificate.t
(** [reissue_as ~parent cert] mints a certificate with [cert]'s subject,
    validity and DNS names but [parent]'s signature and a fresh key —
    exactly what an intercepting HTTPS proxy does on the fly (§7). *)
