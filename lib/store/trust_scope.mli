(** Trust scoping, the paper's §8 recommendation.

    Android (as of the study) applies every root-store certificate to
    every operation, "from TLS server verification to code signing",
    unlike Mozilla's per-trust-bit model (§2).  This module adds the
    missing notion: a scope per certificate, inferred or declared, and
    a filtered view of a store for one operation. *)

type scope =
  | Tls_server       (** WebTrust-style server authentication *)
  | Code_signing
  | Email
  | Device_services  (** FOTA, SUPL, operator APIs — the §5.1 specials *)

val all_scopes : scope list

val infer : Tangled_x509.Certificate.t -> scope list
(** Best-effort scope inference from the certificate itself: extended
    key usage when present; otherwise heuristics on the subject (the
    FOTA/SUPL/UTI/timestamping-style names the paper lists as never
    appearing in TLS traffic map to [Device_services] or
    [Code_signing]); a bare CA defaults to every scope, which is
    exactly Android's behaviour. *)

val restrict :
  Root_store.t -> scope -> (Tangled_x509.Certificate.t -> scope list) -> Root_store.t
(** [restrict store scope scopes_of] disables every enabled entry whose
    scopes do not include [scope] — a Mozilla-style view of an Android
    store.  Disabling uses the privileged path (it models a platform
    change, not a user action). *)
