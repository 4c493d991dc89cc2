(** Deterministic fault injection over serialized datasets.

    The measurement pipeline's field data — Netalyzr session uploads
    and Notary chain records — arrives truncated, duplicated,
    clock-skewed and malformed in the real world.  This module turns a
    pristine JSONL export (one manifest line followed by one record
    per line, see {!Tangled_core.Export}) into a realistically damaged
    one, deterministically from a seed, and returns a ledger tagging
    every injected fault so the ingestion layer's quarantine can be
    audited fault-by-fault. *)

type kind =
  | Bit_flip
      (** one bit of the serialized record flipped in transit.  The
          flip lands in the record's structural prefix so corruption is
          always {e detectable} (broken syntax or a renamed required
          field); silent payload-content flips are a data-integrity
          threat model, not a robustness one, and are out of scope. *)
  | Truncate  (** the upload stopped mid-record: a strict prefix survives *)
  | Drop  (** the record never arrived *)
  | Duplicate  (** a replayed upload: the record arrives twice *)
  | Missing_field  (** a required field is absent from the record *)
  | Type_confusion  (** a field carries a value of the wrong JSON type *)
  | Clock_skew
      (** the record's timestamp is far outside the plausible
          collection window (a device with a broken clock) *)
  | Identity_conflict
      (** a replayed session id carrying a {e different} identity
          tuple — two uploads that cannot both be true *)

val all_kinds : kind list
val kind_to_string : kind -> string

(** {1 Severity}

    Whether a fault of this kind is worth retrying.  The serving
    layer's retry/backoff policy keys on this split: a {e transient}
    fault is transport-induced — the pristine source still exists, so
    re-reading (re-requesting the upload, re-opening the store
    snapshot) can plausibly succeed.  A {e permanent} fault is poison
    at the source — the bytes that arrive on retry are the same bad
    bytes, so the only correct move is to quarantine and answer with a
    typed error. *)

type severity =
  | Transient
      (** retryable: {!Bit_flip}, {!Truncate}, {!Drop}, {!Duplicate} —
          corruption or loss in transit; the sender's copy is intact *)
  | Permanent
      (** poison: {!Missing_field}, {!Type_confusion}, {!Clock_skew},
          {!Identity_conflict} — the record was already wrong when it
          was produced; retrying re-reads the same wrong record *)

val classify : kind -> severity
val severity_to_string : severity -> string

type injection = {
  seq : int;  (** injection ordinal, 0-based *)
  kind : kind;
  record : int;  (** 0-based index of the victim in the clean record stream *)
  key : string option;
      (** the record's identity (session id / subject) when parseable *)
  field : string option;  (** field targeted by field-level faults *)
  out_line : int option;
      (** 1-based line of the faulty record in the corrupted document
          (the manifest is line 1); [None] for {!Drop} *)
  note : string;  (** human-readable description of what was done *)
}

val inject :
  seed:int -> rate:float -> string -> string * injection list
(** [inject ~seed ~rate doc] corrupts the JSONL document [doc]: each
    record independently suffers one fault with probability [rate],
    the kind drawn uniformly from {!all_kinds} filtered to those
    applicable to the record.  The manifest line is never touched.
    Deterministic in [seed]; [rate = 0] is the identity.  Returns the
    corrupted document and the ledger in record order. *)
