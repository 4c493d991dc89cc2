(** The fault kinds: how field data — Netalyzr session uploads, Notary
    chain records, store/index accesses — arrives damaged in the real
    world, and whether retrying can help.

    The serving layer's retry policy reads {!classify}.  The seeded
    corruption operators that inject each kind into an exported JSONL
    dataset, and the oracle that accounts for every injected fault in
    the ingest quarantine, live with the tests ([test/fault_inject.ml],
    [test/test_ingest.ml]). *)

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
