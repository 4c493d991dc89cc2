(** Machine-readable dataset exports: the Netalyzr session log, the
    Notary certificate database and the official stores, in the shapes
    a downstream analysis (outside this library) would consume.

    One format, JSONL, the one the ingestion layer reads back: line 1
    is a manifest object carrying the metadata and an
    [exported_sessions] / [exported_chains] / [total_certificates]
    control total, then one record per line.  Per-record framing means
    one damaged record quarantines one record, never the document. *)

val official_stores : Pipeline.t -> Tangled_store.Root_store.t list
(** Every official store the study compares, in Table 1 order. *)

val sessions_jsonl : ?limit:int -> Pipeline.t -> string
(** The Netalyzr dataset: collection metadata, then one record per
    session (identity tuple, store summary, probe results).  [limit]
    keeps the first N sessions. *)

val notary_jsonl : ?limit:int -> Pipeline.t -> string
(** The Notary database: the aggregate per-store counts, then one
    record per chain (leaf subject, issuer, validity, anchor).
    [limit] keeps the first N chains. *)

val stores_jsonl : Pipeline.t -> string
(** The official stores: their sizes, then one record per certificate
    (store, subject, hash id, fingerprint, expiry). *)

val write_text : string -> string -> unit
