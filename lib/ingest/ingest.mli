(** Gracefully-degrading ingestion of the exported datasets — the
    inverse of {!Tangled_core.Export}.

    Field data arrives damaged: truncated uploads, replayed sessions,
    broken device clocks, bit rot.  This layer parses the session log,
    the Notary DB and the store dumps {e record by record}, validates
    each record against its schema, classifies every failure into a
    typed taxonomy, quarantines bad records with reasons, deduplicates
    replays, reconciles what arrived against the manifest's control
    totals — and {e never raises}, whatever the input.

    Accepted records are reconstructed into view types mirroring
    [Tangled_netalyzr.Netalyzr.session] / [Tangled_notary.Notary.chain]
    summaries, with the aggregate API the analyses consume. *)

(** {1 Error taxonomy} *)

type reason =
  | Malformed_json of string  (** the record is not JSON at all *)
  | Control_bytes of string
      (** the raw record line carries NUL or other control bytes — the
          signature of binary junk spliced into the stream (a corrupted
          upload, a framing error, a hostile client).  Detected on the
          raw bytes {e before} any parse is attempted, so binary junk
          can never reach the JSON layer, let alone raise out of it.
          Tab and CR are exempt (legitimate JSON whitespace / CRLF
          line endings). *)
  | Truncated_record  (** the record text stops mid-value (partial upload) *)
  | Missing_field of string  (** a required field is absent *)
  | Type_mismatch of string  (** a field carries the wrong JSON type *)
  | Clock_skew of string
      (** a timestamp outside the plausible collection window *)
  | Duplicate_record of string  (** exact replay of an already-seen record *)
  | Conflicting_record of string
      (** same record identity, different content — both cannot be true *)
  | Bad_value of string  (** well-typed but semantically invalid *)

val reason_label : reason -> string
(** Stable taxonomy slug ("malformed-json", "control-bytes",
    "truncated-record", "missing-field", "type-mismatch", "clock-skew",
    "duplicate-record", "conflicting-record", "bad-value"). *)

val has_control_bytes : string -> bool
(** Whether the string contains a raw control byte (anything below
    0x20 except tab and CR, or DEL) — the {!Control_bytes} detection
    predicate, exposed so other framing layers (the serve loop's frame
    decoder) classify identically. *)

val reason_detail : reason -> string

val reason_of_der_error : Tangled_asn1.Der.error -> reason
(** How DER decode failures of record payloads map into the taxonomy:
    [Truncated] is a {!Truncated_record} (a cut-off upload), everything
    else a {!Bad_value}. *)

type quarantined = {
  line : int;  (** 1-based input line (the manifest is line 1) *)
  reason : reason;
  snippet : string;  (** first bytes of the offending record *)
}

(** {1 Results} *)

type stats = {
  declared : int option;  (** the manifest's control total, if present *)
  seen : int;  (** record lines/items encountered *)
  accepted : int;
  quarantined_total : int;
  replays : int;
      (** quarantined surplus copies (duplicates + conflicts) — these
          do not count against [declared] *)
  missing : int;
      (** declared records that never arrived in any recognisable
          form (dropped uploads) *)
  by_label : (string * int) list;  (** taxonomy label -> count, desc *)
  input_sha256 : string;
      (** lowercase hex SHA-256 of the raw input bytes, absorbed while
          the line scanner walks the buffer — a control total for what
          was actually ingested.  Deliberately not part of
          {!render_stats} (report output is byte-stable across PRs). *)
}

type 'a ingest = {
  header : (string * Tangled_util.Json.t) list;  (** manifest fields *)
  records : 'a array;  (** accepted records, input order *)
  quarantine : quarantined list;
  stats : stats;
}

(** {1 Record views} *)

type probe_view = {
  host : string;
  port : int;
  verdict : string;
  intercepted : bool;
  chain_length : int;
}

type session_view = {
  session_id : int;
  handset_id : int;
  network : string;
  public_ip : string;
  model : string;
  os_version : string;
  manufacturer : string;
  operator : string;
  rooted : bool;
  timestamp : Tangled_util.Timestamp.t;
  store_size : int;
  aosp_present : int;
  additional : int;
  missing_baseline : int;
  additional_ids : string list;
  app_added : string list;
  probes : probe_view list;
}

type chain_view = {
  subject : string;
  issuer : string;
  not_before : Tangled_util.Timestamp.t;
  not_after : Tangled_util.Timestamp.t;
  expired : bool;
  via_intermediate : bool;
  anchor : string option;
}

type cert_view = {
  store : string;
  cert_subject : string;
  hash_id : string;
  fingerprint : string;
  cert_not_after : Tangled_util.Timestamp.t;
}

(** {1 Ingestion}

    Each entry point accepts either the JSONL form (manifest line then
    one record per line) or the single-document JSON form written by
    [Export.write_file].  Total: any byte string yields a result. *)

val sessions_of_string : string -> session_view ingest
val notary_of_string : string -> chain_view ingest
val stores_of_string : string -> cert_view ingest

(** {1 Aggregates over ingested data}

    The [Netalyzr] / [Notary] aggregate API, recomputed from accepted
    records so every headline number can be re-derived downstream. *)

val total_sessions : session_view ingest -> int
val extended_fraction : session_view ingest -> float
val rooted_fraction : session_view ingest -> float
val estimated_handsets : session_view ingest -> int
val intercepted_sessions : session_view ingest -> int

val sessions_by_model : session_view ingest -> (string * int) list
(** ["Manufacturer Model" -> sessions], descending — Table 2's left half. *)

val sessions_by_manufacturer : session_view ingest -> (string * int) list

val unexpired : chain_view ingest -> int
val total_chains : chain_view ingest -> int
val validated_fraction : chain_view ingest -> float
(** Share of unexpired chains with a verified anchor. *)

val via_intermediate_fraction : chain_view ingest -> float

val store_sizes : cert_view ingest -> (string * int) list
(** [store name -> certificates], in first-seen order — Table 1 from
    ingested data. *)

(** {1 Reporting} *)

val render_stats : title:string -> 'a ingest -> string
(** The ingest-stats report section: control-total reconciliation and
    the quarantine broken down by taxonomy label. *)
