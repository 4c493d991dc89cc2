module J = Tangled_util.Json
module Ts = Tangled_util.Timestamp
module T = Tangled_util.Text_table
module Der = Tangled_asn1.Der
module H = Tangled_hash.Sha256
module Obs = Tangled_obs.Obs

(* per-record ingest instrumentation: latency distribution plus
   accept/quarantine counters; every quarantined record also lands in
   the bounded event log with its taxonomy label.  Observability only —
   the ingest stats the report renders never read these. *)
let record_latency = Obs.histogram "ingest.record_seconds"
let accepted_counter = Obs.counter "ingest.accepted"
let quarantined_counter = Obs.counter "ingest.quarantined"

(* --- taxonomy ---------------------------------------------------------- *)

type reason =
  | Malformed_json of string
  | Control_bytes of string
  | Truncated_record
  | Missing_field of string
  | Type_mismatch of string
  | Clock_skew of string
  | Duplicate_record of string
  | Conflicting_record of string
  | Bad_value of string

let reason_label = function
  | Malformed_json _ -> "malformed-json"
  | Control_bytes _ -> "control-bytes"
  | Truncated_record -> "truncated-record"
  | Missing_field _ -> "missing-field"
  | Type_mismatch _ -> "type-mismatch"
  | Clock_skew _ -> "clock-skew"
  | Duplicate_record _ -> "duplicate-record"
  | Conflicting_record _ -> "conflicting-record"
  | Bad_value _ -> "bad-value"

let reason_detail = function
  | Malformed_json m -> m
  | Control_bytes d -> d
  | Truncated_record -> "record text ends mid-value"
  | Missing_field f -> "required field " ^ f ^ " absent"
  | Type_mismatch f -> "field " ^ f ^ " has the wrong type"
  | Clock_skew d -> d
  | Duplicate_record k -> "replay of record " ^ k
  | Conflicting_record k -> "conflicting content for record " ^ k
  | Bad_value d -> d

type quarantined = { line : int; reason : reason; snippet : string }

type stats = {
  declared : int option;
  seen : int;
  accepted : int;
  quarantined_total : int;
  replays : int;
  missing : int;
  by_label : (string * int) list;
  input_sha256 : string;
}

type 'a ingest = {
  records : 'a array;
  quarantine : quarantined list;
  stats : stats;
}

(* --- schema field helpers ---------------------------------------------- *)

let ( let* ) = Result.bind

let str name json =
  match J.member name json with
  | Some (J.String s) -> Ok s
  | Some _ -> Error (Type_mismatch name)
  | None -> Error (Missing_field name)

let int name json =
  match J.member name json with
  | Some (J.Int n) -> Ok n
  | Some _ -> Error (Type_mismatch name)
  | None -> Error (Missing_field name)

let nonneg name json =
  let* n = int name json in
  if n < 0 then Error (Bad_value (name ^ " is negative")) else Ok n

let bool name json =
  match J.member name json with
  | Some (J.Bool b) -> Ok b
  | Some _ -> Error (Type_mismatch name)
  | None -> Error (Missing_field name)

let str_list name json =
  match J.member name json with
  | Some (J.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.String s :: rest -> go (s :: acc) rest
        | _ -> Error (Type_mismatch name)
      in
      go [] items
  | Some _ -> Error (Type_mismatch name)
  | None -> Error (Missing_field name)

let timestamp name json =
  let* s = str name json in
  match Ts.of_utc_string s with
  | Some t -> Ok t
  | None -> Error (Bad_value (Printf.sprintf "unparseable timestamp %s %S" name s))

let in_window name t lo hi =
  if Ts.compare t lo < 0 || Ts.compare t hi > 0 then
    Error
      (Clock_skew
         (Printf.sprintf "%s %s outside plausible window [%s, %s]" name
            (Ts.to_utc_string t) (Ts.to_utc_string lo) (Ts.to_utc_string hi)))
  else Ok t

(* --- record views ------------------------------------------------------ *)

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
  timestamp : Ts.t;
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
  not_before : Ts.t;
  not_after : Ts.t;
  expired : bool;
  via_intermediate : bool;
  anchor : string option;
}

type cert_view = {
  store : string;
  cert_subject : string;
  hash_id : string;
  fingerprint : string;
  cert_not_after : Ts.t;
}

(* The Netalyzr collection ran Nov 2012 – Apr 2014; anything outside a
   generous bracket of that window is a broken device clock. *)
let session_window_lo = Ts.of_date 2012 1 1
let session_window_hi = Ts.of_date 2014 12 31

(* Leaves observed by the Notary must have been issued by the end of
   collection and expire within the X.509 UTCTime horizon. *)
let issue_window_lo = Ts.of_date 2000 1 1
let issue_window_hi = Ts.of_date 2014 12 31
let utctime_horizon = Ts.of_date 2049 12 31

let probe_of_json json =
  let* host = str "host" json in
  let* port = nonneg "port" json in
  let* verdict = str "verdict" json in
  let* intercepted = bool "intercepted" json in
  let* chain_length = nonneg "chain_length" json in
  Ok { host; port; verdict; intercepted; chain_length }

let probes_of_json name json =
  match J.member name json with
  | Some (J.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* p = probe_of_json item in
            go (p :: acc) rest
      in
      go [] items
  | Some _ -> Error (Type_mismatch name)
  | None -> Error (Missing_field name)

let session_of_json json =
  let* session_id = nonneg "session_id" json in
  let* handset_id = nonneg "handset_id" json in
  let* network = str "network" json in
  let* public_ip = str "public_ip" json in
  let* model = str "model" json in
  let* os_version = str "os_version" json in
  let* manufacturer = str "manufacturer" json in
  let* operator = str "operator" json in
  let* rooted = bool "rooted" json in
  let* ts = timestamp "timestamp" json in
  let* timestamp = in_window "timestamp" ts session_window_lo session_window_hi in
  let* store_size = nonneg "store_size" json in
  let* aosp_present = nonneg "aosp_present" json in
  let* additional = nonneg "additional" json in
  let* missing_baseline = nonneg "missing" json in
  let* additional_ids = str_list "additional_ids" json in
  let* app_added = str_list "app_added" json in
  let* probes = probes_of_json "probes" json in
  Ok
    {
      session_id; handset_id; network; public_ip; model; os_version;
      manufacturer; operator; rooted; timestamp; store_size; aosp_present;
      additional; missing_baseline; additional_ids; app_added; probes;
    }

let chain_of_json json =
  let* subject = str "subject" json in
  let* issuer = str "issuer" json in
  let* nb = timestamp "not_before" json in
  let* not_before = in_window "not_before" nb issue_window_lo issue_window_hi in
  let* na = timestamp "not_after" json in
  let* not_after = in_window "not_after" na not_before utctime_horizon in
  let* expired = bool "expired" json in
  let* via_intermediate = bool "via_intermediate" json in
  let* anchor =
    match J.member "anchor" json with
    | Some J.Null -> Ok None
    | Some (J.String s) -> Ok (Some s)
    | Some _ -> Error (Type_mismatch "anchor")
    | None -> Error (Missing_field "anchor")
  in
  Ok { subject; issuer; not_before; not_after; expired; via_intermediate; anchor }

(* DER decode failures from record payloads land in the quarantine
   taxonomy instead of raising: a cut-off upload is a truncation, any
   other malformation is a bad value. *)
let reason_of_der_error = function
  | Der.Truncated -> Truncated_record
  | e -> Bad_value ("der: " ^ Der.error_to_string e)

let cert_of_json json =
  let* store = str "store" json in
  let* cert_subject = str "subject" json in
  let* hash_id = str "hash_id" json in
  let* fingerprint = str "fingerprint_sha256" json in
  let* na = timestamp "not_after" json in
  let* cert_not_after =
    in_window "not_after" na (Ts.of_date 1950 1 1) utctime_horizon
  in
  (* optional raw certificate bytes: when present they must be hex
     over well-formed DER *)
  let* () =
    match J.member "der" json with
    | None -> Ok ()
    | Some (J.String h) -> (
        match Tangled_util.Hex.decode_opt h with
        | None -> Error (Bad_value "der is not hexadecimal")
        | Some raw -> (
            match Der.decode raw with
            | Ok _ -> Ok ()
            | Error e -> Error (reason_of_der_error e)))
    | Some _ -> Error (Type_mismatch "der")
  in
  Ok { store; cert_subject; hash_id; fingerprint; cert_not_after }

(* --- generic record-by-record engine ----------------------------------- *)

type 'a schema = {
  declared_field : string;  (** manifest control total *)
  of_json : J.t -> ('a, reason) result;
  identity : 'a -> string;
}

let snippet_of line =
  if String.length line <= 60 then line else String.sub line 0 60 ^ "..."

(* Raw control bytes (except tab and the CR of a CRLF ending) never
   appear in a well-formed record line; their presence is binary junk
   and is classified before any parse is attempted. *)
let has_control_bytes s =
  let n = String.length s in
  let rec go i =
    i < n
    &&
    let c = s.[i] in
    (c < ' ' && c <> '\t' && c <> '\r') || c = '\x7f' || go (i + 1)
  in
  go 0

let control_bytes_msg = "record line carries raw NUL/control bytes"

(* Header heuristic: the first non-empty line is a manifest iff it
   parses to an object that looks like one (carries the control total
   or a "kind" tag) rather than like a record. *)
let looks_like_header schema fields =
  List.mem_assoc "kind" fields || List.mem_assoc schema.declared_field fields

(* The end of the line that starts at [i]: its newline, or the end of
   the input. *)
let line_end input i =
  match String.index_from_opt input i '\n' with
  | Some j -> j
  | None -> String.length input

(* One pass over the input: each line is absorbed into the input
   digest and, unless blank, read as the manifest or classified as a
   record before the next line is scanned.  Line numbers are the
   1-based physical lines of the input, blank ones included, so a
   quarantine entry points at its line of the file.  The digest is
   SHA-256 over the raw input, a control total for the bytes that were
   actually ingested. *)
let run schema input =
  Obs.span "ingest.run" @@ fun () ->
  let ctx = H.init () in
  let seen_keys : (string, 'a) Hashtbl.t = Hashtbl.create 1024 in
  let declared = ref None in
  let accepted = ref [] in
  let quarantine = ref [] in
  let n_seen = ref 0 in
  let n_accepted = ref 0 in
  let n_replays = ref 0 in
  let put line reason snippet =
    Obs.incr quarantined_counter;
    Obs.event "ingest.quarantine"
      ~fields:[ ("label", reason_label reason); ("line", string_of_int line) ];
    quarantine := { line; reason; snippet } :: !quarantine
  in
  (* control bytes before any parse, then syntax, schema and identity *)
  let record line text =
    incr n_seen;
    Obs.time_histogram record_latency @@ fun () ->
    if has_control_bytes text then
      put line (Control_bytes control_bytes_msg) (snippet_of text)
    else
      match J.parse text with
      | Error msg ->
          let reason =
            if J.error_is_truncation msg then Truncated_record else Malformed_json msg
          in
          put line reason (snippet_of text)
      | Ok json -> (
          (* a parsed record is re-printed for its snippet only when it
             is quarantined *)
          let reject reason = put line reason (snippet_of (J.to_string json)) in
          match json with
          | J.Obj _ -> (
              match schema.of_json json with
              | Error reason -> reject reason
              | Ok v -> (
                  let key = schema.identity v in
                  match Hashtbl.find_opt seen_keys key with
                  | None ->
                      Hashtbl.add seen_keys key v;
                      accepted := v :: !accepted;
                      Obs.incr accepted_counter;
                      incr n_accepted
                  | Some prior when prior = v ->
                      incr n_replays;
                      reject (Duplicate_record key)
                  | Some _ ->
                      incr n_replays;
                      reject (Conflicting_record key)))
          | _ -> reject (Bad_value "record is not a JSON object"))
  in
  let n = String.length input in
  let i = ref 0 and line = ref 1 and first = ref true in
  while !i < n do
    let j = line_end input !i in
    H.feed_sub ctx input ~off:!i ~len:(Stdlib.min (j + 1) n - !i);
    if j > !i then begin
      let text = String.sub input !i (j - !i) in
      (if not !first then record !line text
       else
         match J.parse text with
         | Ok (J.Obj fields) when looks_like_header schema fields ->
             declared :=
               (match List.assoc_opt schema.declared_field fields with
               | Some (J.Int d) when d >= 0 -> Some d
               | _ -> None)
         | _ -> record !line text);
      first := false
    end;
    i := j + 1;
    incr line
  done;
  let declared = !declared in
  let quarantine = List.rev !quarantine in
  let by_label =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun q ->
        let l = reason_label q.reason in
        Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
      quarantine;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> Stdlib.compare b a)
  in
  let missing =
    match declared with
    | None -> 0
    | Some d ->
        (* every non-replay quarantine entry still accounts for one
           declared record that arrived (in some damaged form) *)
        Stdlib.max 0 (d - !n_accepted - (List.length quarantine - !n_replays))
  in
  {
    records = Array.of_list (List.rev !accepted);
    quarantine;
    stats =
      {
        declared;
        seen = !n_seen;
        accepted = !n_accepted;
        quarantined_total = List.length quarantine;
        replays = !n_replays;
        missing;
        by_label;
        input_sha256 = Tangled_util.Hex.encode (H.finalize ctx);
      };
  }

(* --- the three dataset schemas ----------------------------------------- *)

let session_schema =
  {
    declared_field = "exported_sessions";
    of_json = session_of_json;
    identity = (fun s -> string_of_int s.session_id);
  }

let chain_schema =
  {
    declared_field = "exported_chains";
    of_json = chain_of_json;
    identity = (fun c -> c.subject);
  }

let cert_schema =
  {
    declared_field = "total_certificates";
    of_json = cert_of_json;
    identity = (fun c -> c.store ^ "/" ^ c.fingerprint);
  }

let sessions_of_string input = run session_schema input
let notary_of_string input = run chain_schema input
let stores_of_string input = run cert_schema input

(* [run] reads the first non-empty line as the manifest; a "kind" tag
   makes it one for every schema. *)
let manifest_kind input =
  let rec first i =
    if i >= String.length input then None
    else
      let j = line_end input i in
      if j > i then Some (String.sub input i (j - i)) else first (j + 1)
  in
  match Option.map J.parse (first 0) with
  | Some (Ok (J.Obj fields)) -> (
      match List.assoc_opt "kind" fields with
      | Some (J.String k) -> Some k
      | _ -> None)
  | _ -> None

(* --- aggregates -------------------------------------------------------- *)

let fraction pred t =
  Tangled_util.Stats.fraction pred t.records

let total_sessions (t : session_view ingest) = Array.length t.records
let extended_fraction t = fraction (fun s -> s.additional > 0) t
let rooted_fraction t = fraction (fun s -> s.rooted) t

let estimated_handsets (t : session_view ingest) =
  let set = Hashtbl.create 1024 in
  Array.iter
    (fun s -> Hashtbl.replace set (s.network, s.public_ip, s.model, s.os_version) ())
    t.records;
  Hashtbl.length set

let intercepted_sessions (t : session_view ingest) =
  Array.to_list t.records
  |> List.filter (fun s -> List.exists (fun p -> p.intercepted) s.probes)
  |> List.length

let unexpired (t : chain_view ingest) =
  Array.to_list t.records |> List.filter (fun c -> not c.expired) |> List.length

let total_chains (t : chain_view ingest) = Array.length t.records

let validated_fraction (t : chain_view ingest) =
  let unexp = Array.to_list t.records |> List.filter (fun c -> not c.expired) in
  match unexp with
  | [] -> 0.0
  | _ ->
      float_of_int (List.length (List.filter (fun c -> c.anchor <> None) unexp))
      /. float_of_int (List.length unexp)

let via_intermediate_fraction t = fraction (fun c -> c.via_intermediate) t

let store_sizes (t : cert_view ingest) =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      if not (Hashtbl.mem tbl c.store) then order := c.store :: !order;
      Hashtbl.replace tbl c.store
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c.store)))
    t.records;
  List.rev_map (fun s -> (s, Hashtbl.find tbl s)) !order

(* --- reporting --------------------------------------------------------- *)

let render_stats ~title t =
  let s = t.stats in
  let kv =
    [
      ("records declared", match s.declared with Some d -> T.fmt_int d | None -> "-");
      ("records seen", T.fmt_int s.seen);
      ("accepted", T.fmt_int s.accepted);
      ("quarantined", T.fmt_int s.quarantined_total);
      ("  of which replays", T.fmt_int s.replays);
      ("missing (never arrived)", T.fmt_int s.missing);
    ]
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b (T.render_kv ~title kv);
  if s.by_label <> [] then begin
    Buffer.add_char b '\n';
    Buffer.add_string b
      (T.render ~title:"Quarantine taxonomy" ~aligns:[ T.Left; T.Right ]
         ~header:[ "reason"; "records" ]
         (List.map (fun (l, n) -> [ l; string_of_int n ]) s.by_label))
  end;
  Buffer.contents b
