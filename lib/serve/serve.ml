module J = Tangled_util.Json
module Ts = Tangled_util.Timestamp
module Hex = Tangled_util.Hex
module T = Tangled_util.Text_table
module C = Tangled_x509.Certificate
module Rs = Tangled_store.Root_store
module Chain = Tangled_validation.Chain
module BP = Tangled_pki.Blueprint
module Pop = Tangled_device.Population
module Notary = Tangled_notary.Notary
module Pipeline = Tangled_core.Pipeline
module Export = Tangled_core.Export
module Fault = Tangled_fault.Fault
module Ingest = Tangled_ingest.Ingest
module Obs = Tangled_obs.Obs
module Cache = Tangled_cache.Cache
module Ct_log = Tangled_ct.Log
module Ct_proof = Tangled_ct.Proof
module Fleet = Tangled_ct.Fleet

(* v2 = v1 + the ct-* read ops.  Every v1 frame is still decoded and
   answered exactly as before; see the README serve section for the
   negotiation rule. *)
let protocol_version = "tangled-serve/2"

(* --- observability ------------------------------------------------------ *)

let queue_gauge = Obs.gauge "serve.queue_depth"
let c_answered = Obs.counter "serve.answered"
let c_errors = Obs.counter "serve.typed_errors"
let c_timeouts = Obs.counter "serve.timeouts"
let c_shed = Obs.counter "serve.shed"
let c_refused = Obs.counter "serve.refused_draining"
let c_quarantined = Obs.counter "serve.quarantined"
let c_retries = Obs.counter "serve.retries"

(* one latency histogram per request class, registered up front so the
   trace always carries the full set *)
let classes =
  [ "validate"; "diff"; "coverage"; "stores"; "health"; "admin"; "malformed"; "ct" ]
let latency_of_class =
  let tbl = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace tbl c (Obs.histogram ("serve.latency." ^ c))) classes;
  fun cls -> Hashtbl.find tbl cls

(* --- configuration ------------------------------------------------------ *)

type config = {
  queue_capacity : int;
  batch : int;
  default_deadline_s : float;
  max_retries : int;
  backoff_s : float;
  max_frame_bytes : int;
  cache_capacity : int;
  ct_logs : int;
  clock : unit -> float;
  sleep : float -> unit;
  fault_hook : seq:int -> attempt:int -> Fault.kind option;
}

let default_config =
  {
    queue_capacity = 64;
    batch = 32;
    default_deadline_s = 0.25;
    max_retries = 3;
    backoff_s = 0.001;
    max_frame_bytes = 1 lsl 20;
    cache_capacity = 16384;
    ct_logs = 3;
    clock = Unix.gettimeofday;
    (* the loop is single-domain: blocking on a backoff would stall
       every queued request, so the default records the wait without
       taking it.  A multi-writer deployment would plug a real sleep. *)
    sleep = (fun _ -> ());
    fault_hook = (fun ~seq:_ ~attempt:_ -> None);
  }

(* --- control totals ----------------------------------------------------- *)

type summary = {
  seen : int;
  answered : int;
  typed_errors : int;
  timed_out : int;
  shed : int;
  refused : int;
  quarantined : int;
  retries : int;
  backoff_s_total : float;
  reloads_accepted : int;
  reloads_rejected : int;
  epoch : int;
  drained : bool;
}

let reconciled s =
  s.seen
  = s.answered + s.typed_errors + s.timed_out + s.shed + s.refused
    + s.quarantined

(* --- server state ------------------------------------------------------- *)

module Arena = Tangled_x509.Arena
module Interner = Tangled_engine.Interner

type snapshot = {
  epoch : int;
  store_sizes : (string * int) list;
  base : Arena.mark;  (** where this epoch's corpus starts in the arena *)
  count : int;  (** certificates in this epoch's corpus *)
}

type t = {
  config : config;
  world : Pipeline.t;
  corpus : Arena.t;
      (** reloaded store corpora as arena epochs: the live epoch is the
          window [snapshot.base, extent).  A reload appends
          speculatively past the extent and either commits by
          publishing the new window or vanishes via [Arena.truncate] —
          a rejected reload retains nothing, immediately, rather than
          waiting on the GC to collect a half-built boxed corpus. *)
  store_names : Interner.t;  (** store name -> corpus column id *)
  fleet : Fleet.t option;
      (** the CT log fleet (v2's ct-* ops), built once at [create] from
          the world's seed — [None] when [ct_logs] is 0.  Logs are
          append-only and no serve op mutates them, so every ct-* op is
          a pure read against a fixed structure. *)
  cache : J.t Cache.t option;
      (** request-level decision cache (lib/cache CLOCK), keyed by
          (op, canonical request parameters) and epoch-stamped with the
          snapshot epoch.  Only pure reads against the snapshot are
          cached — [validate], [diff] and [coverage] — and only their
          [ok] results; typed errors and timeouts always re-execute.
          The cache epoch rolls on {e accepted} reloads only: a
          rejected reload leaves the snapshot — and therefore every
          cached decision — untouched, so its entries and counters stay
          byte-identical.  [None] when [cache_capacity] is 0. *)
  mutable snapshot : snapshot;
  mutable draining : bool;
  mutable seq : int;  (* admitted-request ordinal, drives the fault hook *)
  mutable n_seen : int;
  mutable n_answered : int;
  mutable n_typed_errors : int;
  mutable n_timed_out : int;
  mutable n_shed : int;
  mutable n_refused : int;
  mutable n_retries : int;
  mutable backoff_total : float;
  mutable n_reloads_accepted : int;
  mutable n_reloads_rejected : int;
  mutable quarantine_rev : Ingest.quarantined list;
}

(* One arena row per ingested store certificate.  The record's payload
   is its SHA-256 fingerprint (store dumps carry no DER); columns hold
   the interned store name, the 32-bit hash id, the validity horizon
   and the fingerprint's leading 64 bits. *)
let append_corpus corpus store_names (r : Ingest.cert_view Ingest.ingest) =
  Array.iter
    (fun (v : Ingest.cert_view) ->
      let fp =
        match Hex.decode_opt v.Ingest.fingerprint with
        | Some raw -> raw
        | None -> v.Ingest.fingerprint
      in
      let key_fp =
        if String.length fp >= 8 then String.get_int64_be fp 0 else 0L
      in
      let hash_id =
        match int_of_string_opt ("0x" ^ v.Ingest.hash_id) with
        | Some h -> h
        | None -> -1
      in
      let (_ : int) =
        Arena.append corpus ~der:fp
          ~subject_id:(Interner.intern store_names v.Ingest.store)
          ~issuer_id:hash_id ~anchor_id:(-1) ~not_before:0
          ~not_after:v.Ingest.cert_not_after ~flags:0 ~key_fp
      in
      ())
    r.Ingest.records

let create ?(config = default_config) world =
  (* the epoch-1 snapshot is the world's own store dump, pushed through
     the same quarantining ingest path a reload would take *)
  let r = Ingest.stores_of_string (Export.stores_jsonl world) in
  let corpus = Arena.create () in
  let store_names = Interner.create () in
  let base = Arena.mark corpus in
  append_corpus corpus store_names r;
  {
    config;
    world;
    corpus;
    store_names;
    fleet =
      (if config.ct_logs > 0 then
         Some
           (Fleet.build ~n_logs:config.ct_logs
              ~seed:world.Pipeline.config.Pipeline.seed
              world.Pipeline.universe world.Pipeline.notary)
       else None);
    cache =
      (if config.cache_capacity > 0 then
         Some
           (Cache.create ~name:"serve.decisions"
              ~capacity:config.cache_capacity ())
       else None);
    snapshot =
      {
        epoch = 1;
        store_sizes = Ingest.store_sizes r;
        base;
        count = Array.length r.Ingest.records;
      };
    draining = false;
    seq = 0;
    n_seen = 0;
    n_answered = 0;
    n_typed_errors = 0;
    n_timed_out = 0;
    n_shed = 0;
    n_refused = 0;
    n_retries = 0;
    backoff_total = 0.0;
    n_reloads_accepted = 0;
    n_reloads_rejected = 0;
    quarantine_rev = [];
  }

let draining t = t.draining
let quarantine t = List.rev t.quarantine_rev
let ct_fleet t = t.fleet

let cache_stats t =
  Option.map
    (fun c ->
      (* sync first so the entry count is the live snapshot epoch's *)
      Cache.set_epoch c t.snapshot.epoch;
      Cache.stats c)
    t.cache

let summary t =
  {
    seen = t.n_seen;
    answered = t.n_answered;
    typed_errors = t.n_typed_errors;
    timed_out = t.n_timed_out;
    shed = t.n_shed;
    refused = t.n_refused;
    quarantined = List.length t.quarantine_rev;
    retries = t.n_retries;
    backoff_s_total = t.backoff_total;
    reloads_accepted = t.n_reloads_accepted;
    reloads_rejected = t.n_reloads_rejected;
    epoch = t.snapshot.epoch;
    drained = t.draining;
  }

(* --- frames ------------------------------------------------------------- *)

type op =
  | Validate of { store : string; chain_hex : string list }
  | Diff of { store : string; baseline : string }
  | Coverage of { root : string }
  | Stores
  | Health
  | Reload of { payload : string }
  | Drain
  | Ct_inclusion of { log : string; index : int; tree_size : int option }
  | Ct_consistency of { log : string; first : int; second : int }
  | Ct_visibility of { store : string }

let class_of_op = function
  | Validate _ -> "validate"
  | Diff _ -> "diff"
  | Coverage _ -> "coverage"
  | Stores -> "stores"
  | Health -> "health"
  | Reload _ | Drain -> "admin"
  | Ct_inclusion _ | Ct_consistency _ | Ct_visibility _ -> "ct"

type frame = { id : J.t; op : op; deadline_s : float option }

let ( let* ) = Result.bind

let str_field name json =
  match J.member name json with
  | Some (J.String s) -> Ok s
  | Some _ -> Error (Ingest.Type_mismatch name)
  | None -> Error (Ingest.Missing_field name)

let str_list_field name json =
  match J.member name json with
  | Some (J.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.String s :: rest -> go (s :: acc) rest
        | _ -> Error (Ingest.Type_mismatch name)
      in
      go [] items
  | Some _ -> Error (Ingest.Type_mismatch name)
  | None -> Error (Ingest.Missing_field name)

let int_field name json =
  match J.member name json with
  | Some (J.Int n) -> Ok n
  | Some _ -> Error (Ingest.Type_mismatch name)
  | None -> Error (Ingest.Missing_field name)

let opt_int_field name json =
  match J.member name json with
  | None -> Ok None
  | Some (J.Int n) -> Ok (Some n)
  | Some _ -> Error (Ingest.Type_mismatch name)

(* Total: any byte sequence is either a frame or a typed taxonomy
   reason — the serve analogue of the ingest record decoder, sharing
   its labels so malformed frames and malformed records read the same
   downstream. *)
let decode_frame ~max_frame_bytes line : (frame, Ingest.reason) result =
  if String.length line > max_frame_bytes then
    Error
      (Ingest.Bad_value
         (Printf.sprintf "frame of %d bytes exceeds the %d-byte bound"
            (String.length line) max_frame_bytes))
  else if Ingest.has_control_bytes line then
    Error (Ingest.Control_bytes "frame carries raw NUL/control bytes")
  else
    match J.parse line with
    | Error msg ->
        Error
          (if J.error_is_truncation msg then Ingest.Truncated_record
           else Ingest.Malformed_json msg)
    | Ok (J.Obj _ as json) ->
        let* id =
          match J.member "id" json with
          | Some ((J.Int _ | J.String _) as v) -> Ok v
          | Some _ -> Error (Ingest.Type_mismatch "id")
          | None -> Error (Ingest.Missing_field "id")
        in
        let* deadline_s =
          match J.member "deadline_ms" json with
          | None -> Ok None
          | Some (J.Int ms) when ms >= 0 -> Ok (Some (float_of_int ms /. 1000.0))
          | Some (J.Int _) -> Error (Ingest.Bad_value "deadline_ms is negative")
          | Some _ -> Error (Ingest.Type_mismatch "deadline_ms")
        in
        let* op_name = str_field "op" json in
        let* op =
          match op_name with
          | "validate" ->
              let* store = str_field "store" json in
              let* chain_hex = str_list_field "chain" json in
              Ok (Validate { store; chain_hex })
          | "diff" ->
              let* store = str_field "store" json in
              let* baseline =
                match J.member "baseline" json with
                | None -> Ok "aosp44"
                | Some (J.String s) -> Ok s
                | Some _ -> Error (Ingest.Type_mismatch "baseline")
              in
              Ok (Diff { store; baseline })
          | "coverage" ->
              let* root = str_field "root" json in
              Ok (Coverage { root })
          | "stores" -> Ok Stores
          | "health" -> Ok Health
          | "reload" ->
              let* payload = str_field "payload" json in
              Ok (Reload { payload })
          | "drain" -> Ok Drain
          | "ct-inclusion" ->
              let* log = str_field "log" json in
              let* index = int_field "index" json in
              let* tree_size = opt_int_field "tree_size" json in
              Ok (Ct_inclusion { log; index; tree_size })
          | "ct-consistency" ->
              let* log = str_field "log" json in
              let* first = int_field "first" json in
              let* second = int_field "second" json in
              Ok (Ct_consistency { log; first; second })
          | "ct-visibility" ->
              let* store = str_field "store" json in
              Ok (Ct_visibility { store })
          | other -> Error (Ingest.Bad_value ("unknown op " ^ other))
        in
        Ok { id; op; deadline_s }
    | Ok _ -> Error (Ingest.Bad_value "frame is not a JSON object")

(* --- responses ---------------------------------------------------------- *)

let respond t ~id ~status extra =
  J.to_string
    (J.Obj
       ([ ("id", id); ("status", J.String status);
          ("epoch", J.Int t.snapshot.epoch) ]
       @ extra))

let error_response t ~id ~label ~detail =
  respond t ~id ~status:"error"
    [ ("error", J.Obj [ ("label", J.String label); ("detail", J.String detail) ]) ]

(* --- op execution ------------------------------------------------------- *)

(* internal deadline signal: raised at work-unit checkpoints inside op
   execution, caught exactly one frame up in [handle_admitted] *)
exception Deadline_exceeded

let check_deadline t deadline =
  if t.config.clock () > deadline then raise Deadline_exceeded

let resolve_store t name : Rs.t option =
  match name with
  | s when String.length s > 8 && String.sub s 0 8 = "handset:" -> (
      match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
      | Some i
        when i >= 0
             && i < Array.length t.world.Pipeline.population.Pop.handsets ->
          Some t.world.Pipeline.population.Pop.handsets.(i).Pop.store
      | _ -> None)
  | s -> BP.store_of_name t.world.Pipeline.universe s

let max_chain_length = 16

let exec_validate t deadline store_name chain_hex : (J.t, string * string) result =
  match resolve_store t store_name with
  | None -> Error ("unknown-store", store_name)
  | Some store -> (
      if chain_hex = [] then Error ("bad-value", "empty chain")
      else if List.length chain_hex > max_chain_length then
        Error
          ( "bad-value",
            Printf.sprintf "chain longer than %d certificates" max_chain_length )
      else
        let rec decode acc i = function
          | [] -> Ok (List.rev acc)
          | h :: rest -> (
              check_deadline t deadline;
              match Hex.decode_opt h with
              | None -> Error ("bad-value", Printf.sprintf "chain[%d] is not hexadecimal" i)
              | Some der -> (
                  match C.decode der with
                  | Ok c -> decode (c :: acc) (i + 1) rest
                  | Error e ->
                      Error ("bad-value", Printf.sprintf "chain[%d]: %s" i e)))
        in
        match decode [] 0 chain_hex with
        | Error _ as e -> e
        | Ok certs ->
            check_deadline t deadline;
            let r = Chain.validate ~now:Ts.paper_epoch ~store certs in
            let verdict, anchor =
              match r.Chain.verdict with
              | Ok root ->
                  ("trusted", J.String (C.subject_hash32 root))
              | Error f -> (Chain.failure_to_string f, J.Null)
            in
            Ok
              (J.Obj
                 [
                   ("store", J.String store_name);
                   ("verdict", J.String verdict);
                   ("anchor", anchor);
                   ("path_len", J.Int (List.length r.Chain.path));
                 ]))

let id_list certs =
  J.List (List.filteri (fun i _ -> i < 16) certs
          |> List.map (fun c -> J.String (C.subject_hash32 c)))

let exec_diff t deadline store_name baseline_name : (J.t, string * string) result =
  match (resolve_store t store_name, resolve_store t baseline_name) with
  | None, _ -> Error ("unknown-store", store_name)
  | _, None -> Error ("unknown-store", baseline_name)
  | Some store, Some baseline ->
      check_deadline t deadline;
      let additions, missing = Rs.diff store baseline in
      Ok
        (J.Obj
           [
             ("store", J.String store_name);
             ("baseline", J.String baseline_name);
             ("store_size", J.Int (Rs.cardinal store));
             ("baseline_size", J.Int (Rs.cardinal baseline));
             ("additions", J.Int (List.length additions));
             ("missing", J.Int (List.length missing));
             ("added_ids", id_list additions);
             ("missing_ids", id_list missing);
           ])

let exec_coverage t deadline name : (J.t, string * string) result =
  let u = t.world.Pipeline.universe in
  let root =
    match BP.find_root_by_name u name with
    | Some r -> Some r
    | None -> (
        match Hashtbl.find_opt u.BP.extra_by_id name with
        | Some r -> Some r
        | None -> BP.find_root_by_key u name)
  in
  match root with
  | None -> Error ("unknown-root", name)
  | Some r ->
      check_deadline t deadline;
      let n = t.world.Pipeline.notary in
      let count = Notary.count_for_id n r.BP.id in
      let unexpired = Notary.unexpired n in
      Ok
        (J.Obj
           [
             ("root", J.String r.BP.display_name);
             ("validated", J.Int count);
             ( "share",
               J.Float (float_of_int count /. float_of_int (max 1 unexpired)) );
           ])

(* --- the ct-* ops (protocol v2) ----------------------------------------- *)

let hex_list hashes = J.List (List.map (fun h -> J.String (Hex.encode h)) hashes)

let find_ct_log t name =
  match t.fleet with
  | None -> Error ("unknown-log", "ct logs are disabled on this server")
  | Some fleet -> (
      match Fleet.find_log fleet name with
      | Some e -> Ok e
      | None ->
          Error
            ( "unknown-log",
              Printf.sprintf "no log named %s (fleet: ct0..ct%d)" name
                (Fleet.n_logs fleet - 1) ))

let exec_ct_inclusion t deadline log_name index tree_size :
    (J.t, string * string) result =
  let* e = find_ct_log t log_name in
  check_deadline t deadline;
  let log = e.Fleet.log in
  let n = match tree_size with Some n -> n | None -> Ct_log.size log in
  match (Ct_log.inclusion_proof log ~index ~tree_size:n, Ct_log.head_at log n) with
  | Error detail, _ | _, Error detail -> Error ("out-of-range", detail)
  | Ok proof, Ok root ->
      Ok
        (J.Obj
           [
             ("log", J.String log_name);
             ("index", J.Int index);
             ("tree_size", J.Int n);
             ("root", J.String (Hex.encode root));
             ("proof", hex_list proof);
           ])

let exec_ct_consistency t deadline log_name first second :
    (J.t, string * string) result =
  let* e = find_ct_log t log_name in
  check_deadline t deadline;
  let log = e.Fleet.log in
  match
    ( Ct_log.consistency_proof log ~first ~second,
      Ct_log.head_at log first,
      Ct_log.head_at log second )
  with
  | Error detail, _, _ | _, Error detail, _ | _, _, Error detail ->
      Error ("out-of-range", detail)
  | Ok proof, Ok first_root, Ok second_root ->
      Ok
        (J.Obj
           [
             ("log", J.String log_name);
             ("first", J.Int first);
             ("second", J.Int second);
             ("first_root", J.String (Hex.encode first_root));
             ("second_root", J.String (Hex.encode second_root));
             ("proof", hex_list proof);
           ])

let exec_ct_visibility t deadline store_name : (J.t, string * string) result =
  match t.fleet with
  | None -> Error ("unknown-log", "ct logs are disabled on this server")
  | Some fleet -> (
      match resolve_store t store_name with
      | None -> Error ("unknown-store", store_name)
      | Some store ->
          check_deadline t deadline;
          let r = Fleet.store_visibility fleet store_name store in
          Ok
            (J.Obj
               [
                 ("store", J.String store_name);
                 ("roots", J.Int r.Fleet.roots);
                 ("accepted", J.Int r.Fleet.accepted);
                 ("logged", J.Int r.Fleet.logged);
                 ("dark", J.Int r.Fleet.dark);
                 ( "dark_names",
                   J.List (List.map (fun n -> J.String n) r.Fleet.dark_names) );
               ]))

(* per-log tree size and head, embedded in [stores] and [health] *)
let ct_json t =
  match t.fleet with
  | None -> J.Obj [ ("enabled", J.Bool false) ]
  | Some fleet ->
      J.Obj
        [
          ("enabled", J.Bool true);
          ( "logs",
            J.List
              (Array.to_list
                 (Array.map
                    (fun (e : Fleet.entry) ->
                      J.Obj
                        [
                          ("log", J.String (Ct_log.name e.Fleet.log));
                          ("tree_size", J.Int (Ct_log.size e.Fleet.log));
                          ("head", J.String (Ct_log.head_hex e.Fleet.log));
                          ("accepted_roots", J.Int e.Fleet.accepted_roots);
                        ])
                    (Fleet.entries fleet))) );
        ]

(* decision-cache introspection, embedded in [stores] and [health]
   responses.  hits/misses/evictions are the process-global Obs
   counters behind the cache's name; entries/capacity/epoch are this
   server's instance. *)
let cache_json t =
  match t.cache with
  | None -> J.Obj [ ("enabled", J.Bool false) ]
  | Some c ->
      (* sync to the snapshot epoch first so the reported entry count
         is the live epoch's, even before the next cacheable op *)
      Cache.set_epoch c t.snapshot.epoch;
      let s = Cache.stats c in
      J.Obj
        [
          ("enabled", J.Bool true);
          ("hits", J.Int s.Cache.hits);
          ("misses", J.Int s.Cache.misses);
          ("evictions", J.Int s.Cache.evictions);
          ("entries", J.Int s.Cache.entries);
          ("capacity", J.Int s.Cache.capacity);
          ("epoch", J.Int s.Cache.epoch);
        ]

let exec_stores t : (J.t, string * string) result =
  let m = Arena.memory t.corpus in
  Ok
    (J.Obj
       [
         ("snapshot_epoch", J.Int t.snapshot.epoch);
         ( "sizes",
           J.Obj (List.map (fun (s, n) -> (s, J.Int n)) t.snapshot.store_sizes) );
         ("corpus_certs", J.Int t.snapshot.count);
         ( "corpus_bytes",
           J.Int (m.Arena.blob_bytes - t.snapshot.base.Arena.m_bytes) );
         ("cache", cache_json t);
         ("ct", ct_json t);
       ])

let exec_health t : (J.t, string * string) result =
  let s = summary t in
  Ok
    (J.Obj
       [
         ("protocol", J.String protocol_version);
         ("draining", J.Bool t.draining);
         ("queue_capacity", J.Int t.config.queue_capacity);
         ("seen", J.Int s.seen);
         ("answered", J.Int s.answered);
         ("typed_errors", J.Int s.typed_errors);
         ("timed_out", J.Int s.timed_out);
         ("shed", J.Int s.shed);
         ("quarantined", J.Int s.quarantined);
         ("retries", J.Int s.retries);
         ("cache", cache_json t);
         ("ct", ct_json t);
       ])

(* A reload goes through the same quarantining ingest path as any
   field data.  It is accepted only when it reconciles perfectly:
   nothing quarantined, nothing missing, control total honoured.
   Anything less is a poisoned update — the last good snapshot keeps
   answering and the attempt is recorded, never applied.

   The ingested corpus is appended to the epoch arena {e speculatively}:
   past the live epoch's extent, under a mark taken first.  Acceptance
   publishes the appended window as the new epoch; rejection truncates
   back to the mark, so a half-built corpus is reclaimed on the spot
   (off-heap, deterministic) instead of lingering until the GC notices.
   Readers of the live epoch are untouched either way — the committed
   prefix of an append-only arena is immutable. *)
let exec_reload t deadline payload : (J.t, string * string) result =
  check_deadline t deadline;
  let r = Ingest.stores_of_string payload in
  let st = r.Ingest.stats in
  let speculative = Arena.mark t.corpus in
  append_corpus t.corpus t.store_names r;
  let clean =
    st.Ingest.quarantined_total = 0
    && st.Ingest.missing = 0
    && (match st.Ingest.declared with
       | Some d -> d = st.Ingest.accepted
       | None -> false)
    && st.Ingest.accepted > 0
  in
  if clean then begin
    t.snapshot <-
      {
        epoch = t.snapshot.epoch + 1;
        store_sizes = Ingest.store_sizes r;
        base = speculative;
        count = Array.length r.Ingest.records;
      };
    t.n_reloads_accepted <- t.n_reloads_accepted + 1;
    Obs.event "serve.reload_accepted"
      ~fields:[ ("epoch", string_of_int t.snapshot.epoch) ];
    Ok
      (J.Obj
         [
           ("snapshot_epoch", J.Int t.snapshot.epoch);
           ("certificates", J.Int st.Ingest.accepted);
         ])
  end
  else begin
    Arena.truncate t.corpus speculative;
    t.n_reloads_rejected <- t.n_reloads_rejected + 1;
    Obs.event "serve.reload_rejected"
      ~fields:
        [
          ("quarantined", string_of_int st.Ingest.quarantined_total);
          ("missing", string_of_int st.Ingest.missing);
        ];
    Error
      ( "update-rejected",
        Printf.sprintf
          "snapshot update quarantined %d record(s), %d missing — serving \
           epoch %d unchanged"
          st.Ingest.quarantined_total st.Ingest.missing t.snapshot.epoch )
  end

let exec_uncached t deadline = function
  | Validate { store; chain_hex } -> exec_validate t deadline store chain_hex
  | Diff { store; baseline } -> exec_diff t deadline store baseline
  | Coverage { root } -> exec_coverage t deadline root
  | Stores -> exec_stores t
  | Health -> exec_health t
  | Reload { payload } -> exec_reload t deadline payload
  | Drain ->
      t.draining <- true;
      Obs.event "serve.draining";
      Ok (J.Obj [ ("draining", J.Bool true) ])
  | Ct_inclusion { log; index; tree_size } ->
      exec_ct_inclusion t deadline log index tree_size
  | Ct_consistency { log; first; second } ->
      exec_ct_consistency t deadline log first second
  | Ct_visibility { store } -> exec_ct_visibility t deadline store

(* Cacheable ops are the pure reads whose answer is a function of
   (snapshot, request parameters) alone: validate, diff, coverage.
   [stores]/[health] report live counters, [reload]/[drain] mutate —
   none of those may be replayed.  The key is a SHA-256 over the op
   tag and its NUL-delimited parameters: fixed 32 bytes resident per
   entry however long the chain hex runs. *)
let cache_key_of_op = function
  | Validate { store; chain_hex } ->
      Some (String.concat "\x00" ("validate" :: store :: chain_hex))
  | Diff { store; baseline } ->
      Some (String.concat "\x00" [ "diff"; store; baseline ])
  | Coverage { root } -> Some (String.concat "\x00" [ "coverage"; root ])
  (* the ct ops are pure reads against the append-only fleet; their
     keys still carry the snapshot epoch (via the cache's epoch stamp)
     like every other cached decision *)
  | Ct_inclusion { log; index; tree_size } ->
      Some
        (String.concat "\x00"
           [
             "ct-inclusion"; log; string_of_int index;
             (match tree_size with Some n -> string_of_int n | None -> "head");
           ])
  | Ct_consistency { log; first; second } ->
      Some
        (String.concat "\x00"
           [ "ct-consistency"; log; string_of_int first; string_of_int second ])
  | Ct_visibility { store } ->
      Some (String.concat "\x00" [ "ct-visibility"; store ])
  | Stores | Health | Reload _ | Drain -> None

let exec_op t deadline op =
  match (t.cache, cache_key_of_op op) with
  | None, _ | _, None -> exec_uncached t deadline op
  | Some cache, Some raw_key -> (
      (* the snapshot epoch only advances in [exec_reload]'s accepted
         branch, so stamping it here rolls the cache epoch on accepted
         reloads exactly — a rejected reload finds the same epoch and
         every cached decision still live *)
      Cache.set_epoch cache t.snapshot.epoch;
      let key = Tangled_hash.Sha256.digest raw_key in
      match Cache.find cache key with
      | Some result -> Ok result
      | None -> (
          match exec_uncached t deadline op with
          | Ok result as r ->
              Cache.add cache key result;
              r
          | Error _ as e -> e))

(* --- the admitted-request path ------------------------------------------ *)

(* The store/index access of request [seq] may be fault-injected by
   the chaos hook.  Transient faults retry with exponential backoff up
   to [max_retries]; a fault that outlives the retries is answered as
   a typed error, a permanent fault quarantines the poisoned request
   immediately. *)
type access = Proceed | Exhausted of Fault.kind | Poisoned of Fault.kind

let negotiate_faults t ~seq deadline =
  let rec go attempt =
    match t.config.fault_hook ~seq ~attempt with
    | None -> Proceed
    | Some kind -> (
        match Fault.classify kind with
        | Fault.Permanent -> Poisoned kind
        | Fault.Transient ->
            if attempt >= t.config.max_retries then Exhausted kind
            else begin
              let backoff =
                t.config.backoff_s *. float_of_int (1 lsl attempt)
              in
              t.n_retries <- t.n_retries + 1;
              t.backoff_total <- t.backoff_total +. backoff;
              Obs.incr c_retries;
              t.config.sleep backoff;
              check_deadline t deadline;
              go (attempt + 1)
            end)
  in
  go 0

let put_quarantine t ~frame_no reason snippet =
  Obs.incr c_quarantined;
  Obs.event "serve.quarantine"
    ~fields:
      [
        ("label", Ingest.reason_label reason);
        ("frame", string_of_int frame_no);
      ];
  t.quarantine_rev <-
    { Ingest.line = frame_no; reason; snippet } :: t.quarantine_rev

let snippet_of line =
  if String.length line <= 60 then line else String.sub line 0 60 ^ "..."

(* Decode and answer one admitted frame.  Total: every path ends in
   exactly one response and exactly one terminal-class counter. *)
let handle_admitted t ~frame_no line =
  let t0 = t.config.clock () in
  let finish cls response =
    Obs.observe (latency_of_class cls) (t.config.clock () -. t0);
    response
  in
  match decode_frame ~max_frame_bytes:t.config.max_frame_bytes line with
  | Error reason ->
      put_quarantine t ~frame_no reason (snippet_of line);
      finish "malformed"
        (error_response t ~id:J.Null ~label:(Ingest.reason_label reason)
           ~detail:(Ingest.reason_detail reason))
  | Ok frame -> (
      let cls = class_of_op frame.op in
      let deadline_s =
        Option.value ~default:t.config.default_deadline_s frame.deadline_s
      in
      let deadline = t0 +. deadline_s in
      let seq = t.seq in
      t.seq <- seq + 1;
      Obs.span ("serve." ^ cls) @@ fun () ->
      match
        (try
           match negotiate_faults t ~seq deadline with
           | Proceed -> `Done (exec_op t deadline frame.op)
           | Exhausted kind -> `Exhausted kind
           | Poisoned kind -> `Poisoned kind
         with Deadline_exceeded -> `Timeout)
      with
      | `Done (Ok result) ->
          t.n_answered <- t.n_answered + 1;
          Obs.incr c_answered;
          finish cls
            (respond t ~id:frame.id ~status:"ok" [ ("result", result) ])
      | `Done (Error (label, detail)) ->
          t.n_typed_errors <- t.n_typed_errors + 1;
          Obs.incr c_errors;
          finish cls (error_response t ~id:frame.id ~label ~detail)
      | `Exhausted kind ->
          t.n_typed_errors <- t.n_typed_errors + 1;
          Obs.incr c_errors;
          finish cls
            (error_response t ~id:frame.id ~label:"fault-transient"
               ~detail:
                 (Printf.sprintf
                    "transient %s fault persisted through %d retries"
                    (Fault.kind_to_string kind) t.config.max_retries))
      | `Poisoned kind ->
          put_quarantine t ~frame_no
            (Ingest.Bad_value
               ("poisoned request: permanent " ^ Fault.kind_to_string kind
              ^ " fault"))
            (snippet_of line);
          finish cls
            (error_response t ~id:frame.id ~label:"poisoned-request"
               ~detail:
                 (Printf.sprintf
                    "permanent %s fault on the store/index access — request \
                     quarantined"
                    (Fault.kind_to_string kind)))
      | `Timeout ->
          t.n_timed_out <- t.n_timed_out + 1;
          Obs.incr c_timeouts;
          finish cls
            (respond t ~id:frame.id ~status:"timeout"
               [
                 ("deadline_ms", J.Int (int_of_float (deadline_s *. 1000.0)));
               ]))

(* --- admission ---------------------------------------------------------- *)

let shed_response t =
  Obs.incr c_shed;
  Obs.event "serve.shed";
  t.n_shed <- t.n_shed + 1;
  respond t ~id:J.Null ~status:"overloaded"
    [ ("queue_capacity", J.Int t.config.queue_capacity) ]

let refused_response t =
  Obs.incr c_refused;
  t.n_refused <- t.n_refused + 1;
  respond t ~id:J.Null ~status:"draining" []

let serve_burst t lines =
  let n = List.length lines in
  t.n_seen <- t.n_seen + n;
  if t.draining then List.map (fun _ -> refused_response t) lines
  else begin
    (* admission: the queue takes the first [capacity] frames of the
       burst; the surplus is load-shed with an explicit typed response *)
    let admitted, overflow =
      if n <= t.config.queue_capacity then (lines, [])
      else begin
        let rec split i acc = function
          | rest when i = t.config.queue_capacity -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> split (i + 1) (x :: acc) rest
        in
        split 0 [] lines
      end
    in
    let depth = ref (List.length admitted) in
    Obs.set_gauge queue_gauge !depth;
    (* in-flight requests always complete, even when one of them is a
       drain: draining closes admission for *later* bursts only *)
    let answered =
      List.mapi
        (fun i line ->
          let r = handle_admitted t ~frame_no:(t.n_seen - n + i + 1) line in
          decr depth;
          Obs.set_gauge queue_gauge !depth;
          r)
        admitted
    in
    answered @ List.map (fun _ -> shed_response t) overflow
  end

(* --- the channel loop --------------------------------------------------- *)

let summary_json t =
  let s = summary t in
  J.Obj
    [
      ("id", J.Null);
      ("status", J.String "summary");
      ("protocol", J.String protocol_version);
      ( "summary",
        J.Obj
          [
            ("seen", J.Int s.seen);
            ("answered", J.Int s.answered);
            ("typed_errors", J.Int s.typed_errors);
            ("timed_out", J.Int s.timed_out);
            ("shed", J.Int s.shed);
            ("refused", J.Int s.refused);
            ("quarantined", J.Int s.quarantined);
            ("retries", J.Int s.retries);
            ("reloads_accepted", J.Int s.reloads_accepted);
            ("reloads_rejected", J.Int s.reloads_rejected);
            ("epoch", J.Int s.epoch);
            ("drained", J.Bool s.drained);
            ("reconciled", J.Bool (reconciled s));
          ] );
    ]

let serve_channel t ic oc =
  (* complete lines read but not yet served, and the unterminated tail
     of the last read *)
  let pending = Queue.create () in
  let partial = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  let absorb n =
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get chunk i = '\n' then begin
        Buffer.add_subbytes partial chunk !start (i - !start);
        Queue.push (Buffer.contents partial) pending;
        Buffer.clear partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes partial chunk !start (n - !start)
  in
  (* The complete lines already available, at most [batch]: a client
     that sends one frame and waits gets its answer.  Blocks only while
     no line is pending; [In_channel.input] returns as soon as any bytes
     arrive.  At EOF an unterminated last line still counts, as it does
     for [input_line]; [] means EOF with nothing left. *)
  let rec read_burst () =
    if Queue.is_empty pending && not !eof then begin
      (match In_channel.input ic chunk 0 (Bytes.length chunk) with
      | 0 ->
          eof := true;
          if Buffer.length partial > 0 then Queue.push (Buffer.contents partial) pending
      | n -> absorb n);
      read_burst ()
    end
    else begin
      let rec take k acc =
        if k = 0 || Queue.is_empty pending then List.rev acc
        else take (k - 1) (Queue.pop pending :: acc)
      in
      take (max 1 t.config.batch) []
    end
  in
  let rec loop () =
    if not t.draining then begin
      match read_burst () with
      | [] -> t.draining <- true (* EOF: a clean drain *)
      | burst ->
          List.iter
            (fun r ->
              output_string oc r;
              output_char oc '\n')
            (serve_burst t burst);
          flush oc;
          loop ()
    end
  in
  loop ();
  output_string oc (J.to_string (summary_json t));
  output_char oc '\n';
  flush oc;
  summary t

(* --- rendering ---------------------------------------------------------- *)

let render_summary s =
  T.render_kv ~title:"Serve control totals"
    [
      ("frames seen", T.fmt_int s.seen);
      ("answered ok", T.fmt_int s.answered);
      ("typed errors", T.fmt_int s.typed_errors);
      ("timed out", T.fmt_int s.timed_out);
      ("shed (overloaded)", T.fmt_int s.shed);
      ("refused (draining)", T.fmt_int s.refused);
      ("quarantined", T.fmt_int s.quarantined);
      ("retries (transient faults)", T.fmt_int s.retries);
      ("reloads accepted / rejected",
       Printf.sprintf "%d / %d" s.reloads_accepted s.reloads_rejected);
      ("snapshot epoch", T.fmt_int s.epoch);
      ("drained cleanly", if s.drained then "yes" else "no");
      ("control totals reconcile", if reconciled s then "yes" else "NO");
    ]
