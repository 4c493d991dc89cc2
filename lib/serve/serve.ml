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
  default_deadline_ms : int;
  max_retries : int;
  backoff_s : float;
  max_frame_bytes : int;
  cache_capacity : int;
  clock : unit -> float;
  fault_hook : seq:int -> attempt:int -> Fault.kind option;
}

let default_config =
  {
    queue_capacity = 64;
    batch = 32;
    default_deadline_ms = 250;
    max_retries = 3;
    backoff_s = 0.001;
    max_frame_bytes = 1 lsl 20;
    cache_capacity = 16384;
    clock = Unix.gettimeofday;
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

(* What a reload changes besides the epoch: the store sizes and
   certificate count that [stores] reports.  Every other op answers
   from the world the server was created with. *)
type snapshot = {
  store_sizes : (string * int) list;
  count : int;  (** certificates the store dump ingested *)
}

let snapshot_of (r : Ingest.cert_view Ingest.ingest) =
  { store_sizes = Ingest.store_sizes r; count = r.Ingest.stats.Ingest.accepted }

type t = {
  config : config;
  world : Pipeline.t;
  fleet : Fleet.t;
      (** the CT log fleet (v2's ct-* ops), built once at [create] from
          the world's seed as [Ct_report.compute] builds it.  Logs are
          append-only and no serve op mutates them, so every ct-* op is
          a pure read against a fixed structure. *)
  cache : J.t Cache.t option;
      (** request-level decision cache (lib/cache CLOCK), keyed by
          (op, canonical request parameters) and stamped with the
          snapshot epoch where that epoch changes: at [create] and on an
          accepted reload.  Only the pure reads are cached — [validate],
          [diff], [coverage] and the ct-* ops — and only their [ok]
          results; typed errors and timeouts always re-execute.  A
          rejected reload leaves the epoch, and so every cached decision
          and counter, untouched.  [None] when [cache_capacity] is 0. *)
  mutable snapshot : snapshot;
  mutable totals : summary;
  mutable seq : int;  (* admitted-request ordinal, drives the fault hook *)
  quarantine : Ingest.quarantined Queue.t;
      (** the newest [quarantine_capacity] records; [totals.quarantined]
          counts them all *)
}

(* as many as Obs's bounded event log keeps *)
let quarantine_capacity = 1024

let create ?(config = default_config) world =
  let cache =
    if config.cache_capacity > 0 then begin
      let c = Cache.create ~name:"serve.decisions" ~capacity:config.cache_capacity () in
      Cache.set_epoch c 1;
      Some c
    end
    else None
  in
  {
    config;
    world;
    fleet =
      Fleet.build ~seed:world.Pipeline.config.Pipeline.seed
        world.Pipeline.universe world.Pipeline.notary;
    cache;
    (* the epoch-1 snapshot is the world's own store dump, pushed through
       the same quarantining ingest path a reload would take *)
    snapshot = snapshot_of (Ingest.stores_of_string (Export.stores_jsonl world));
    totals =
      {
        seen = 0;
        answered = 0;
        typed_errors = 0;
        timed_out = 0;
        shed = 0;
        refused = 0;
        quarantined = 0;
        retries = 0;
        backoff_s_total = 0.0;
        reloads_accepted = 0;
        reloads_rejected = 0;
        epoch = 1;
        drained = false;
      };
    seq = 0;
    quarantine = Queue.create ();
  }

let summary t = t.totals
let draining t = t.totals.drained
let quarantine t = List.of_seq (Queue.to_seq t.quarantine)
let ct_fleet t = Some t.fleet
let cache_stats t = Option.map Cache.stats t.cache

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

type frame = { id : J.t; op : op; deadline_ms : int option }

let ( let* ) = Result.bind

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
        let* deadline_ms =
          match J.member "deadline_ms" json with
          | None -> Ok None
          | Some (J.Int ms) when ms >= 0 -> Ok (Some ms)
          | Some (J.Int _) -> Error (Ingest.Bad_value "deadline_ms is negative")
          | Some _ -> Error (Ingest.Type_mismatch "deadline_ms")
        in
        let* op_name = Ingest.str "op" json in
        let* op =
          match op_name with
          | "validate" ->
              let* store = Ingest.str "store" json in
              let* chain_hex = Ingest.str_list "chain" json in
              Ok (Validate { store; chain_hex })
          | "diff" ->
              let* store = Ingest.str "store" json in
              let* baseline =
                match J.member "baseline" json with
                | None -> Ok "aosp44"
                | Some (J.String s) -> Ok s
                | Some _ -> Error (Ingest.Type_mismatch "baseline")
              in
              Ok (Diff { store; baseline })
          | "coverage" ->
              let* root = Ingest.str "root" json in
              Ok (Coverage { root })
          | "stores" -> Ok Stores
          | "health" -> Ok Health
          | "reload" ->
              let* payload = Ingest.str "payload" json in
              Ok (Reload { payload })
          | "drain" -> Ok Drain
          | "ct-inclusion" ->
              let* log = Ingest.str "log" json in
              let* index = Ingest.int "index" json in
              let* tree_size = opt_int_field "tree_size" json in
              Ok (Ct_inclusion { log; index; tree_size })
          | "ct-consistency" ->
              let* log = Ingest.str "log" json in
              let* first = Ingest.int "first" json in
              let* second = Ingest.int "second" json in
              Ok (Ct_consistency { log; first; second })
          | "ct-visibility" ->
              let* store = Ingest.str "store" json in
              Ok (Ct_visibility { store })
          | other -> Error (Ingest.Bad_value ("unknown op " ^ other))
        in
        Ok { id; op; deadline_ms }
    | Ok _ -> Error (Ingest.Bad_value "frame is not a JSON object")

(* --- responses ---------------------------------------------------------- *)

let respond t ~id ~status extra =
  J.to_string
    (J.Obj
       ([ ("id", id); ("status", J.String status);
          ("epoch", J.Int t.totals.epoch) ]
       @ extra))

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
  match Fleet.find_log t.fleet name with
  | Some e -> Ok e
  | None ->
      Error
        ( "unknown-log",
          Printf.sprintf "no log named %s (fleet: ct0..ct%d)" name
            (Fleet.n_logs t.fleet - 1) )

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
  match resolve_store t store_name with
  | None -> Error ("unknown-store", store_name)
  | Some store ->
      check_deadline t deadline;
      let r = Fleet.store_visibility t.fleet store_name store in
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
           ])

(* per-log tree size and head, embedded in [stores] and [health]; the
   fleet is always built, and [enabled] stays for v2 clients that read
   it *)
let ct_json t =
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
                (Fleet.entries t.fleet))) );
    ]

(* decision-cache introspection, embedded in [stores] and [health]
   responses.  hits/misses/evictions are the process-global Obs
   counters behind the cache's name; entries/capacity/epoch are this
   server's instance. *)
let cache_json t =
  match t.cache with
  | None -> J.Obj [ ("enabled", J.Bool false) ]
  | Some c ->
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
  Ok
    (J.Obj
       [
         ("snapshot_epoch", J.Int t.totals.epoch);
         ( "sizes",
           J.Obj (List.map (fun (s, n) -> (s, J.Int n)) t.snapshot.store_sizes) );
         ("corpus_certs", J.Int t.snapshot.count);
         ("cache", cache_json t);
         ("ct", ct_json t);
       ])

(* the counters cover the frames closed before this one, so they
   always reconcile: [refused] stays 0 while a [health] can still run,
   since only the bursts after a drain are refused and they run
   nothing *)
let exec_health t : (J.t, string * string) result =
  let s = t.totals in
  Ok
    (J.Obj
       [
         ("protocol", J.String protocol_version);
         ("draining", J.Bool s.drained);
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
   answering and the attempt is recorded, never applied. *)
let exec_reload t deadline payload : (J.t, string * string) result =
  check_deadline t deadline;
  let r = Ingest.stores_of_string payload in
  let st = r.Ingest.stats in
  let clean =
    st.Ingest.quarantined_total = 0
    && st.Ingest.missing = 0
    && (match st.Ingest.declared with
       | Some d -> d = st.Ingest.accepted
       | None -> false)
    && st.Ingest.accepted > 0
  in
  let s = t.totals in
  if clean then begin
    let epoch = s.epoch + 1 in
    t.snapshot <- snapshot_of r;
    t.totals <- { s with epoch; reloads_accepted = s.reloads_accepted + 1 };
    (* the one place the epoch moves after [create]: roll the cache *)
    Option.iter (fun c -> Cache.set_epoch c epoch) t.cache;
    Obs.event "serve.reload_accepted" ~fields:[ ("epoch", string_of_int epoch) ];
    Ok
      (J.Obj
         [
           ("snapshot_epoch", J.Int epoch);
           ("certificates", J.Int st.Ingest.accepted);
         ])
  end
  else begin
    t.totals <- { s with reloads_rejected = s.reloads_rejected + 1 };
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
          st.Ingest.quarantined_total st.Ingest.missing s.epoch )
  end

let exec_uncached t deadline = function
  | Validate { store; chain_hex } -> exec_validate t deadline store chain_hex
  | Diff { store; baseline } -> exec_diff t deadline store baseline
  | Coverage { root } -> exec_coverage t deadline root
  | Stores -> exec_stores t
  | Health -> exec_health t
  | Reload { payload } -> exec_reload t deadline payload
  | Drain ->
      t.totals <- { t.totals with drained = true };
      Obs.event "serve.draining";
      Ok (J.Obj [ ("draining", J.Bool true) ])
  | Ct_inclusion { log; index; tree_size } ->
      exec_ct_inclusion t deadline log index tree_size
  | Ct_consistency { log; first; second } ->
      exec_ct_consistency t deadline log first second
  | Ct_visibility { store } -> exec_ct_visibility t deadline store

(* Cacheable ops are the pure reads whose answer is a function of the
   request parameters alone: validate, diff, coverage and the ct-* ops
   (the fleet is append-only and no op appends).  [stores]/[health]
   report live counters, [reload]/[drain] mutate — none of those may be
   replayed.  The key is a SHA-256 over the op
   tag and its NUL-delimited parameters: fixed 32 bytes resident per
   entry however long the chain hex runs. *)
let cache_key_of_op = function
  | Validate { store; chain_hex } ->
      Some (String.concat "\x00" ("validate" :: store :: chain_hex))
  | Diff { store; baseline } ->
      Some (String.concat "\x00" [ "diff"; store; baseline ])
  | Coverage { root } -> Some (String.concat "\x00" [ "coverage"; root ])
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
      let key = Tangled_hash.Sha256.digest raw_key in
      match Cache.find cache key with
      | Some result -> Ok result
      | None -> (
          match exec_uncached t deadline op with
          | Ok result as r ->
              Cache.add cache key result;
              r
          | Error _ as e -> e))

(* --- closing a frame ------------------------------------------------------ *)

(* How a frame ends: every path of [serve_burst] ends in exactly one of
   these, and [close] is the only place that counts it. *)
type terminal =
  | Answered of J.t  (** the op's result *)
  | Typed_error of string * string  (** label, detail *)
  | Timed_out of int  (** the frame's deadline in ms *)
  | Quarantined of Ingest.reason * string * string
      (** the recorded reason; the answered label and detail *)
  | Shed
  | Refused

(* Count the frame as seen and in its one terminal class, bump that
   class's Obs counter, and render its response.  A quarantine record's
   [line] is the running [seen]: the frame's 1-based ordinal. *)
let close t ~id ~line terminal =
  let s = { t.totals with seen = t.totals.seen + 1 } in
  let error label detail =
    [ ("error", J.Obj [ ("label", J.String label); ("detail", J.String detail) ]) ]
  in
  let counter, totals, status, extra =
    match terminal with
    | Answered result ->
        (c_answered, { s with answered = s.answered + 1 }, "ok", [ ("result", result) ])
    | Typed_error (label, detail) ->
        (c_errors, { s with typed_errors = s.typed_errors + 1 }, "error", error label detail)
    | Timed_out ms ->
        (c_timeouts, { s with timed_out = s.timed_out + 1 }, "timeout",
         [ ("deadline_ms", J.Int ms) ])
    | Quarantined (reason, label, detail) ->
        Obs.event "serve.quarantine"
          ~fields:
            [ ("label", Ingest.reason_label reason); ("frame", string_of_int s.seen) ];
        if Queue.length t.quarantine = quarantine_capacity then
          ignore (Queue.pop t.quarantine);
        Queue.push
          { Ingest.line = s.seen; reason; snippet = Ingest.snippet_of line }
          t.quarantine;
        (c_quarantined, { s with quarantined = s.quarantined + 1 }, "error",
         error label detail)
    | Shed ->
        Obs.event "serve.shed";
        (c_shed, { s with shed = s.shed + 1 }, "overloaded",
         [ ("queue_capacity", J.Int t.config.queue_capacity) ])
    | Refused -> (c_refused, { s with refused = s.refused + 1 }, "draining", [])
  in
  Obs.incr counter;
  t.totals <- totals;
  respond t ~id ~status extra

(* --- the admitted-request path ------------------------------------------ *)

(* The store/index access of request [seq] may be fault-injected
   through [config.fault_hook].  Transient faults retry with exponential
   backoff up to [max_retries]; a fault that outlives the retries is
   answered as a typed error, a permanent fault quarantines the poisoned
   request immediately.  The loop is single-domain, so a backoff is
   recorded in [backoff_s_total], never slept: waiting would stall every
   queued request.  Once the access succeeds the op runs. *)
let negotiate_faults t ~seq deadline op =
  let rec go attempt =
    match t.config.fault_hook ~seq ~attempt with
    | None -> (
        match exec_op t deadline op with
        | Ok result -> Answered result
        | Error (label, detail) -> Typed_error (label, detail))
    | Some kind -> (
        let name = Fault.kind_to_string kind in
        match Fault.classify kind with
        | Fault.Permanent ->
            Quarantined
              ( Ingest.Bad_value ("poisoned request: permanent " ^ name ^ " fault"),
                "poisoned-request",
                Printf.sprintf
                  "permanent %s fault on the store/index access — request \
                   quarantined"
                  name )
        | Fault.Transient when attempt >= t.config.max_retries ->
            Typed_error
              ( "fault-transient",
                Printf.sprintf "transient %s fault persisted through %d retries"
                  name t.config.max_retries )
        | Fault.Transient ->
            let s = t.totals in
            t.totals <-
              {
                s with
                retries = s.retries + 1;
                backoff_s_total =
                  s.backoff_s_total
                  +. (t.config.backoff_s *. float_of_int (1 lsl attempt));
              };
            Obs.incr c_retries;
            check_deadline t deadline;
            go (attempt + 1))
  in
  go 0

(* Decode, run and close one admitted frame. *)
let handle_admitted t line =
  let t0 = t.config.clock () in
  let finish cls ~id terminal =
    let response = close t ~id ~line terminal in
    Obs.observe (latency_of_class cls) (t.config.clock () -. t0);
    response
  in
  match decode_frame ~max_frame_bytes:t.config.max_frame_bytes line with
  | Error reason ->
      finish "malformed" ~id:J.Null
        (Quarantined (reason, Ingest.reason_label reason, Ingest.reason_detail reason))
  | Ok frame ->
      let cls = class_of_op frame.op in
      let deadline_ms =
        Option.value ~default:t.config.default_deadline_ms frame.deadline_ms
      in
      let deadline = t0 +. (float_of_int deadline_ms /. 1000.0) in
      let seq = t.seq in
      t.seq <- seq + 1;
      Obs.span ("serve." ^ cls) @@ fun () ->
      finish cls ~id:frame.id
        (try negotiate_faults t ~seq deadline frame.op
         with Deadline_exceeded -> Timed_out deadline_ms)

(* --- admission ---------------------------------------------------------- *)

let serve_burst t lines =
  if t.totals.drained then List.map (fun line -> close t ~id:J.Null ~line Refused) lines
  else begin
    (* admission: the queue takes the first [capacity] frames of the
       burst; the surplus is load-shed with an explicit typed response *)
    let capacity = t.config.queue_capacity in
    let admitted = List.filteri (fun i _ -> i < capacity) lines in
    let depth = ref (List.length admitted) in
    Obs.set_gauge queue_gauge !depth;
    (* in-flight requests always complete, even when one of them is a
       drain: draining closes admission for *later* bursts only *)
    let answered =
      List.map
        (fun line ->
          let r = handle_admitted t line in
          decr depth;
          Obs.set_gauge queue_gauge !depth;
          r)
        admitted
    in
    answered
    @ List.map
        (fun line -> close t ~id:J.Null ~line Shed)
        (List.filteri (fun i _ -> i >= capacity) lines)
  end

(* --- the channel loop --------------------------------------------------- *)

let summary_json t =
  let s = t.totals in
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
  let emit responses =
    List.iter
      (fun r ->
        output_string oc r;
        output_char oc '\n')
      responses;
    flush oc
  in
  let rec loop () =
    if not t.totals.drained then begin
      match read_burst () with
      | [] -> t.totals <- { t.totals with drained = true } (* EOF: a clean drain *)
      | burst ->
          emit (serve_burst t burst);
          loop ()
    end
  in
  loop ();
  (* frames read past a drain's burst are refused, never dropped; no
     more input is read, so a client that sends [drain] and waits still
     gets its summary *)
  emit (serve_burst t (List.of_seq (Queue.to_seq pending)));
  emit [ J.to_string (summary_json t) ];
  t.totals

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
