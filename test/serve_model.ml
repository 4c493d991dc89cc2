(* A reference model of the trust-decision server: the responses
   [Serve.serve_burst] gives a burst of frames and how the control
   totals move, with no cache, no clock and no instrumentation.  It
   tracks the snapshot epoch, the store sizes and count, whether the
   server drains, the admitted-frame ordinal the fault hook sees, the
   quarantine records and the totals.  Pure reads answer from the world
   alone, so their results come from one uncached oracle server.  The
   [cache] member of [stores]/[health] holds process-global counters:
   the model answers [null] there, and callers mask the server's. *)

module Serve = Tangled_serve.Serve
module Ingest = Tangled_ingest.Ingest
module Fault = Tangled_fault.Fault
module Pipeline = Tangled_core.Pipeline
module Export = Tangled_core.Export
module BP = Tangled_pki.Blueprint
module J = Tangled_util.Json

(* how the store/index access of one admitted frame misbehaves *)
type fault =
  | Recovers of int  (** a transient fault on the first [n] attempts *)
  | Exhausts  (** a transient fault on every attempt *)
  | Poisons  (** a permanent fault *)

type cmd =
  | Read of int  (** a pure read from [pools.reads] *)
  | Stores
  | Health
  | Reload of int  (** a payload from [pools.payloads] *)
  | Drain
  | Malformed of int  (** a line from [pools.malformed] *)

type frame = { cmd : cmd; fault : fault option }

type pools = {
  reads : ((string * J.t) list * (J.t, J.t) result) array;
      (** request fields, and the oracle's result or error member *)
  payloads : (string * ((string * int) list * int, int * int) result) array;
      (** a store dump, and the store sizes and count it installs or the
          quarantined and missing counts it is rejected with *)
  malformed : (string * Ingest.reason) array;
  initial : (string * int) list * int;  (** the world's own store dump *)
  ct : J.t;  (** the fleet's per-log heads, as [stores] and [health] embed them *)
}

(* --- the pools ---------------------------------------------------------- *)

(* per-store record counts, in order of first appearance *)
let sizes_of records =
  List.fold_left
    (fun acc r ->
      match J.member "store" (Result.get_ok (J.parse r)) with
      | Some (J.String s) when List.mem_assoc s acc ->
          List.map (fun (k, n) -> (k, if k = s then n + 1 else n)) acc
      | Some (J.String s) -> acc @ [ (s, 1) ]
      | _ -> invalid_arg "sizes_of")
    [] records

let dump ?declared records =
  let total = Option.value ~default:(List.length records) declared in
  let header = J.Obj [ ("kind", J.String "stores"); ("total_certificates", J.Int total) ] in
  String.concat "\n" (J.to_string header :: records) ^ "\n"

let pools ~oracle (w : Pipeline.t) =
  let records =
    List.filter (( <> ) "") (List.tl (String.split_on_char '\n' (Export.stores_jsonl w)))
  in
  let first n = List.filteri (fun i _ -> i < n) records in
  let clean records = (dump records, Ok (sizes_of records, List.length records)) in
  let cut = dump (first 145) in
  let payloads =
    [|
      clean (first 3);
      clean (first 145);
      clean (List.filteri (fun i _ -> i mod 7 = 0) records);
      (* the upload dies mid-record: the last record is quarantined *)
      (String.sub cut 0 (String.length cut - 40), Error (1, 0));
      (* the upload dies between records: two declared records missing *)
      (dump ~declared:145 (first 143), Error (0, 2));
    |]
  in
  let root = w.Pipeline.universe.BP.roots.(0) in
  let der = root.BP.authority.Tangled_x509.Authority.certificate.Tangled_x509.Certificate.raw in
  let hex = J.String (Tangled_util.Hex.encode der) in
  let op name rest = ("op", J.String name) :: rest in
  let s k v = (k, J.String v) and i k v = (k, J.Int v) in
  let requests =
    [
      op "validate" [ s "store" "aosp44"; ("chain", J.List [ hex ]) ];
      op "validate" [ s "store" "handset:1"; ("chain", J.List [ hex; hex ]) ];
      op "validate" [ s "store" "waterfox"; ("chain", J.List [ hex ]) ];
      op "validate" [ s "store" "aosp44"; ("chain", J.List []) ];
      op "validate" [ s "store" "aosp41"; ("chain", J.List [ J.String "zz" ]) ];
      op "diff" [ s "store" "mozilla" ];
      op "diff" [ s "store" "mozilla"; s "baseline" "aosp41" ];
      op "diff" [ s "store" "waterfox" ];
      op "coverage" [ s "root" root.BP.display_name ];
      op "coverage" [ s "root" "No Such Root" ];
      op "ct-inclusion" [ s "log" "ct0"; i "index" 17 ];
      op "ct-inclusion" [ s "log" "ct0"; i "index" 17; i "tree_size" 100 ];
      op "ct-inclusion" [ s "log" "ct9"; i "index" 0 ];
      op "ct-inclusion" [ s "log" "ct0"; i "index" (-1) ];
      op "ct-consistency" [ s "log" "ct1"; i "first" 10; i "second" 50 ];
      op "ct-consistency" [ s "log" "ct0"; i "first" 0; i "second" 1 ];
      op "ct-visibility" [ s "store" "aosp44" ];
      op "ct-visibility" [ s "store" "waterfox" ];
    ]
  in
  let ask fields =
    let r = Serve.serve_burst oracle [ J.to_string (J.Obj (("id", J.Int 0) :: fields)) ] in
    let json = Result.get_ok (J.parse (List.hd r)) in
    match J.member "result" json with
    | Some result -> Ok result
    | None -> Error (Option.get (J.member "error" json))
  in
  {
    reads = Array.of_list (List.map (fun r -> (r, ask r)) requests);
    payloads;
    malformed =
      [|
        ({|{"id":1,"op":"hea|}, Ingest.Truncated_record);
        ("[1,2,3]", Ingest.Bad_value "frame is not a JSON object");
        ({|{"id":1,"op":"warp"}|}, Ingest.Bad_value "unknown op warp");
        ({|{"op":"health"}|}, Ingest.Missing_field "id");
        ({|{"id":true,"op":"health"}|}, Ingest.Type_mismatch "id");
        ({|{"id":1,"op":"health","deadline_ms":-5}|},
         Ingest.Bad_value "deadline_ms is negative");
        ("\x00{}", Ingest.Control_bytes "frame carries raw NUL/control bytes");
        ({|{"id":1,"op":"validate","store":"aosp44"}|}, Ingest.Missing_field "chain");
      |];
    initial = (sizes_of records, List.length records);
    ct = Option.get (J.member "ct" (Result.get_ok (ask (op "stores" []))));
  }

let render pools (id, f) =
  let fields rest = J.to_string (J.Obj (("id", J.Int id) :: rest)) in
  let op name = ("op", J.String name) in
  match f.cmd with
  | Read i -> fields (fst pools.reads.(i))
  | Stores -> fields [ op "stores" ]
  | Health -> fields [ op "health" ]
  | Reload p -> fields [ op "reload"; ("payload", J.String (fst pools.payloads.(p))) ]
  | Drain -> fields [ op "drain" ]
  | Malformed i -> fst pools.malformed.(i)

(* --- the model ---------------------------------------------------------- *)

type t = {
  pools : pools;
  config : Serve.config;  (** queue capacity, retry budget and backoff *)
  mutable totals : Serve.summary;
  mutable sizes : (string * int) list;
  mutable count : int;
  mutable seq : int;
  mutable quarantine : Ingest.quarantined list;  (** newest first *)
  plan : (int, fault) Hashtbl.t;  (** admitted ordinal -> fault, read by [hook] *)
}

let create pools config =
  {
    pools;
    config;
    totals =
      { seen = 0; answered = 0; typed_errors = 0; timed_out = 0; shed = 0;
        refused = 0; quarantined = 0; retries = 0; backoff_s_total = 0.0;
        reloads_accepted = 0; reloads_rejected = 0; epoch = 1; drained = false };
    sizes = fst pools.initial;
    count = snd pools.initial;
    seq = 0;
    quarantine = [];
    plan = Hashtbl.create 64;
  }

let transient = Fault.Bit_flip and permanent = Fault.Clock_skew

(* the server's [fault_hook]: the fault the model planned for [seq] *)
let hook m ~seq ~attempt =
  match Hashtbl.find_opt m.plan seq with
  | Some (Recovers n) when attempt < n -> Some transient
  | Some Exhausts -> Some transient
  | Some Poisons -> Some permanent
  | _ -> None

let error label detail = J.Obj [ ("label", J.String label); ("detail", J.String detail) ]

(* one more frame seen, [bump] counts it in its terminal class, and
   its response *)
let close m bump ~id status extra =
  m.totals <- bump { m.totals with seen = m.totals.seen + 1 };
  J.to_string
    (J.Obj ([ ("id", id); ("status", J.String status); ("epoch", J.Int m.totals.epoch) ] @ extra))

let answer m ~id result =
  close m (fun s -> { s with answered = s.answered + 1 }) ~id "ok" [ ("result", result) ]

let typed_error m ~id e =
  close m (fun s -> { s with typed_errors = s.typed_errors + 1 }) ~id "error" [ ("error", e) ]

let quarantine m ~id ~line reason e =
  let q = { Ingest.line = m.totals.seen + 1; reason; snippet = Ingest.snippet_of line } in
  m.quarantine <- q :: m.quarantine;
  close m (fun s -> { s with quarantined = s.quarantined + 1 }) ~id "error" [ ("error", e) ]

let exec m ~id = function
  | Read i -> (
      match snd m.pools.reads.(i) with
      | Ok result -> answer m ~id result
      | Error e -> typed_error m ~id e)
  | Stores ->
      answer m ~id
        (J.Obj
           [ ("snapshot_epoch", J.Int m.totals.epoch);
             ("sizes", J.Obj (List.map (fun (s, n) -> (s, J.Int n)) m.sizes));
             ("corpus_certs", J.Int m.count); ("cache", J.Null); ("ct", m.pools.ct) ])
  | Health ->
      let s = m.totals in
      answer m ~id
        (J.Obj
           [ ("protocol", J.String Serve.protocol_version); ("draining", J.Bool s.drained);
             ("queue_capacity", J.Int m.config.queue_capacity); ("seen", J.Int s.seen);
             ("answered", J.Int s.answered); ("typed_errors", J.Int s.typed_errors);
             ("timed_out", J.Int s.timed_out); ("shed", J.Int s.shed);
             ("quarantined", J.Int s.quarantined); ("retries", J.Int s.retries);
             ("cache", J.Null); ("ct", m.pools.ct) ])
  | Reload p -> (
      let s = m.totals in
      match snd m.pools.payloads.(p) with
      | Ok (sizes, count) ->
          m.sizes <- sizes;
          m.count <- count;
          m.totals <- { s with epoch = s.epoch + 1; reloads_accepted = s.reloads_accepted + 1 };
          answer m ~id
            (J.Obj [ ("snapshot_epoch", J.Int (s.epoch + 1)); ("certificates", J.Int count) ])
      | Error (q, missing) ->
          m.totals <- { s with reloads_rejected = s.reloads_rejected + 1 };
          typed_error m ~id
            (error "update-rejected"
               (Printf.sprintf
                  "snapshot update quarantined %d record(s), %d missing — serving epoch \
                   %d unchanged"
                  q missing s.epoch)))
  | Drain ->
      m.totals <- { m.totals with drained = true };
      answer m ~id (J.Obj [ ("draining", J.Bool true) ])
  | Malformed _ -> invalid_arg "exec: a malformed line is never decoded"

let admitted m (id, f) =
  let line = render m.pools (id, f) in
  match f.cmd with
  | Malformed i ->
      let reason = snd m.pools.malformed.(i) in
      quarantine m ~id:J.Null ~line reason
        (error (Ingest.reason_label reason) (Ingest.reason_detail reason))
  | cmd -> (
      let id = J.Int id and budget = m.config.max_retries in
      Option.iter (Hashtbl.replace m.plan m.seq) f.fault;
      m.seq <- m.seq + 1;
      let retry n =
        for attempt = 0 to n - 1 do
          let s = m.totals and wait = m.config.backoff_s *. float_of_int (1 lsl attempt) in
          m.totals <- { s with retries = s.retries + 1; backoff_s_total = s.backoff_s_total +. wait }
        done
      in
      match f.fault with
      | None -> exec m ~id cmd
      | Some (Recovers n) -> retry n; exec m ~id cmd
      | Some Exhausts ->
          retry budget;
          typed_error m ~id
            (error "fault-transient"
               (Printf.sprintf "transient %s fault persisted through %d retries"
                  (Fault.kind_to_string transient) budget))
      | Some Poisons ->
          let name = Fault.kind_to_string permanent in
          quarantine m ~id ~line
            (Ingest.Bad_value ("poisoned request: permanent " ^ name ^ " fault"))
            (error "poisoned-request"
               (Printf.sprintf
                  "permanent %s fault on the store/index access — request quarantined"
                  name)))

(* The responses to one burst of (id, frame): all refused if the
   server drained before it, else the first [queue_capacity] frames run
   in order and the rest are shed. *)
let burst m frames =
  let drained = m.totals.drained and capacity = m.config.queue_capacity in
  List.mapi
    (fun i f ->
      if drained then close m (fun s -> { s with refused = s.refused + 1 }) ~id:J.Null "draining" []
      else if i < capacity then admitted m f
      else
        close m (fun s -> { s with shed = s.shed + 1 }) ~id:J.Null "overloaded"
          [ ("queue_capacity", J.Int capacity) ])
    frames
