(* One instrumentation subsystem for the whole pipeline.

   Aggregation is lock-free on the hot paths: counters and histogram
   buckets are atomics, so a worker domain pays one Atomic.incr (plus
   one CAS loop for the histogram's running sum) per event.  The
   registries, the completed-span list and the bounded event log are
   behind one mutex each — those are touched at registration and
   reporting frequency, not per event.

   Nothing recorded here may feed back into the study's outputs:
   report artefacts must stay byte-identical at any worker count and
   with instrumentation on or off.  The trace exporter enforces the
   same split syntactically — every nondeterministic value is confined
   to the "volatile" member of its JSONL line. *)

module J = Tangled_util.Json

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let now () = Unix.gettimeofday ()

(* --- spans -------------------------------------------------------------- *)

type status = Done | Failed of string

type span = {
  id : int;
  parent : int;
  name : string;
  depth : int;
  start_s : float;
  dur_s : float;
  status : status;
}

let span_lock = Mutex.create ()

(* completed spans in completion order, bounded like the event log so
   a long-lived process (bench loops re-running instrumented stages)
   cannot grow without limit; the newest spans win *)
let span_capacity = 8192
let completed : span Queue.t = Queue.create ()
let next_span_id = Atomic.make 1

(* innermost open span per domain: (id, depth) stack *)
let span_stack : (int * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let record_span s =
  Mutex.lock span_lock;
  Queue.push s completed;
  if Queue.length completed > span_capacity then ignore (Queue.pop completed);
  Mutex.unlock span_lock

let spanned name f =
  if not (enabled ()) then begin
    let t0 = now () in
    let v = f () in
    let dur = now () -. t0 in
    (v, { id = 0; parent = 0; name; depth = 0; start_s = t0; dur_s = dur; status = Done })
  end
  else begin
    let stack = Domain.DLS.get span_stack in
    let parent, depth =
      match !stack with [] -> (0, 0) | (p, d) :: _ -> (p, d + 1)
    in
    let id = Atomic.fetch_and_add next_span_id 1 in
    stack := (id, depth) :: !stack;
    let t0 = now () in
    let finish status =
      let s = { id; parent; name; depth; start_s = t0; dur_s = now () -. t0; status } in
      (match !stack with (i, _) :: rest when i = id -> stack := rest | _ -> ());
      record_span s;
      s
    in
    match f () with
    | v -> (v, finish Done)
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (finish (Failed (Printexc.to_string exn)));
        Printexc.raise_with_backtrace exn bt
  end

let span name f = fst (spanned name f)

let spans () =
  Mutex.lock span_lock;
  let l = List.of_seq (Queue.to_seq completed) in
  Mutex.unlock span_lock;
  List.sort (fun a b -> Stdlib.compare a.id b.id) l

let status_label = function Done -> "done" | Failed m -> "failed: " ^ m

let render_spans () =
  match spans () with
  | [] -> ""
  | roots ->
      let b = Buffer.create 512 in
      Buffer.add_string b "Span tree\n";
      List.iter
        (fun s ->
          Buffer.add_string b
            (Printf.sprintf "  %s%-*s %9.3fs  %s\n"
               (String.make (2 * s.depth) ' ')
               (Stdlib.max 1 (24 - (2 * s.depth)))
               s.name s.dur_s (status_label s.status)))
        roots;
      Buffer.contents b

(* --- counters and gauges ------------------------------------------------ *)

type counter = { c_name : string; c_value : int Atomic.t }

let counter_lock = Mutex.create ()
let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.lock counter_lock;
  let c =
    match Hashtbl.find_opt counter_registry name with
    | Some c -> c
    | None ->
        let c = { c_name = name; c_value = Atomic.make 0 } in
        Hashtbl.add counter_registry name c;
        c
  in
  Mutex.unlock counter_lock;
  c

let incr c = if enabled () then Atomic.incr c.c_value
let add c n = if enabled () then ignore (Atomic.fetch_and_add c.c_value n)
let value c = Atomic.get c.c_value

let counters () =
  Mutex.lock counter_lock;
  let rows =
    Hashtbl.fold (fun _ c acc -> (c.c_name, Atomic.get c.c_value) :: acc)
      counter_registry []
  in
  Mutex.unlock counter_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

let render_named_ints title rows =
  match rows with
  | [] -> ""
  | rows ->
      let b = Buffer.create 128 in
      Buffer.add_string b (title ^ "\n");
      List.iter
        (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-32s %12d\n" name v))
        rows;
      Buffer.contents b

type gauge = { g_name : string; g_value : int Atomic.t }

let gauge_lock = Mutex.create ()
let gauge_registry : (string, gauge) Hashtbl.t = Hashtbl.create 8

let gauge name =
  Mutex.lock gauge_lock;
  let g =
    match Hashtbl.find_opt gauge_registry name with
    | Some g -> g
    | None ->
        let g = { g_name = name; g_value = Atomic.make 0 } in
        Hashtbl.add gauge_registry name g;
        g
  in
  Mutex.unlock gauge_lock;
  g

let set_gauge g v = if enabled () then Atomic.set g.g_value v
let gauge_value g = Atomic.get g.g_value

let gauges () =
  Mutex.lock gauge_lock;
  let rows =
    Hashtbl.fold (fun _ g acc -> (g.g_name, Atomic.get g.g_value) :: acc)
      gauge_registry []
  in
  Mutex.unlock gauge_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

(* --- histograms --------------------------------------------------------- *)

type histogram = {
  h_name_ : string;
  h_edges : float array;          (* strictly increasing upper bounds *)
  h_counts : int Atomic.t array;  (* edges + 1 (overflow) *)
  h_sum : float Atomic.t;
}

let latency_buckets =
  [| 1e-6; 3e-6; 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0 |]

let histogram_lock = Mutex.create ()
let histogram_registry : (string, histogram) Hashtbl.t = Hashtbl.create 8

let histogram ?(buckets = latency_buckets) name =
  Mutex.lock histogram_lock;
  let h =
    match Hashtbl.find_opt histogram_registry name with
    | Some h -> h
    | None ->
        Array.iteri
          (fun i e ->
            if i > 0 && e <= buckets.(i - 1) then
              invalid_arg ("Obs.histogram: edges not increasing for " ^ name))
          buckets;
        let h =
          {
            h_name_ = name;
            h_edges = Array.copy buckets;
            h_counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.0;
          }
        in
        Hashtbl.add histogram_registry name h;
        h
  in
  Mutex.unlock histogram_lock;
  h

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

(* binary search for the first edge >= v; the overflow bucket is
   Array.length edges *)
let bucket_of edges v =
  let n = Array.length edges in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= edges.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe h v =
  if enabled () then begin
    Atomic.incr h.h_counts.(bucket_of h.h_edges v);
    atomic_add_float h.h_sum v
  end

let time_histogram h f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now () in
    match f () with
    | v ->
        observe h (now () -. t0);
        v
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        observe h (now () -. t0);
        Printexc.raise_with_backtrace exn bt
  end

type histogram_snapshot = {
  h_name : string;
  edges : float array;
  counts : int array;
  total : int;
  sum : float;
}

let histogram_snapshot h =
  let counts = Array.map Atomic.get h.h_counts in
  {
    h_name = h.h_name_;
    edges = Array.copy h.h_edges;
    counts;
    total = Array.fold_left ( + ) 0 counts;
    sum = Atomic.get h.h_sum;
  }

let histograms () =
  Mutex.lock histogram_lock;
  let hs = Hashtbl.fold (fun _ h acc -> h :: acc) histogram_registry [] in
  Mutex.unlock histogram_lock;
  List.map histogram_snapshot hs
  |> List.sort (fun a b -> String.compare a.h_name b.h_name)

let quantile s q =
  if s.total = 0 then Float.nan
  else begin
    let target = q *. float_of_int s.total in
    let n_edges = Array.length s.edges in
    let rec go i cum =
      if i > n_edges then s.edges.(n_edges - 1)
      else begin
        let c = s.counts.(i) in
        let cum' = cum +. float_of_int c in
        if cum' >= target && c > 0 then
          if i = n_edges then s.edges.(n_edges - 1) (* overflow: lower edge *)
          else begin
            let lo = if i = 0 then 0.0 else s.edges.(i - 1) in
            let hi = s.edges.(i) in
            lo +. ((hi -. lo) *. ((target -. cum) /. float_of_int c))
          end
        else go (i + 1) cum'
      end
    in
    go 0 0.0
  end

let render_histograms () =
  let rows = List.filter (fun s -> s.total > 0) (histograms ()) in
  match rows with
  | [] -> ""
  | rows ->
      let b = Buffer.create 256 in
      Buffer.add_string b "Histograms (p50/p90/p99)\n";
      List.iter
        (fun s ->
          Buffer.add_string b
            (Printf.sprintf "  %-32s n=%-8d mean=%-11.4g p50=%-11.4g p90=%-11.4g p99=%.4g\n"
               s.h_name s.total
               (s.sum /. float_of_int s.total)
               (quantile s 0.50) (quantile s 0.90) (quantile s 0.99)))
        rows;
      Buffer.contents b

(* --- bounded event log -------------------------------------------------- *)

type event_record = { seq : int; e_name : string; fields : (string * string) list }

let event_capacity = 1024
let event_lock = Mutex.create ()
let event_log : event_record Queue.t = Queue.create ()
let next_seq = Atomic.make 1

let event ?(fields = []) name =
  if enabled () then begin
    let seq = Atomic.fetch_and_add next_seq 1 in
    Mutex.lock event_lock;
    Queue.push { seq; e_name = name; fields } event_log;
    if Queue.length event_log > event_capacity then ignore (Queue.pop event_log);
    Mutex.unlock event_lock
  end

let events () =
  Mutex.lock event_lock;
  let l = List.of_seq (Queue.to_seq event_log) in
  Mutex.unlock event_lock;
  l

(* the newest twelve events, oldest first *)
let render_events () =
  match events () with
  | [] -> ""
  | all ->
      let keep = Stdlib.max 0 (List.length all - 12) in
      let shown = List.filteri (fun i _ -> i >= keep) all in
      let b = Buffer.create 256 in
      Buffer.add_string b
        (Printf.sprintf "Events (newest) — %d retained\n" (List.length all));
      List.iter
        (fun e ->
          Buffer.add_string b (Printf.sprintf "  %-28s" e.e_name);
          List.iter
            (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%s" k v))
            e.fields;
          Buffer.add_char b '\n')
        shown;
      Buffer.contents b

(* --- lifecycle ---------------------------------------------------------- *)

let reset_all () =
  Mutex.lock span_lock;
  Queue.clear completed;
  Mutex.unlock span_lock;
  Atomic.set next_span_id 1;
  Mutex.lock event_lock;
  Queue.clear event_log;
  Mutex.unlock event_lock;
  Atomic.set next_seq 1;
  Mutex.lock counter_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counter_registry;
  Mutex.unlock counter_lock;
  Mutex.lock gauge_lock;
  Hashtbl.iter (fun _ g -> Atomic.set g.g_value 0) gauge_registry;
  Mutex.unlock gauge_lock;
  Mutex.lock histogram_lock;
  Hashtbl.iter
    (fun _ h ->
      Array.iter (fun a -> Atomic.set a 0) h.h_counts;
      Atomic.set h.h_sum 0.0)
    histogram_registry;
  Mutex.unlock histogram_lock

(* --- trace export ------------------------------------------------------- *)

let schema_version = "tangled-obs/1"

(* Every line: deterministic fields at the top level, nondeterministic
   measurements under "volatile".  stable_view strips the latter, and
   the determinism suite asserts the remainder is byte-identical at
   --jobs 1 vs 4. *)
let trace_jsonl ?jobs () =
  let b = Buffer.create 4096 in
  let line fields volatile =
    Buffer.add_string b
      (J.to_string (J.Obj (fields @ [ ("volatile", J.Obj volatile) ])));
    Buffer.add_char b '\n'
  in
  line
    [ ("schema", J.String schema_version); ("kind", J.String "header") ]
    (match jobs with Some j -> [ ("jobs", J.Int j) ] | None -> []);
  List.iter
    (fun s ->
      line
        [
          ("kind", J.String "span");
          ("name", J.String s.name);
          ("depth", J.Int s.depth);
          ("status", J.String (status_label s.status));
        ]
        [
          ("id", J.Int s.id);
          ("parent", J.Int s.parent);
          ("start_s", J.Float s.start_s);
          ("dur_s", J.Float s.dur_s);
        ])
    (spans ());
  List.iter
    (fun (name, v) ->
      line
        [ ("kind", J.String "counter"); ("name", J.String name) ]
        [ ("value", J.Int v) ])
    (counters ());
  List.iter
    (fun (name, v) ->
      line
        [ ("kind", J.String "gauge"); ("name", J.String name) ]
        [ ("value", J.Int v) ])
    (gauges ());
  List.iter
    (fun s ->
      line
        [
          ("kind", J.String "histogram");
          ("name", J.String s.h_name);
          ("edges", J.List (Array.to_list (Array.map (fun e -> J.Float e) s.edges)));
        ]
        [
          ("counts", J.List (Array.to_list (Array.map (fun c -> J.Int c) s.counts)));
          ("total", J.Int s.total);
          ("sum", J.Float s.sum);
        ])
    (histograms ());
  List.iter
    (fun e ->
      line
        [
          ("kind", J.String "event");
          ("name", J.String e.e_name);
          ("fields", J.Obj (List.map (fun (k, v) -> (k, J.String v)) e.fields));
        ]
        [ ("seq", J.Int e.seq) ])
    (events ());
  Buffer.contents b

let fold_lines f trace =
  let rec go lineno acc = function
    | [] -> Ok acc
    | "" :: rest -> go (lineno + 1) acc rest
    | l :: rest -> (
        match J.parse l with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok json -> (
            match f lineno acc json with
            | Error _ as e -> e
            | Ok acc -> go (lineno + 1) acc rest))
  in
  go 1 [] (String.split_on_char '\n' trace)

let stable_view trace =
  let strip _lineno acc = function
    | J.Obj fields -> Ok (J.Obj (List.remove_assoc "volatile" fields) :: acc)
    | _ -> Ok acc
  in
  match fold_lines strip trace with
  | Error _ as e -> e
  | Ok objs ->
      Ok (String.concat "" (List.rev_map (fun j -> J.to_string j ^ "\n") objs))

let validate_trace trace =
  let fail lineno fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt in
  let is_num = function J.Int _ | J.Float _ -> true | _ -> false in
  let check lineno seen_header json =
    match json with
    | J.Obj _ -> (
        let str name = match J.member name json with Some (J.String s) -> Some s | _ -> None in
        let volatile =
          match J.member "volatile" json with Some (J.Obj v) -> Some v | _ -> None
        in
        match volatile with
        | None -> fail lineno "missing volatile object"
        | Some vol -> (
            let vint name =
              match List.assoc_opt name vol with Some (J.Int _) -> true | _ -> false
            in
            let vnum name =
              match List.assoc_opt name vol with Some v -> is_num v | None -> false
            in
            match (seen_header, str "kind") with
            | [], Some "header" ->
                if str "schema" = Some schema_version then Ok [ () ]
                else fail lineno "header schema is not %s" schema_version
            | [], _ -> fail lineno "first line is not a %s header" schema_version
            | _ :: _, Some "header" -> fail lineno "duplicate header"
            | seen, Some "span" ->
                if str "name" = None then fail lineno "span without name"
                else if (match J.member "depth" json with Some (J.Int _) -> false | _ -> true)
                then fail lineno "span without integer depth"
                else if str "status" = None then fail lineno "span without status"
                else if not (vint "id" && vint "parent" && vnum "start_s" && vnum "dur_s")
                then fail lineno "span volatile fields incomplete"
                else Ok seen
            | seen, Some ("counter" | "gauge") ->
                if str "name" = None then fail lineno "instrument without name"
                else if not (vint "value") then fail lineno "instrument without volatile value"
                else Ok seen
            | seen, Some "histogram" -> (
                let edges =
                  match J.member "edges" json with
                  | Some (J.List es) when List.for_all is_num es -> Some (List.length es)
                  | _ -> None
                in
                let counts =
                  match List.assoc_opt "counts" vol with
                  | Some (J.List cs)
                    when List.for_all (function J.Int _ -> true | _ -> false) cs ->
                      Some (List.length cs)
                  | _ -> None
                in
                match (str "name", edges, counts) with
                | None, _, _ -> fail lineno "histogram without name"
                | _, None, _ -> fail lineno "histogram without numeric edges"
                | _, _, None -> fail lineno "histogram without volatile integer counts"
                | Some _, Some ne, Some nc ->
                    if nc <> ne + 1 then
                      fail lineno "histogram counts length %d != edges+1 (%d)" nc (ne + 1)
                    else if not (vint "total" && vnum "sum") then
                      fail lineno "histogram volatile total/sum incomplete"
                    else Ok seen)
            | seen, Some "event" -> (
                match (str "name", J.member "fields" json) with
                | None, _ -> fail lineno "event without name"
                | _, Some (J.Obj fs)
                  when List.for_all (fun (_, v) -> match v with J.String _ -> true | _ -> false) fs
                  ->
                    if vint "seq" then Ok seen else fail lineno "event without volatile seq"
                | _, _ -> fail lineno "event fields must be a string object")
            | _, Some other -> fail lineno "unknown record kind %S" other
            | _, None -> fail lineno "record without kind"))
    | _ -> fail lineno "line is not a JSON object"
  in
  match fold_lines check trace with
  | Error _ as e -> e
  | Ok [] -> Error "empty trace (no header)"
  | Ok _ -> Ok ()

(* --- the CLI's obs section ---------------------------------------------- *)

let render ?(title = "Observability (process-wide, volatile)") () =
  let sections =
    List.filter
      (fun s -> s <> "")
      [
        render_spans ();
        render_histograms ();
        render_named_ints "Counters" (counters ());
        render_named_ints "Gauges" (gauges ());
        render_events ();
      ]
  in
  match sections with
  | [] -> ""
  | sections ->
      title ^ "\n" ^ String.concat "" (List.map (fun s -> s) sections)
