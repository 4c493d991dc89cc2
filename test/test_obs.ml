(* Unit and property tests for the unified observability layer: span
   nesting and failure recording, histogram bucketing and quantiles
   against a naive sorted-list oracle, the bounded event log,
   reset_all, and the JSONL trace exporter's stable/volatile split. *)

module Obs = Tangled_obs.Obs
module Pipeline = Tangled_core.Pipeline

let qtest = QCheck_alcotest.to_alcotest

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- spans --------------------------------------------------------------- *)

let test_span_nesting () =
  Obs.reset_all ();
  let v =
    Obs.span "outer" (fun () ->
        Obs.span "inner-a" (fun () -> ());
        Obs.span "inner-b" (fun () -> 7))
  in
  Alcotest.(check int) "value returned through nesting" 7 v;
  match Obs.spans () with
  | [ outer; a; b ] ->
      Alcotest.(check (list string)) "creation (preorder) order"
        [ "outer"; "inner-a"; "inner-b" ]
        [ outer.Obs.name; a.Obs.name; b.Obs.name ];
      Alcotest.(check int) "outer is a root" 0 outer.Obs.parent;
      Alcotest.(check int) "outer depth" 0 outer.Obs.depth;
      Alcotest.(check int) "inner-a parent" outer.Obs.id a.Obs.parent;
      Alcotest.(check int) "inner-b parent" outer.Obs.id b.Obs.parent;
      Alcotest.(check int) "inner depth" 1 a.Obs.depth;
      Alcotest.(check bool) "all done" true
        (List.for_all (fun s -> s.Obs.status = Obs.Done) [ outer; a; b ]);
      Alcotest.(check bool) "outer spans its children" true
        (outer.Obs.dur_s >= a.Obs.dur_s && outer.Obs.dur_s >= b.Obs.dur_s)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_span_failure_recorded () =
  Obs.reset_all ();
  (try Obs.span "boom" (fun () -> failwith "kaput") with Failure _ -> ());
  (match Obs.spans () with
  | [ s ] -> (
      match s.Obs.status with
      | Obs.Failed msg ->
          Alcotest.(check bool) "failure message kept" true (contains msg "kaput")
      | Obs.Done -> Alcotest.fail "raising span recorded as Done")
  | l -> Alcotest.failf "expected the failed span, got %d spans" (List.length l));
  (* the stack must be unwound: the next span is a root again *)
  Obs.span "after" (fun () -> ());
  match Obs.spans () with
  | [ _; after ] ->
      Alcotest.(check int) "stack unwound after raise" 0 after.Obs.depth
  | _ -> Alcotest.fail "expected exactly two spans"

let test_disabled_records_nothing () =
  Obs.reset_all ();
  Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled true)
    (fun () ->
      let v, s = Obs.spanned "ghost" (fun () -> 3) in
      Alcotest.(check int) "value still returned" 3 v;
      Alcotest.(check int) "synthetic span id" 0 s.Obs.id;
      Alcotest.(check bool) "duration still measured" true (s.Obs.dur_s >= 0.0);
      Obs.incr (Obs.counter "obs.test.ghost");
      Obs.event "obs.test.ghost_event";
      Obs.observe (Obs.histogram ~buckets:[| 1.0 |] "obs.test.ghost_hist") 0.5;
      Alcotest.(check int) "no spans retained" 0 (List.length (Obs.spans ()));
      Alcotest.(check int) "counter untouched" 0
        (Obs.value (Obs.counter "obs.test.ghost"));
      Alcotest.(check int) "no events retained" 0 (List.length (Obs.events ()));
      Alcotest.(check int) "histogram untouched" 0
        (Obs.histogram_snapshot
           (Obs.histogram ~buckets:[| 1.0 |] "obs.test.ghost_hist"))
          .Obs.total)

(* --- histograms ---------------------------------------------------------- *)

let test_histogram_bucket_edges () =
  Obs.reset_all ();
  let h = Obs.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "obs.test.edges" in
  List.iter (Obs.observe h) [ 1.0; 1.5; 2.0; 4.0; 5.0; 0.0 ];
  let s = Obs.histogram_snapshot h in
  Alcotest.(check (array (float 0.0))) "edges kept" [| 1.0; 2.0; 4.0 |] s.Obs.edges;
  (* v <= edge owns the bucket: {0.0, 1.0} {1.5, 2.0} {4.0} overflow {5.0} *)
  Alcotest.(check (array int)) "bucket ownership incl. edge values"
    [| 2; 2; 1; 1 |] s.Obs.counts;
  Alcotest.(check int) "total" 6 s.Obs.total;
  Alcotest.(check (float 1e-9)) "sum" 13.5 s.Obs.sum;
  (* a quantile landing in the overflow bucket reports the last edge *)
  Alcotest.(check (float 1e-9)) "overflow quantile = last edge" 4.0
    (Obs.quantile s 1.0);
  let empty = Obs.histogram_snapshot (Obs.histogram "obs.test.empty") in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Obs.quantile empty 0.5))

let test_time_histogram_observes_on_raise () =
  Obs.reset_all ();
  let h = Obs.histogram ~buckets:[| 1.0 |] "obs.test.raise_hist" in
  (try Obs.time_histogram h (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "raising thunk still observed" 1
    (Obs.histogram_snapshot h).Obs.total

(* quantile estimates must stay inside the bucket that holds the
   empirical (sorted-list) quantile — the exact value interpolates, but
   it can never leave that bucket's edges *)
let prop_quantile_brackets_oracle =
  QCheck.Test.make ~name:"quantile stays in the empirical quantile's bucket"
    ~count:60
    QCheck.(pair (list_of_size Gen.(1 -- 60) small_nat) (int_bound 98))
    (fun (ns, qi) ->
      let values = List.map (fun n -> float_of_int n /. 7.0) ns in
      let q = float_of_int (qi + 1) /. 100.0 in
      Obs.reset_all ();
      let h =
        Obs.histogram ~buckets:[| 0.5; 1.0; 2.0; 4.0; 8.0 |]
          "obs.test.quantile_hist"
      in
      List.iter (Obs.observe h) values;
      let s = Obs.histogram_snapshot h in
      let est = Obs.quantile s q in
      let sorted = List.sort compare values in
      let n = List.length sorted in
      let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let v = List.nth sorted (rank - 1) in
      let edges = s.Obs.edges in
      let ne = Array.length edges in
      let rec bucket i = if i >= ne || v <= edges.(i) then i else bucket (i + 1) in
      let bi = bucket 0 in
      if bi = ne then est = edges.(ne - 1)
      else
        let lo = if bi = 0 then 0.0 else edges.(bi - 1) in
        est >= lo -. 1e-9 && est <= edges.(bi) +. 1e-9)

(* --- events and reset ----------------------------------------------------- *)

let test_event_log_bounded () =
  Obs.reset_all ();
  for i = 1 to Obs.event_capacity + 50 do
    Obs.event ~fields:[ ("i", string_of_int i) ] "obs.test.flood"
  done;
  let all = Obs.events () in
  Alcotest.(check int) "capacity enforced" Obs.event_capacity (List.length all);
  (* oldest dropped: the first retained event is number 51 *)
  Alcotest.(check (list (pair string string))) "oldest dropped"
    [ ("i", "51") ]
    (List.hd all).Obs.fields;
  Alcotest.(check int) "seq keeps global order" 51 (List.hd all).Obs.seq

let test_reset_all_clears_everything () =
  Obs.reset_all ();
  let c = Obs.counter "obs.test.reset_c" in
  let g = Obs.gauge "obs.test.reset_g" in
  let h = Obs.histogram ~buckets:[| 1.0 |] "obs.test.reset_h" in
  Obs.incr c;
  Obs.set_gauge g 9;
  Obs.observe h 0.5;
  Obs.observe h 2.0;
  Obs.event ~fields:[ ("k", "v") ] "obs.test.reset_e";
  Obs.span "obs.test.reset_s" (fun () -> ());
  Obs.reset_all ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.value c);
  Alcotest.(check int) "gauge zeroed" 0 (Obs.gauge_value g);
  let s = Obs.histogram_snapshot h in
  Alcotest.(check int) "histogram emptied" 0 s.Obs.total;
  Alcotest.(check (array int)) "buckets zeroed" [| 0; 0 |] s.Obs.counts;
  Alcotest.(check (float 0.0)) "sum zeroed" 0.0 s.Obs.sum;
  Alcotest.(check int) "events dropped" 0 (List.length (Obs.events ()));
  Alcotest.(check int) "spans dropped" 0 (List.length (Obs.spans ()));
  Obs.span "fresh" (fun () -> ());
  Alcotest.(check int) "span ids restart at 1" 1
    (List.hd (Obs.spans ())).Obs.id

(* --- trace export ---------------------------------------------------------- *)

let test_trace_schema_valid () =
  Obs.reset_all ();
  Obs.incr (Obs.counter "obs.test.trace_c");
  Obs.set_gauge (Obs.gauge "obs.test.trace_g") 3;
  Obs.observe (Obs.histogram ~buckets:[| 1.0 |] "obs.test.trace_h") 0.5;
  Obs.event ~fields:[ ("why", "test") ] "obs.test.trace_e";
  Obs.span "obs.test.trace_s" (fun () -> ());
  let trace = Obs.trace_jsonl ~jobs:4 () in
  (match Obs.validate_trace trace with
  | Ok () -> ()
  | Error e -> Alcotest.failf "own trace rejected: %s" e);
  match Obs.stable_view trace with
  | Error e -> Alcotest.failf "stable_view failed: %s" e
  | Ok stable ->
      Alcotest.(check bool) "volatile members stripped" false
        (contains stable "volatile");
      Alcotest.(check bool) "stable names survive" true
        (contains stable "obs.test.trace_c" && contains stable "obs.test.trace_s")

let header_line =
  Printf.sprintf "{\"schema\":%S,\"kind\":\"header\",\"volatile\":{}}\n"
    Obs.schema_version

let test_trace_validation_rejects () =
  let reject what t =
    match Obs.validate_trace t with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  reject "empty trace" "";
  reject "garbage line" "not json\n";
  reject "missing header"
    "{\"kind\":\"counter\",\"name\":\"x\",\"volatile\":{\"value\":1}}\n";
  reject "wrong schema" "{\"schema\":\"bogus/9\",\"kind\":\"header\",\"volatile\":{}}\n";
  reject "duplicate header" (header_line ^ header_line);
  reject "unknown kind" (header_line ^ "{\"kind\":\"mystery\",\"volatile\":{}}\n");
  reject "counter value outside volatile"
    (header_line ^ "{\"kind\":\"counter\",\"name\":\"x\",\"value\":1,\"volatile\":{}}\n");
  reject "histogram counts/edges mismatch"
    (header_line
   ^ "{\"kind\":\"histogram\",\"name\":\"h\",\"edges\":[1.0],\"volatile\":\
      {\"counts\":[1],\"total\":1,\"sum\":0.5}}\n");
  match Obs.validate_trace header_line with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bare header rejected: %s" e

(* volatile values (counter totals, histogram counts, durations) must
   not leak into the stable view: two runs recording different amounts
   through the same instruments produce identical stable bytes *)
let prop_stable_view_ignores_volatile =
  QCheck.Test.make ~name:"stable view independent of recorded volumes" ~count:25
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let capture ns =
        Obs.reset_all ();
        let c = Obs.counter "obs.test.vol_c" in
        let h = Obs.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "obs.test.vol_h" in
        List.iter
          (fun n ->
            Obs.incr c;
            Obs.observe h (float_of_int n /. 3.0))
          ns;
        Obs.span "obs.test.vol_s" (fun () -> ());
        match Obs.stable_view (Obs.trace_jsonl ~jobs:1 ()) with
        | Ok s -> s
        | Error e -> QCheck.Test.fail_report e
      in
      String.equal (capture xs) (capture ys))

(* the end-to-end determinism contract: a full pipeline run's trace
   passes its schema, and its stable view is byte-identical whether the
   notary build used 1 worker domain or 4 *)
let test_stable_trace_jobs_independent () =
  let capture jobs =
    Obs.reset_all ();
    let w =
      Pipeline.run
        ~config:{ Pipeline.quick_config with Pipeline.jobs }
        ~universe:(Lazy.force Tangled_pki.Blueprint.default) ()
    in
    ignore w.Pipeline.jobs;
    let trace = Obs.trace_jsonl ~jobs () in
    (match Obs.validate_trace trace with
    | Ok () -> ()
    | Error e -> Alcotest.failf "jobs %d pipeline trace rejected: %s" jobs e);
    match Obs.stable_view trace with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let at1 = capture 1 in
  let at4 = capture 4 in
  Alcotest.(check bool) "stable trace non-trivial" true (String.length at1 > 0);
  Alcotest.(check string) "stable trace bytes: jobs 1 = jobs 4" at1 at4

let suite =
  [
    Alcotest.test_case "span nesting and order" `Quick test_span_nesting;
    Alcotest.test_case "raising span recorded as failed" `Quick
      test_span_failure_recorded;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
    Alcotest.test_case "time_histogram observes on raise" `Quick
      test_time_histogram_observes_on_raise;
    qtest prop_quantile_brackets_oracle;
    Alcotest.test_case "event log bounded" `Quick test_event_log_bounded;
    Alcotest.test_case "reset_all clears everything" `Quick
      test_reset_all_clears_everything;
    Alcotest.test_case "trace passes its own schema" `Quick test_trace_schema_valid;
    Alcotest.test_case "trace validation rejects malformed" `Quick
      test_trace_validation_rejects;
    qtest prop_stable_view_ignores_volatile;
    Alcotest.test_case "stable trace: jobs 1 vs 4" `Slow
      test_stable_trace_jobs_independent;
  ]
