(* End-to-end tests: every paper artefact computed over the shared
   quick world, checked against the paper's published shape. *)

module PD = Tangled_pki.Paper_data
module Pipeline = Tangled_core.Pipeline
module Report = Tangled_core.Report
module T1 = Tangled_core.Table1
module T2 = Tangled_core.Table2
module T3 = Tangled_core.Table3
module T4 = Tangled_core.Table4
module T5 = Tangled_core.Table5
module T6 = Tangled_core.Table6
module F1 = Tangled_core.Figure1
module F2 = Tangled_core.Figure2
module F3 = Tangled_core.Figure3

let check = Alcotest.check

let world = lazy (Lazy.force Pipeline.quick)

let test_table1_exact () =
  List.iter
    (fun (r : T1.row) ->
      check Alcotest.int ("table1: " ^ r.T1.store) r.T1.paper r.T1.certificates)
    (T1.compute (Lazy.force world))

let test_table2_shape () =
  let t = T2.compute (Lazy.force world) in
  check Alcotest.int "five devices" 5 (List.length t.T2.top_devices);
  check Alcotest.int "five manufacturers" 5 (List.length t.T2.top_manufacturers);
  (match t.T2.top_devices with
  | (top, _) :: _ ->
      Alcotest.(check bool) "Galaxy SIV leads" true
        (top = "SAMSUNG Galaxy SIV")
  | [] -> Alcotest.fail "no devices");
  match t.T2.top_manufacturers with
  | (m, _) :: _ -> check Alcotest.string "Samsung leads" "SAMSUNG" m
  | [] -> Alcotest.fail "no manufacturers"

let test_table3_shape () =
  let t = T3.compute (Lazy.force world) in
  check Alcotest.int "six stores" 6 (List.length t.T3.rows);
  List.iter
    (fun (r : T3.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s fraction %.3f near paper %.3f" r.T3.store r.T3.fraction
           r.T3.paper_fraction)
        true
        (abs_float (r.T3.fraction -. r.T3.paper_fraction) < 0.05))
    t.T3.rows;
  let get name = (List.find (fun (r : T3.row) -> r.T3.store = name) t.T3.rows).T3.validated in
  Alcotest.(check bool) "iOS most" true (get "iOS 7" >= get "AOSP 4.4");
  Alcotest.(check bool) "4.4 >= 4.1" true (get "AOSP 4.4" >= get "AOSP 4.1")

let test_table4_shape () =
  let rows = T4.compute (Lazy.force world) in
  check Alcotest.int "eight categories" 8 (List.length rows);
  List.iter
    (fun (r : T4.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s zero %.2f vs paper %.2f" r.T4.category r.T4.zero_fraction
           r.T4.paper_zero_fraction)
        true
        (abs_float (r.T4.zero_fraction -. r.T4.paper_zero_fraction) < 0.10);
      Alcotest.(check bool)
        (Printf.sprintf "%s total %d vs paper %d" r.T4.category r.T4.total r.T4.paper_total)
        true
        (abs (r.T4.total - r.T4.paper_total) <= 20))
    rows

let test_table5_shape () =
  let t = T5.compute (Lazy.force world) in
  check Alcotest.int "five CAs" 5 (List.length t.T5.rows);
  (match t.T5.rows with
  | top :: rest ->
      check Alcotest.string "crazy house leads" "CRAZY HOUSE" top.T5.ca;
      Alcotest.(check bool) "many devices" true (top.T5.devices >= 5);
      List.iter
        (fun (r : T5.row) ->
          Alcotest.(check bool) (r.T5.ca ^ " on one device") true (r.T5.devices <= 1))
        rest
  | [] -> Alcotest.fail "no rows");
  Alcotest.(check bool) "rooted near 24%" true
    (abs_float (t.T5.rooted_session_fraction -. PD.fraction_sessions_rooted) < 0.06)

let test_table6_partition () =
  let t = T6.compute (Lazy.force world) in
  Alcotest.(check bool) "probes ran" true (t.T6.rows <> []);
  List.iter
    (fun (r : T6.row) ->
      let expected = List.mem (r.T6.host, r.T6.port) PD.intercepted_domains in
      Alcotest.(check bool)
        (Printf.sprintf "%s:%d interception" r.T6.host r.T6.port)
        expected r.T6.intercepted;
      (* the §7 detection signal: intercepted <=> untrusted *)
      Alcotest.(check bool)
        (Printf.sprintf "%s:%d trust inverse" r.T6.host r.T6.port)
        (not expected) r.T6.trusted_by_device)
    t.T6.rows

let test_figure1_shape () =
  let f = F1.compute (Lazy.force world) in
  Alcotest.(check bool) "extended near 39%" true
    (abs_float (f.F1.extended_fraction -. PD.fraction_sessions_extended) < 0.10);
  check Alcotest.int "five missing handsets" PD.handsets_missing_certs f.F1.handsets_missing;
  (* heavy extender rows show a >40-addition tail *)
  let heavy_hit =
    List.exists (fun (_, _, frac) -> frac > 0.10) f.F1.heavy_fraction
  in
  Alcotest.(check bool) "heavy tail present" true heavy_hit;
  (* points aggregate all sessions *)
  let total = List.fold_left (fun acc (p : F1.point) -> acc + p.F1.sessions) 0 f.F1.points in
  check Alcotest.int "points cover sessions" total
    (Tangled_netalyzr.Netalyzr.total_sessions (Lazy.force world).Pipeline.dataset)

let test_figure2_shape () =
  let f = F2.compute (Lazy.force world) in
  Alcotest.(check bool) "cells exist" true (f.F2.cells <> []);
  List.iter
    (fun (c : F2.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "frequency sane: %s/%s" c.F2.row c.F2.cert_id)
        true
        (c.F2.frequency > 0.0 && c.F2.frequency <= 1.0))
    f.F2.cells;
  (* all four legend classes appear with positive share *)
  check Alcotest.int "four classes" 4 (List.length f.F2.class_mix);
  List.iter
    (fun (cls, share) ->
      Alcotest.(check bool)
        (PD.notary_class_to_string cls ^ " appears")
        true (share > 0.0))
    f.F2.class_mix;
  (* the unrecorded class is the biggest, as in the paper (40%) *)
  let share cls = List.assoc cls f.F2.class_mix in
  Alcotest.(check bool) "unrecorded largest" true
    (share PD.Unrecorded >= share PD.Mozilla_and_ios)

let test_figure3_shape () =
  let series = F3.compute (Lazy.force world) in
  check Alcotest.int "eight series" 8 (List.length series);
  let offset name =
    (List.find (fun (s : F3.series) -> s.F3.category = name) series).F3.zero_offset
  in
  (* the paper's qualitative ordering of y-intercepts *)
  Alcotest.(check bool) "non-AOSP/non-Mozilla worst" true
    (offset "Non AOSP and Non Mozilla root certs" > offset "iOS 7 root store certs");
  Alcotest.(check bool) "shared best" true
    (offset "AOSP 4.4 and Mozilla root certs" < offset "AOSP 4.4 certs");
  Alcotest.(check bool) "ios above mozilla" true
    (offset "iOS 7 root store certs" > offset "Mozilla root store certs")

let test_report_renders () =
  let w = Lazy.force world in
  List.iter
    (fun name ->
      let s = Report.render_one w name in
      Alcotest.(check bool) (name ^ " non-empty") true (String.length s > 50))
    Report.artefact_names;
  Alcotest.check_raises "unknown artefact"
    (Invalid_argument "Report.render_one: unknown artefact nope") (fun () ->
      ignore (Report.render_one w "nope"))

let test_csv_outputs () =
  let w = Lazy.force world in
  List.iter
    (fun name ->
      let header, rows = Report.csv_one w name in
      Alcotest.(check bool) (name ^ " has header") true (header <> []);
      Alcotest.(check bool) (name ^ " has rows") true (rows <> []);
      List.iter
        (fun row ->
          check Alcotest.int (name ^ " row width") (List.length header) (List.length row))
        rows)
    Report.artefact_names

let test_pipeline_determinism () =
  (* identical configs give identical Table 3 counts *)
  let cfg =
    { Pipeline.quick_config with Pipeline.sessions = 300; notary_leaves = 500 }
  in
  let u = (Lazy.force world).Pipeline.universe in
  let w1 = Pipeline.run ~config:cfg ~universe:u () in
  let w2 = Pipeline.run ~config:cfg ~universe:u () in
  let counts w = List.map (fun (r : T3.row) -> r.T3.validated) (T3.compute w).T3.rows in
  check (Alcotest.list Alcotest.int) "table3 deterministic" (counts w1) (counts w2)

(* A universe built on first use is timed inside the pipeline's
   "universe" stage, not before it, so [quick]'s stage table cannot
   read "universe 0.000s" beside a multi-second world build. *)
let test_universe_stage_times_forcing () =
  let cfg =
    { Pipeline.quick_config with Pipeline.sessions = 300; notary_leaves = 500 }
  in
  let u = (Lazy.force world).Pipeline.universe in
  let pause = 0.05 in
  let w =
    Pipeline.run_lazy ~config:cfg ~universe:(lazy (Unix.sleepf pause; u)) ()
  in
  let stage =
    List.find (fun (s : Tangled_obs.Obs.span) -> s.Tangled_obs.Obs.name = "universe")
      w.Pipeline.timings
  in
  let dur = stage.Tangled_obs.Obs.dur_s in
  Alcotest.(check bool)
    (Printf.sprintf "universe stage %.3fs covers the %.2fs forcing" dur pause)
    true (dur >= pause)

(* Each artefact is computed once per call: the CSV dump reuses the
   value the text was rendered from, so [run_all ~csv_dir] runs the
   export→ingest round trip (three [ingest.run] spans) no more often
   than [run_all] alone, and every file it writes is [csv_one]'s CSV. *)
let test_csv_dir_computes_once () =
  let module Obs = Tangled_obs.Obs in
  let w = Lazy.force world in
  let ingest_runs f =
    let (), mark = Obs.spanned "test.mark" ignore in
    let v = f () in
    let n =
      List.length
        (List.filter
           (fun (s : Obs.span) -> s.Obs.id > mark.Obs.id && s.Obs.name = "ingest.run")
           (Obs.spans ()))
    in
    (v, n)
  in
  let dir = Filename.temp_dir "tangled_report" "" in
  let remove_dir () =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:remove_dir @@ fun () ->
  let plain, plain_runs = ingest_runs (fun () -> Report.run_all w) in
  let dumped, dumped_runs = ingest_runs (fun () -> Report.run_all ~csv_dir:dir w) in
  check Alcotest.int "ingest.run spans without a CSV dump" 3 plain_runs;
  check Alcotest.int "ingest.run spans with a CSV dump" 3 dumped_runs;
  check Alcotest.string "same report either way" plain dumped;
  let names = Report.artefact_names @ Report.extension_names in
  check Alcotest.int "one CSV per artefact" (List.length names)
    (Array.length (Sys.readdir dir));
  List.iter
    (fun name ->
      let written =
        In_channel.with_open_bin (Filename.concat dir (name ^ ".csv")) In_channel.input_all
      in
      let header, rows = Report.csv_one w name in
      check Alcotest.string (name ^ ".csv") (Tangled_util.Csv.render ~header rows) written)
    names

let suite =
  [
    ("Table 1 exact", `Quick, test_table1_exact);
    ("Table 2 shape", `Quick, test_table2_shape);
    ("Table 3 shape", `Quick, test_table3_shape);
    ("Table 4 shape", `Quick, test_table4_shape);
    ("Table 5 shape", `Quick, test_table5_shape);
    ("Table 6 partition", `Quick, test_table6_partition);
    ("Figure 1 shape", `Quick, test_figure1_shape);
    ("Figure 2 shape", `Quick, test_figure2_shape);
    ("Figure 3 shape", `Quick, test_figure3_shape);
    ("all artefacts render", `Quick, test_report_renders);
    ("all artefacts dump CSV", `Quick, test_csv_outputs);
    ("pipeline determinism", `Slow, test_pipeline_determinism);
    ("universe stage times a lazy universe", `Quick, test_universe_stage_times_forcing);
    ("CSV dump computes each artefact once", `Quick, test_csv_dir_computes_once);
  ]
