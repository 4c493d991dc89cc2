(* The refactor's central contract: the domain-parallel build phase
   must be invisible in the output.  Every artefact the study produces
   has to be byte-identical whatever the worker count and equal to the
   committed golden digest, and the coverage index has to agree with a
   direct fold over the raw chain array for arbitrary sub-stores. *)

module PD = Tangled_pki.Paper_data
module BP = Tangled_pki.Blueprint
module Rs = Tangled_store.Root_store
module C = Tangled_x509.Certificate
module Authority = Tangled_x509.Authority
module Notary = Tangled_notary.Notary
module Pipeline = Tangled_core.Pipeline
module Report = Tangled_core.Report
module Fleet = Tangled_ct.Fleet

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let world = lazy (Lazy.force Pipeline.quick)

let world_with_jobs jobs =
  Pipeline.run
    ~config:{ Pipeline.quick_config with Pipeline.jobs }
    ~universe:(Lazy.force BP.default) ()

(* built once, shared by every jobs-1-vs-4 case *)
let w1 = lazy (world_with_jobs 1)
let w4 = lazy (world_with_jobs 4)
let report1 = lazy (Report.run_all (Lazy.force w1))

(* the reference implementation the index replaced: one pass over the
   corpus per query, materialising each chain's anchor key *)
let scan_validated_by (n : Notary.t) store =
  let acc = ref 0 in
  for i = 0 to Notary.total n - 1 do
    match Notary.anchor_key n i with
    | Some key when (not (Notary.chain_expired n i)) && Rs.mem_key store key ->
        incr acc
    | _ -> ()
  done;
  !acc

let test_report_identical_across_jobs () =
  (* the full study, rendered twice: --jobs 1 vs --jobs 4 *)
  let w4 = Lazy.force w4 in
  check Alcotest.int "resolved jobs differ" 4 w4.Pipeline.jobs;
  check Alcotest.string "report bytes" (Lazy.force report1) (Report.run_all w4)

(* any byte of drift in the study fails here.  The golden is
   test/report_quick_jobs1.sha256 (Golden_digest is generated from it);
   perfbench's study workload reads the same file. *)
let test_report_matches_golden () =
  let digest =
    Tangled_util.Hex.encode (Tangled_hash.Sha256.digest (Lazy.force report1))
  in
  if digest <> Golden_digest.hex then
    Alcotest.failf
      "jobs-1 quick report digest %s differs from the golden %s; if the \
       drift is intended, write the new digest into \
       test/report_quick_jobs1.sha256"
      digest Golden_digest.hex

let test_chains_identical_across_jobs () =
  let w1 = Lazy.force w1 in
  let w4 = Lazy.force w4 in
  (* the arena digest covers every DER byte and every column row, so
     one comparison pins the whole corpus — including interned anchor
     ids, whose assignment order must not depend on the worker count *)
  let d1 = Tangled_x509.Arena.digest (Notary.arena w1.Pipeline.notary) in
  let d4 = Tangled_x509.Arena.digest (Notary.arena w4.Pipeline.notary) in
  Alcotest.(check bool) "arena digests byte-identical" true (d1 = d4);
  (* and the materialised views agree too *)
  let fingerprint (n : Notary.t) =
    Array.init (Notary.total n) (fun i ->
        let c = Notary.chain n i in
        ( C.byte_identity c.Notary.leaf,
          List.map C.byte_identity c.Notary.intermediates,
          c.Notary.expired,
          c.Notary.anchor ))
  in
  Alcotest.(check bool) "chain views byte-identical" true
    (fingerprint w1.Pipeline.notary = fingerprint w4.Pipeline.notary)

(* the CT fleet is a sequential pass over the arena, so its log heads
   inherit the corpus's jobs independence *)
let test_ct_heads_identical_across_jobs () =
  let heads w =
    let w = Lazy.force w in
    Fleet.entries
      (Fleet.build ~seed:w.Pipeline.config.Pipeline.seed w.Pipeline.universe
         w.Pipeline.notary)
    |> Array.map (fun (e : Fleet.entry) -> Tangled_ct.Log.head_hex e.Fleet.log)
  in
  check Alcotest.(array string) "CT log heads" (heads w1) (heads w4)

let test_index_agrees_with_scan_on_official_stores () =
  let w = Lazy.force world in
  let n = w.Pipeline.notary in
  let u = w.Pipeline.universe in
  let stores =
    List.map (fun v -> u.BP.aosp v) PD.android_versions
    @ [ u.BP.mozilla; u.BP.ios7 ]
  in
  List.iter
    (fun store ->
      check Alcotest.int
        ("index vs scan: " ^ Rs.name store)
        (scan_validated_by n store)
        (Notary.validated_by_store n store))
    stores

(* Random sub-stores of the full root population: the index-backed
   count must equal the raw fold whatever subset of roots is enabled. *)
let prop_index_matches_scan =
  QCheck.Test.make ~name:"coverage index equals chain-array fold" ~count:60
    QCheck.(make Gen.(pair (int_bound 1_000_000) (map (fun p -> float_of_int p /. 100.0) (int_bound 100))))
    (fun (salt, keep) ->
      let w = Lazy.force world in
      let n = w.Pipeline.notary in
      let u = w.Pipeline.universe in
      (* deterministic pseudo-random subset driven by the generated salt *)
      let pick i = float_of_int ((((i + salt) * 2654435761) land 0xFFFF)) /. 65536.0 < keep in
      let certs =
        Array.to_list u.BP.roots
        |> List.filteri (fun i _ -> pick i)
        |> List.map (fun (r : BP.root) -> r.BP.authority.Authority.certificate)
      in
      let store = Rs.of_certs "random-sub-store" Rs.Aosp certs in
      scan_validated_by n store = Notary.validated_by_store n store)

let test_crosscheck_fast_path () =
  let w = Lazy.force world in
  let n = w.Pipeline.notary in
  let u = w.Pipeline.universe in
  Alcotest.(check bool) "index membership agrees with full validator" true
    (Notary.crosscheck n (u.BP.aosp PD.V4_4) ~sample:200 ~seed:9)

let test_timings_cover_stages () =
  let w = Lazy.force world in
  let stages =
    List.map (fun (s : Tangled_obs.Obs.span) -> s.Tangled_obs.Obs.name) w.Pipeline.timings
  in
  check
    Alcotest.(list string)
    "pipeline stage order"
    [ "universe"; "population"; "netalyzr"; "notary" ]
    stages

let suite =
  [
    Alcotest.test_case "report byte-identical: jobs 1 vs 4" `Slow
      test_report_identical_across_jobs;
    Alcotest.test_case "chains byte-identical: jobs 1 vs 4" `Slow
      test_chains_identical_across_jobs;
    Alcotest.test_case "index vs scan on official stores" `Quick
      test_index_agrees_with_scan_on_official_stores;
    qtest prop_index_matches_scan;
    Alcotest.test_case "crosscheck fast path" `Quick test_crosscheck_fast_path;
    Alcotest.test_case "timings cover stages" `Quick test_timings_cover_stages;
    Alcotest.test_case "report matches the golden digest" `Slow
      test_report_matches_golden;
    Alcotest.test_case "CT log heads identical: jobs 1 vs 4" `Slow
      test_ct_heads_identical_across_jobs;
  ]
