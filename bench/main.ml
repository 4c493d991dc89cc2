(* Benchmark harness for what perfbench does not time.

   perfbench (see BENCHMARK.json) times the artefacts, the substrate
   layers, the Notary build and serve end to end; speed claims come
   from its alternating parent/change protocol.  This harness keeps
   three groups:

   - wide_kernel: the one Montgomery plane (full-exponent and 65537
     walks, RSA sign and verify) across 384-2048-bit operands, where
     perfbench times 384-bit only;
   - ablations: the DESIGN.md §5 design choices, each timed against
     its alternative over the shared quick world;
   - ct: the RFC 6962 Merkle log at 200 k synthetic DER-sized leaves —
     append throughput through the compaction frontier, then inclusion
     and consistency proof generation and pure-verifier checking.

   What each shipped optimisation guarantees is gated by exact counts
   in the test suite, not here.  Only the two CT floors stay timed:
   their margins are an order of magnitude wide.

   Flags:
     --quick          smoke mode for the @check gate: the ct section
                      only (it never reads the world)
     --out FILE       where to write the JSON (default bench.json)
     --assert-floors  exit nonzero unless the ct append rate and the ct
                      proof-verify latency clear their floors
     --no-json        skip the JSON dump *)

open Bechamel
open Toolkit

module Pipeline = Tangled_core.Pipeline
module BP = Tangled_pki.Blueprint
module PD = Tangled_pki.Paper_data
module Rs = Tangled_store.Root_store
module C = Tangled_x509.Certificate
module Chain = Tangled_validation.Chain
module Notary = Tangled_notary.Notary
module Rsa = Tangled_crypto.Rsa
module Dk = Tangled_hash.Digest_kind
module Prng = Tangled_util.Prng
module Ts = Tangled_util.Timestamp
module Obs = Tangled_obs.Obs
module J = Tangled_util.Json
module Hex = Tangled_util.Hex

(* built on first use: only the ablations read it *)
let world = lazy (Lazy.force Pipeline.quick)

let render_timings (w : Pipeline.t) =
  Obs.render_span_table
    ~title:(Printf.sprintf "Stage timings (jobs=%d)" w.Pipeline.jobs)
    (List.map (fun (s : Obs.span) -> (s.Obs.name, s.Obs.dur_s)) w.Pipeline.timings)

(* --- wide_kernel: the one Montgomery plane across widths ------------------ *)

let wide_kernel_widths = [ 384; 512; 768; 1024; 1536; 2048 ]

(* the scheduled walk with a full-width exponent and with 65537 (the
   verify shape) at each modulus width, plus RSA sign and verify at the
   key sizes --key-bits accepts *)
let wide_kernel_tests () =
  let module B = Tangled_numeric.Bigint in
  let module Mont = Tangled_numeric.Montgomery in
  let rng = Prng.create 4242 in
  let msg = "width sweep" in
  List.concat_map
    (fun bits ->
      let m = Tangled_numeric.Prime.generate ~rounds:6 rng ~bits in
      let a = B.random_below rng m in
      let ctx = Mont.create m in
      let sc = Mont.scratch ctx in
      let sched = Mont.schedule (B.random_below rng m) in
      let sched_65537 = Mont.schedule (B.of_int 65537) in
      let rsa =
        if not (List.mem bits [ 384; 512; 1024; 2048 ]) then []
        else begin
          let key = Rsa.generate ~mr_rounds:6 rng ~bits in
          let signature = Rsa.sign key ~digest:Dk.SHA1 msg in
          [
            Test.make ~name:(Printf.sprintf "rsa%d_sign" bits)
              (Staged.stage (fun () -> ignore (Rsa.sign key ~digest:Dk.SHA1 msg)));
            Test.make ~name:(Printf.sprintf "rsa%d_verify" bits)
              (Staged.stage (fun () ->
                   ignore (Rsa.verify key.Rsa.pub ~digest:Dk.SHA1 ~msg ~signature)));
          ]
        end
      in
      Test.make ~name:(Printf.sprintf "powm_%dbit" bits)
        (Staged.stage (fun () -> ignore (Mont.powm ctx sc sched a)))
      :: Test.make ~name:(Printf.sprintf "powm_65537_%dbit" bits)
           (Staged.stage (fun () -> ignore (Mont.powm ctx sc sched_65537 a)))
      :: rsa)
    wide_kernel_widths

(* --- ablation benches (DESIGN.md §5) ------------------------------------ *)

let ablation_tests () =
  let w = Lazy.force world in
  let u = w.Pipeline.universe in
  let now = Ts.paper_epoch in
  let certs44 = Rs.certs (u.BP.aosp PD.V4_4) in
  let some_chain =
    let c = Notary.chain w.Pipeline.notary 0 in
    c.Notary.leaf :: c.Notary.intermediates
  in
  let anchor = Notary.anchor_key w.Pipeline.notary 0 in
  let store = u.BP.aosp PD.V4_4 in
  (* identity definition: (subject, modulus) equivalence vs full-DER *)
  let dedup keyf certs =
    let tbl = Hashtbl.create 256 in
    List.iter (fun c -> Hashtbl.replace tbl (keyf c) ()) certs;
    Hashtbl.length tbl
  in
  let mixed = certs44 @ Rs.certs u.BP.mozilla in
  (* store lookup: hash-keyed map vs linear scan *)
  let target = List.nth certs44 (List.length certs44 - 1) in
  let linear_mem cert =
    List.exists (fun c -> C.equivalence_key c = C.equivalence_key cert) certs44
  in
  [
    Test.make ~name:"ablation_identity_equivalence"
      (Staged.stage (fun () -> ignore (dedup C.equivalence_key mixed)));
    Test.make ~name:"ablation_identity_bytes"
      (Staged.stage (fun () -> ignore (dedup C.byte_identity mixed)));
    Test.make ~name:"ablation_store_lookup_hash"
      (Staged.stage (fun () -> ignore (Rs.mem store target)));
    Test.make ~name:"ablation_store_lookup_linear"
      (Staged.stage (fun () -> ignore (linear_mem target)));
    Test.make ~name:"ablation_sig_check_full"
      (Staged.stage (fun () -> ignore (Chain.validate ~now ~store some_chain)));
    Test.make ~name:"ablation_sig_check_membership"
      (Staged.stage (fun () ->
           ignore (match anchor with Some k -> Rs.mem_key store k | None -> false)));
  ]

(* --- ct: the log's hot paths at notary scale ------------------------------ *)

let ct_results : (string * J.t) list ref = ref []

(* synthetic ~600 B leaves (a DER-sized template with the leaf index
   stamped in the first bytes — real certificate issuance would
   dominate the measurement), appended one by one through the
   compaction frontier, then inclusion and consistency proofs
   generated against the full tree and re-checked through the pure
   verifier.  Everything is wall-clocked directly: each phase runs
   thousands of iterations, so Bechamel's per-run bookkeeping would
   only add noise. *)
let run_ct_bench ?(leaves = 200_000) () =
  let module Ct = Tangled_ct.Log in
  let module Pf = Tangled_ct.Proof in
  let template = Bytes.make 600 '\xa5' in
  let leaf i =
    Bytes.blit_string (Printf.sprintf "%012d" i) 0 template 0 12;
    Bytes.to_string template
  in
  Printf.printf "--- ct log at %d leaves %s\n%!" leaves (String.make 26 '-');
  Gc.compact ();
  let log = Ct.create ~name:"bench" () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to leaves - 1 do
    ignore (Ct.append log (leaf i))
  done;
  let appends_s = float_of_int leaves /. (Unix.gettimeofday () -. t0) in
  let root = Ct.head log in
  let rounds = 2000 in
  let idx k = (k * 7919 + 13) mod leaves in
  let ok = function Ok v -> v | Error e -> failwith ("ct bench: " ^ e) in
  let timed f =
    let t0 = Unix.gettimeofday () in
    for k = 0 to rounds - 1 do
      f k
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int rounds *. 1e9
  in
  let incl_gen_ns =
    timed (fun k -> ignore (ok (Ct.inclusion_proof log ~index:(idx k) ~tree_size:leaves)))
  in
  let incl_proofs =
    Array.init rounds (fun k ->
        ok (Ct.inclusion_proof log ~index:(idx k) ~tree_size:leaves))
  in
  let incl_verify_ns =
    timed (fun k ->
        if
          not
            (Pf.verify_inclusion ~leaf:(leaf (idx k)) ~index:(idx k)
               ~tree_size:leaves ~proof:incl_proofs.(k) ~root)
        then failwith "ct bench: inclusion proof rejected")
  in
  let first k = 1 + ((k * 104729) mod (leaves - 1)) in
  let cons_gen_ns =
    timed (fun k ->
        ignore (ok (Ct.consistency_proof log ~first:(first k) ~second:leaves)))
  in
  let cons_proofs =
    Array.init rounds (fun k ->
        ( first k,
          ok (Ct.head_at log (first k)),
          ok (Ct.consistency_proof log ~first:(first k) ~second:leaves) ))
  in
  let cons_verify_ns =
    timed (fun k ->
        let f, first_root, proof = cons_proofs.(k) in
        if
          not
            (Pf.verify_consistency ~first:f ~second:leaves ~first_root
               ~second_root:root ~proof)
        then failwith "ct bench: consistency proof rejected")
  in
  Printf.printf "  %-38s %8.0f leaves/s\n%!" "append (frontier)" appends_s;
  Printf.printf "  %-38s %8.0f ns\n%!" "inclusion proof gen" incl_gen_ns;
  Printf.printf "  %-38s %8.0f ns\n%!" "inclusion proof verify" incl_verify_ns;
  Printf.printf "  %-38s %8.0f ns\n%!" "consistency proof gen" cons_gen_ns;
  Printf.printf "  %-38s %8.0f ns\n%!" "consistency proof verify" cons_verify_ns;
  ct_results :=
    [
      ("leaves", J.Int leaves);
      ("appends_per_s", J.Float appends_s);
      ("inclusion_gen_ns", J.Float incl_gen_ns);
      ("inclusion_verify_ns", J.Float incl_verify_ns);
      ("consistency_gen_ns", J.Float cons_gen_ns);
      ("consistency_verify_ns", J.Float cons_verify_ns);
      ("head", J.String (Hex.encode root));
    ]

(* --- harness -------------------------------------------------------------- *)

(* every estimate lands here as (group, test, ns/run) for the JSON dump *)
let measurements : (string * string * float) list ref = ref []

let run_group ?(quota = 0.5) label tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  Printf.printf "--- %s %s\n%!" label
    (String.make (Stdlib.max 1 (60 - String.length label)) '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
              measurements := (label, name, ns) :: !measurements;
              let pretty =
                if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
                else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
                else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
                else Printf.sprintf "%8.2f ns" ns
              in
              Printf.printf "  %-38s %s/run\n%!" name pretty
          | _ -> Printf.printf "  %-38s (no estimate)\n%!" name)
        results)
    tests

let json_report () =
  let groups =
    !measurements
    |> List.fold_left
         (fun acc (g, n, ns) ->
           let rows = Option.value ~default:[] (List.assoc_opt g acc) in
           (g, (n, J.Float ns) :: rows) :: List.remove_assoc g acc)
         []
    |> List.map (fun (g, rows) -> (g, J.Obj (List.rev rows)))
  in
  (* the world's stage timings, when a group needed the world *)
  let world_fields =
    if not (Lazy.is_val world) then []
    else
      let w = Lazy.force world in
      [
        ("world", J.String "quick");
        ("jobs", J.Int w.Pipeline.jobs);
        ( "stage_timings_seconds",
          J.Obj
            (List.map
               (fun (s : Obs.span) -> (s.Obs.name, J.Float s.Obs.dur_s))
               w.Pipeline.timings) );
      ]
  in
  let ct =
    match !ct_results with [] -> [] | rows -> [ ("ct", J.Obj rows) ]
  in
  J.Obj
    ((("unit", J.String "ns_per_run") :: world_fields)
    @ ct @ [ ("benches", J.Obj groups) ])

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let assert_floors = Array.exists (( = ) "--assert-floors") Sys.argv in
  let no_json = Array.exists (( = ) "--no-json") Sys.argv in
  let out =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then "bench.json"
      else if Sys.argv.(i) = "--out" then Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  if not quick then begin
    run_group "wide_kernel" (wide_kernel_tests ());
    let t0 = Unix.gettimeofday () in
    Printf.printf "building the shared world (quick config)...\n%!";
    ignore (Lazy.force world);
    Printf.printf "world ready in %.1fs\n\n%!" (Unix.gettimeofday () -. t0);
    print_string (render_timings (Lazy.force world));
    print_newline ();
    run_group "ablations" (ablation_tests ())
  end;
  run_ct_bench ();
  if not no_json then begin
    let contents = J.to_string ~pretty:true (json_report ()) ^ "\n" in
    Tangled_core.Export.write_text out contents;
    Printf.printf "wrote %s\n%!" out
  end;
  if assert_floors then begin
    let failures = ref [] in
    let floor name v =
      match v with
      | None -> failures := (name ^ " (not measured)") :: !failures
      | Some x ->
          Printf.printf "floor %-28s %6.2fx (needs >= 1.0)\n%!" name x;
          if x < 1.0 then
            failures := Printf.sprintf "%s = %.3f" name x :: !failures
    in
    (* CT floors: the frontier must sustain >= 20 k appends/s on
       600 B leaves (an order of magnitude under what the streaming
       SHA-256 core delivers, so only a real regression trips it) and
       the pure verifier must check an inclusion proof in under 1 ms *)
    floor "ct_appends_per_s"
      (match List.assoc_opt "appends_per_s" !ct_results with
      | Some (J.Float x) -> Some (x /. 20_000.)
      | _ -> None);
    floor "ct_inclusion_verify_1ms"
      (match List.assoc_opt "inclusion_verify_ns" !ct_results with
      | Some (J.Float x) when x > 0.0 -> Some (1e6 /. x)
      | _ -> None);
    match !failures with
    | [] -> Printf.printf "all bench floors hold\n%!"
    | fs ->
        prerr_endline ("bench floors violated: " ^ String.concat "; " fs);
        exit 1
  end
