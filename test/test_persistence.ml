(* Tests for the new infrastructure: cacerts directory persistence,
   JSON emission, dataset export, the blocklist, and sensitivity. *)

module PD = Tangled_pki.Paper_data
module BP = Tangled_pki.Blueprint
module Rs = Tangled_store.Root_store
module Cacerts = Tangled_store.Cacerts_dir
module C = Tangled_x509.Certificate
module Dn = Tangled_x509.Dn
module Authority = Tangled_x509.Authority
module Blocklist = Tangled_validation.Blocklist
module Chain = Tangled_validation.Chain
module J = Tangled_util.Json
module Prng = Tangled_util.Prng
module Ts = Tangled_util.Timestamp
module Pipeline = Tangled_core.Pipeline
module Export = Tangled_core.Export
module Sensitivity = Tangled_core.Sensitivity

let check = Alcotest.check

let world = lazy (Lazy.force Pipeline.quick)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tangled-test-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* --- cacerts dir ------------------------------------------------------- *)

let test_cacerts_roundtrip () =
  let u = (Lazy.force world).Pipeline.universe in
  let store = u.BP.aosp PD.V4_1 in
  with_tmpdir (fun dir ->
      (match Cacerts.write store dir with
      | Ok n -> check Alcotest.int "files written" (Rs.cardinal store) n
      | Error m -> Alcotest.fail m);
      match Cacerts.read ~name:"loaded" dir with
      | Error m -> Alcotest.fail m
      | Ok loaded ->
          check Alcotest.int "all loaded" (Rs.cardinal store) (Rs.cardinal loaded);
          (* same certificates by byte identity *)
          let ids s = Rs.certs s |> List.map C.byte_identity |> List.sort compare in
          Alcotest.(check bool) "byte-identical" true (ids store = ids loaded))

let test_cacerts_filenames () =
  let u = (Lazy.force world).Pipeline.universe in
  let cert = List.hd (Rs.certs (u.BP.aosp PD.V4_4)) in
  let name = Cacerts.filename_of cert 0 in
  check Alcotest.string "hash naming" (C.subject_hash32 cert ^ ".0") name;
  with_tmpdir (fun dir ->
      (match Cacerts.write (u.BP.aosp PD.V4_4) dir with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      Array.iter
        (fun file ->
          Alcotest.(check bool) (file ^ " shaped") true
            (String.length file = 10 && file.[8] = '.'))
        (Sys.readdir dir))

let test_cacerts_overwrite () =
  let u = (Lazy.force world).Pipeline.universe in
  with_tmpdir (fun dir ->
      (match Cacerts.write (u.BP.aosp PD.V4_4) dir with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (* re-writing a smaller store must not leave stale files *)
      (match Cacerts.write (u.BP.aosp PD.V4_1) dir with
      | Ok n -> check Alcotest.int "second write" 139 n
      | Error m -> Alcotest.fail m);
      match Cacerts.read ~name:"x" dir with
      | Ok loaded -> check Alcotest.int "no stale entries" 139 (Rs.cardinal loaded)
      | Error m -> Alcotest.fail m)

let test_cacerts_bad_dir () =
  match Cacerts.read ~name:"x" "/nonexistent/path/here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* --- json ---------------------------------------------------------------- *)

let test_json_basics () =
  check Alcotest.string "null" "null" (J.to_string J.Null);
  check Alcotest.string "bool" "true" (J.to_string (J.Bool true));
  check Alcotest.string "int" "-42" (J.to_string (J.Int (-42)));
  check Alcotest.string "float int" "2.0" (J.to_string (J.Float 2.0));
  check Alcotest.string "string" "\"a\\\"b\"" (J.to_string (J.String "a\"b"));
  check Alcotest.string "escape newline" "\"a\\nb\"" (J.to_string (J.String "a\nb"));
  check Alcotest.string "control" "\"\\u0001\"" (J.to_string (J.String "\x01"));
  check Alcotest.string "empty list" "[]" (J.to_string (J.List []));
  check Alcotest.string "empty obj" "{}" (J.to_string (J.Obj []));
  check Alcotest.string "nested" "{\"a\":[1,2]}"
    (J.to_string (J.Obj [ ("a", J.List [ J.Int 1; J.Int 2 ]) ]))

let test_json_pretty () =
  let doc = J.Obj [ ("k", J.List [ J.Int 1 ]) ] in
  let s = J.to_string ~pretty:true doc in
  Alcotest.(check bool) "has newlines" true (String.contains s '\n');
  (* compact and pretty agree after whitespace removal *)
  let strip s =
    String.to_seq s
    |> Seq.filter (fun c -> c <> ' ' && c <> '\n')
    |> String.of_seq
  in
  check Alcotest.string "same content" (J.to_string doc) (strip s)

(* --- export --------------------------------------------------------------- *)

(* An export's manifest fields and record objects, one per line. *)
let jsonl_lines doc =
  match String.split_on_char '\n' doc |> List.filter (( <> ) "") |> List.map J.parse with
  | Ok (J.Obj manifest) :: records ->
      ( manifest,
        List.map
          (function Ok (J.Obj fields) -> fields | _ -> Alcotest.fail "record not an object")
          records )
  | _ -> Alcotest.fail "no manifest object on line 1"

let int_field name fields =
  match List.assoc_opt name fields with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "%s is not an int" name

let test_export_sessions () =
  let w = Lazy.force world in
  let manifest, records = jsonl_lines (Export.sessions_jsonl ~limit:5 w) in
  check Alcotest.int "limited" 5 (List.length records);
  check Alcotest.int "control total" 5 (int_field "exported_sessions" manifest);
  check Alcotest.int "totals"
    (Tangled_netalyzr.Netalyzr.total_sessions w.Pipeline.dataset)
    (int_field "total_sessions" manifest);
  Alcotest.(check bool) "records carry session ids" true
    (List.for_all (List.mem_assoc "session_id") records)

let test_export_notary () =
  let w = Lazy.force world in
  let manifest, records = jsonl_lines (Export.notary_jsonl ~limit:3 w) in
  check Alcotest.int "limited" 3 (List.length records);
  check Alcotest.int "control total" 3 (int_field "exported_chains" manifest);
  check Alcotest.int "unexpired" 2000 (int_field "unexpired" manifest);
  match List.assoc_opt "validated_by_store" manifest with
  | Some (J.Obj stores) -> check Alcotest.int "six stores" 6 (List.length stores)
  | _ -> Alcotest.fail "stores"

let test_export_stores_parseable_sizes () =
  let w = Lazy.force world in
  let manifest, records = jsonl_lines (Export.stores_jsonl w) in
  check Alcotest.int "control total" (List.length records)
    (int_field "total_certificates" manifest);
  match List.assoc_opt "sizes" manifest with
  | Some (J.Obj sizes) ->
      check Alcotest.int "six stores" 6 (List.length sizes);
      List.iter
        (fun (name, size) ->
          let certs =
            List.filter (fun r -> List.assoc_opt "store" r = Some (J.String name)) records
          in
          check Alcotest.int ("size matches records: " ^ name)
            (match size with J.Int n -> n | _ -> -1)
            (List.length certs))
        sizes
  | _ -> Alcotest.fail "sizes is not an object"

let test_export_write_file () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "out.jsonl" in
      let text = "{\"kind\":\"x\"}\n{\"a\":1}\n" in
      Export.write_text path text;
      let ic = open_in_bin path in
      let written = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check Alcotest.string "written" text written)

(* --- blocklist -------------------------------------------------------------- *)

let fixture =
  lazy
    (let rng = Prng.create 808 in
     let root = Authority.self_signed ~bits:512 rng (Dn.make "Block Root") in
     let good_root = Authority.self_signed ~bits:512 rng (Dn.make "Good Root") in
     let leaf =
       Authority.issue_leaf ~bits:512 rng ~parent:root ~dns_names:[ "mail.example" ]
         (Dn.make "mail.example")
     in
     let good_leaf =
       Authority.issue_leaf ~bits:512 rng ~parent:good_root
         ~dns_names:[ "mail.example" ] (Dn.make "mail.example")
     in
     (root, good_root, leaf, good_leaf))

let store_of roots = Rs.of_certs "bl" Rs.Aosp (List.map (fun (a : Authority.t) -> a.Authority.certificate) roots)

let test_blocklist_key () =
  let root, good_root, leaf, _ = Lazy.force fixture in
  let store = store_of [ root; good_root ] in
  let now = Ts.paper_epoch in
  (match Blocklist.validate Blocklist.empty ~now ~store [ leaf ] with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "clean blocklist should pass");
  let bl = Blocklist.block_key Blocklist.empty root.Authority.certificate in
  check Alcotest.int "one key" 1 (Blocklist.blocked_keys bl);
  match Blocklist.validate bl ~now ~store [ leaf ] with
  | Error (`Screen (Blocklist.Blocked_key _)) -> ()
  | _ -> Alcotest.fail "expected Blocked_key"

let test_blocklist_survives_renewal () =
  let root, good_root, leaf, _ = Lazy.force fixture in
  let renewed = Authority.renew root in
  let store = store_of [ renewed; good_root ] in
  let bl = Blocklist.block_key Blocklist.empty root.Authority.certificate in
  match Blocklist.validate bl ~now:Ts.paper_epoch ~store [ leaf ] with
  | Error (`Screen (Blocklist.Blocked_key _)) -> ()
  | _ -> Alcotest.fail "renewed CA must stay blocked"

let test_issuer_pin () =
  let root, good_root, leaf, good_leaf = Lazy.force fixture in
  let store = store_of [ root; good_root ] in
  let now = Ts.paper_epoch in
  let bl =
    Blocklist.pin_issuer Blocklist.empty ~subject_cn:"mail.example"
      good_root.Authority.certificate
  in
  check Alcotest.int "one pin" 1 (Blocklist.pinned_subjects bl);
  (match Blocklist.validate bl ~now ~store [ leaf ] with
  | Error (`Screen (Blocklist.Issuer_pin_violation _)) -> ()
  | _ -> Alcotest.fail "wrong issuer must violate the pin");
  (match Blocklist.validate bl ~now ~store [ good_leaf ] with
  | Ok _ -> ()
  | _ -> Alcotest.fail "pinned issuer must pass");
  (* subdomains inherit the pin; unrelated names do not *)
  let rng = Prng.create 809 in
  let sub =
    Authority.issue_leaf ~bits:512 rng ~parent:root ~dns_names:[ "a.mail.example" ]
      (Dn.make "a.mail.example")
  in
  (match Blocklist.validate bl ~now ~store [ sub ] with
  | Error (`Screen (Blocklist.Issuer_pin_violation _)) -> ()
  | _ -> Alcotest.fail "subdomain must inherit the pin");
  let other =
    Authority.issue_leaf ~bits:512 rng ~parent:root ~dns_names:[ "other.example" ]
      (Dn.make "other.example")
  in
  match Blocklist.validate bl ~now ~store [ other ] with
  | Ok _ -> ()
  | _ -> Alcotest.fail "unpinned subject unaffected"

let test_blocklist_chain_failures_pass_through () =
  let root, _, leaf, _ = Lazy.force fixture in
  ignore root;
  let empty_store = Rs.empty "none" in
  match Blocklist.validate Blocklist.empty ~now:Ts.paper_epoch ~store:empty_store [ leaf ] with
  | Error (`Chain Chain.No_trusted_root) -> ()
  | _ -> Alcotest.fail "chain failure must surface"

(* --- sensitivity --------------------------------------------------------------- *)

let test_sensitivity () =
  let base = Lazy.force world in
  (* two tiny extra worlds keep this fast *)
  let config =
    { base.Pipeline.config with Pipeline.sessions = 400; notary_leaves = 400 }
  in
  let stats = Sensitivity.compute ~seeds:[ 21; 22 ] ~config base in
  check Alcotest.int "six statistics" 6 (List.length stats);
  List.iter
    (fun (s : Sensitivity.stat) ->
      check Alcotest.int "three runs" 3 (List.length s.Sensitivity.values);
      Alcotest.(check bool) (s.Sensitivity.name ^ " spread sane") true
        (s.Sensitivity.stddev < 0.10);
      Alcotest.(check bool) (s.Sensitivity.name ^ " near paper") true
        (abs_float (s.Sensitivity.mean -. s.Sensitivity.paper) < 0.12))
    stats

let suite =
  [
    ("cacerts roundtrip", `Quick, test_cacerts_roundtrip);
    ("cacerts filenames", `Quick, test_cacerts_filenames);
    ("cacerts overwrite", `Quick, test_cacerts_overwrite);
    ("cacerts bad dir", `Quick, test_cacerts_bad_dir);
    ("json basics", `Quick, test_json_basics);
    ("json pretty", `Quick, test_json_pretty);
    ("export sessions", `Quick, test_export_sessions);
    ("export notary", `Quick, test_export_notary);
    ("export stores", `Quick, test_export_stores_parseable_sizes);
    ("export write file", `Quick, test_export_write_file);
    ("blocklist key", `Quick, test_blocklist_key);
    ("blocklist survives renewal", `Quick, test_blocklist_survives_renewal);
    ("issuer pin", `Quick, test_issuer_pin);
    ("chain failures pass through", `Quick, test_blocklist_chain_failures_pass_through);
    ("sensitivity", `Slow, test_sensitivity);
  ]
