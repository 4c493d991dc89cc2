(* Tests for the chain builder and verifier. *)

module Chain = Tangled_validation.Chain
module Rs = Tangled_store.Root_store
module Dn = Tangled_x509.Dn
module C = Tangled_x509.Certificate
module Authority = Tangled_x509.Authority
module B = Tangled_numeric.Bigint
module Prng = Tangled_util.Prng
module Ts = Tangled_util.Timestamp

let check = Alcotest.check

let rng = Prng.create 600
let now = Ts.paper_epoch

(* Shared hierarchy: root -> inter -> leaf, plus an unrelated root. *)
let root = lazy (Authority.self_signed rng (Dn.make ~o:"V" "Val Root"))
let inter = lazy (Authority.issue_intermediate rng ~parent:(Lazy.force root) (Dn.make ~o:"V" "Val Inter"))
let leaf = lazy (Authority.issue_leaf rng ~parent:(Lazy.force inter) ~dns_names:[ "v.example" ] (Dn.make "v.example"))
let other_root = lazy (Authority.self_signed rng (Dn.make ~o:"O" "Other Root"))

let store_with certs = Rs.of_certs "test" Rs.Aosp certs

let trusted = lazy (store_with [ (Lazy.force root).Authority.certificate ])

let verdict chain store =
  (Chain.validate ~now ~store chain).Chain.verdict

let expect_ok chain store =
  match verdict chain store with
  | Ok anchor -> anchor
  | Error f -> Alcotest.fail ("expected success, got " ^ Chain.failure_to_string f)

let expect_fail chain store =
  match verdict chain store with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f -> f

let test_valid_chain () =
  let anchor =
    expect_ok [ Lazy.force leaf; (Lazy.force inter).Authority.certificate ] (Lazy.force trusted)
  in
  Alcotest.(check bool) "anchored at root" true
    (Dn.equal anchor.C.subject (Lazy.force root).Authority.certificate.C.subject)

let test_direct_chain () =
  (* leaf issued directly by a trusted root, no intermediate *)
  let direct =
    Authority.issue_leaf rng ~parent:(Lazy.force root) ~dns_names:[ "d.example" ]
      (Dn.make "d.example")
  in
  ignore (expect_ok [ direct ] (Lazy.force trusted))

let test_out_of_order_pool () =
  (* junk and duplicates in the presented pool are tolerated *)
  let chain =
    [ Lazy.force leaf;
      (Lazy.force other_root).Authority.certificate;
      (Lazy.force inter).Authority.certificate;
      (Lazy.force inter).Authority.certificate ]
  in
  ignore (expect_ok chain (Lazy.force trusted))

let test_untrusted_root () =
  let f =
    expect_fail
      [ Lazy.force leaf; (Lazy.force inter).Authority.certificate ]
      (store_with [ (Lazy.force other_root).Authority.certificate ])
  in
  Alcotest.(check bool) "no trusted root" true (f = Chain.No_trusted_root)

let test_missing_intermediate () =
  let f = expect_fail [ Lazy.force leaf ] (Lazy.force trusted) in
  Alcotest.(check bool) "no path" true (f = Chain.No_trusted_root)

let test_expired_leaf () =
  let expired =
    Authority.issue_leaf rng ~parent:(Lazy.force inter)
      ~not_before:(Ts.of_date 2010 1 1) ~not_after:(Ts.of_date 2012 1 1)
      ~dns_names:[ "e.example" ] (Dn.make "e.example")
  in
  match expect_fail [ expired; (Lazy.force inter).Authority.certificate ] (Lazy.force trusted) with
  | Chain.Expired _ -> ()
  | f -> Alcotest.fail ("wrong failure: " ^ Chain.failure_to_string f)

let test_not_yet_valid_leaf () =
  let future =
    Authority.issue_leaf rng ~parent:(Lazy.force inter)
      ~not_before:(Ts.of_date 2020 1 1) ~not_after:(Ts.of_date 2025 1 1)
      ~dns_names:[ "f.example" ] (Dn.make "f.example")
  in
  match expect_fail [ future ] (Lazy.force trusted) with
  | Chain.Not_yet_valid _ -> ()
  | f -> Alcotest.fail ("wrong failure: " ^ Chain.failure_to_string f)

let test_expired_intermediate () =
  let old_inter =
    Authority.issue_intermediate rng ~parent:(Lazy.force root)
      ~not_before:(Ts.of_date 2008 1 1) ~not_after:(Ts.of_date 2010 1 1)
      (Dn.make ~o:"V" "Old Inter")
  in
  let leaf =
    Authority.issue_leaf rng ~parent:old_inter ~dns_names:[ "g.example" ]
      (Dn.make "g.example")
  in
  match expect_fail [ leaf; old_inter.Authority.certificate ] (Lazy.force trusted) with
  | Chain.Expired _ -> ()
  | f -> Alcotest.fail ("wrong failure: " ^ Chain.failure_to_string f)

let test_expired_root () =
  let dead_root =
    Authority.self_signed rng
      ~not_before:(Ts.of_date 2001 1 1) ~not_after:(Ts.of_date 2013 10 24)
      (Dn.make "Dead Root")
  in
  let leaf =
    Authority.issue_leaf rng ~parent:dead_root ~dns_names:[ "h.example" ]
      (Dn.make "h.example")
  in
  match expect_fail [ leaf ] (store_with [ dead_root.Authority.certificate ]) with
  | Chain.Expired _ -> ()
  | f -> Alcotest.fail ("wrong failure: " ^ Chain.failure_to_string f)

let test_non_ca_intermediate () =
  (* an end-entity certificate cannot act as an issuer *)
  let fake_inter_cert = Lazy.force leaf in
  let fake_authority =
    (* reuse the intermediate's key but present the leaf as issuer *)
    { Authority.certificate = fake_inter_cert; key = (Lazy.force inter).Authority.key }
  in
  let victim =
    Authority.issue_leaf rng ~parent:fake_authority ~dns_names:[ "x.example" ]
      (Dn.make "x.example")
  in
  (* chain: victim <- leaf(non-CA) <- inter <- root *)
  match
    expect_fail
      [ victim; fake_inter_cert; (Lazy.force inter).Authority.certificate ]
      (Lazy.force trusted)
  with
  | Chain.Not_a_ca _ | Chain.No_trusted_root -> ()
  | f -> Alcotest.fail ("wrong failure: " ^ Chain.failure_to_string f)

let test_path_len_constraint () =
  let constrained_root =
    Authority.self_signed ~path_len:0 rng (Dn.make "Constrained Root")
  in
  let inter1 =
    Authority.issue_intermediate ~path_len:0 rng ~parent:constrained_root
      (Dn.make "Constrained Inter 1")
  in
  let inter2 =
    Authority.issue_intermediate rng ~parent:inter1 (Dn.make "Constrained Inter 2")
  in
  let leaf =
    Authority.issue_leaf rng ~parent:inter2 ~dns_names:[ "p.example" ]
      (Dn.make "p.example")
  in
  (* two non-self-issued intermediates under a pathlen-0 root *)
  match
    expect_fail
      [ leaf; inter2.Authority.certificate; inter1.Authority.certificate ]
      (store_with [ constrained_root.Authority.certificate ])
  with
  | Chain.Path_len_exceeded _ | Chain.No_trusted_root -> ()
  | f -> Alcotest.fail ("wrong failure: " ^ Chain.failure_to_string f)

let test_eku_enforcement () =
  let signer =
    Authority.issue_leaf rng ~parent:(Lazy.force inter) ~ekus:[ C.Code_signing ]
      ~dns_names:[] (Dn.make "code-signer")
  in
  (match
     expect_fail [ signer; (Lazy.force inter).Authority.certificate ] (Lazy.force trusted)
   with
  | Chain.Wrong_key_usage _ -> ()
  | f -> Alcotest.fail ("wrong failure: " ^ Chain.failure_to_string f));
  (* the check can be disabled, as for non-TLS validations *)
  Alcotest.(check bool) "without EKU check" true
    (Chain.validate_ok ~check_server_auth:false ~now ~store:(Lazy.force trusted)
       [ signer; (Lazy.force inter).Authority.certificate ])

let test_tampered_signature () =
  (* re-assemble the leaf with a corrupted signature *)
  let l = Lazy.force leaf in
  let bad_sig = Bytes.of_string l.C.signature in
  Bytes.set bad_sig 5 (Char.chr (Char.code (Bytes.get bad_sig 5) lxor 1));
  match
    C.assemble ~tbs_der:l.C.tbs_der ~signature_alg:l.C.signature_alg
      ~signature:(Bytes.to_string bad_sig)
  with
  | Error m -> Alcotest.fail m
  | Ok tampered -> (
      match
        expect_fail
          [ tampered; (Lazy.force inter).Authority.certificate ]
          (Lazy.force trusted)
      with
      | Chain.Bad_signature _ | Chain.No_trusted_root -> ()
      | f -> Alcotest.fail ("wrong failure: " ^ Chain.failure_to_string f))

let test_max_depth () =
  (* a chain longer than max_depth is rejected *)
  let rec build parent acc n =
    if n = 0 then acc
    else begin
      let i =
        Authority.issue_intermediate rng ~parent
          (Dn.make (Printf.sprintf "Deep Inter %d" n))
      in
      build i (i :: acc) (n - 1)
    end
  in
  let inters = build (Lazy.force root) [] 5 in
  let deepest = List.hd inters in
  let leaf =
    Authority.issue_leaf rng ~parent:deepest ~dns_names:[ "deep.example" ]
      (Dn.make "deep.example")
  in
  let chain = leaf :: List.map (fun (a : Authority.t) -> a.Authority.certificate) inters in
  Alcotest.(check bool) "fits depth 8" true
    (Chain.validate_ok ~now ~store:(Lazy.force trusted) chain);
  Alcotest.(check bool) "depth 3 too short" false
    (Chain.validate_ok ~max_depth:3 ~now ~store:(Lazy.force trusted) chain)

let test_disabled_root () =
  let store = Lazy.force trusted in
  let disabled =
    match Rs.disable store Rs.Settings_ui (Lazy.force root).Authority.certificate with
    | Ok s -> s
    | Error e -> Alcotest.fail (Rs.error_to_string e)
  in
  Alcotest.(check bool) "disabled root rejects" false
    (Chain.validate_ok ~now ~store:disabled
       [ Lazy.force leaf; (Lazy.force inter).Authority.certificate ])

let test_empty_chain () =
  Alcotest.check_raises "empty" (Invalid_argument "Chain.validate: empty chain")
    (fun () -> ignore (Chain.validate ~now ~store:(Lazy.force trusted) []))

let test_anchor_key () =
  let key =
    Chain.anchor_key ~now ~store:(Lazy.force trusted)
      [ Lazy.force leaf; (Lazy.force inter).Authority.certificate ]
  in
  check (Alcotest.option Alcotest.string) "anchor key"
    (Some (C.equivalence_key (Lazy.force root).Authority.certificate)) key;
  check (Alcotest.option Alcotest.string) "no anchor" None
    (Chain.anchor_key ~now ~store:(Lazy.force trusted) [ Lazy.force leaf ])

let test_equivalent_root_validates () =
  (* a renewed (byte-distinct, equivalent) root still anchors chains,
     the §4.2 equivalence property *)
  let renewed = Authority.renew ~serial:(B.of_int 4242) (Lazy.force root) in
  let store = store_with [ renewed.Authority.certificate ] in
  Alcotest.(check bool) "renewed root anchors" true
    (Chain.validate_ok ~now ~store
       [ Lazy.force leaf; (Lazy.force inter).Authority.certificate ])

(* --- decision cache transparency ---------------------------------------- *)

(* The bounded verification cache must be invisible to results: any
   chain drawn from a pool of related and unrelated certificates
   validates to the same verdict and path with the cache enabled or
   bypassed.  The pool deliberately mixes chains that share issuers so
   cached verdicts from one draw are hit by the next. *)
let cache_pool =
  lazy
    (let direct =
       Authority.issue_leaf rng ~parent:(Lazy.force other_root)
         ~dns_names:[ "c.example" ] (Dn.make "c.example")
     in
     let expired =
       Authority.issue_leaf rng ~parent:(Lazy.force inter)
         ~not_before:(Ts.of_date 2010 1 1) ~not_after:(Ts.of_date 2012 1 1)
         ~dns_names:[ "x.example" ] (Dn.make "x.example")
     in
     [|
       Lazy.force leaf;
       (Lazy.force inter).Authority.certificate;
       (Lazy.force root).Authority.certificate;
       (Lazy.force other_root).Authority.certificate;
       direct;
       expired;
     |])

let verdict_repr (r : Chain.result) =
  ( (match r.Chain.verdict with
    | Ok anchor -> "ok:" ^ C.equivalence_key anchor
    | Error f -> "err:" ^ Chain.failure_to_string f),
    List.map C.byte_identity r.Chain.path )

let prop_cached_equals_uncached =
  QCheck.Test.make ~name:"validation identical with cache on, or cleared first"
    ~count:100
    QCheck.(
      make
        ~print:(fun (idxs, other) ->
          Printf.sprintf "chain=[%s] store=%s"
            (String.concat ";" (List.map string_of_int idxs))
            (if other then "other" else "trusted"))
        Gen.(pair (list_size (int_range 1 6) (int_bound 5)) bool))
    (fun (idxs, other_store) ->
      let pool = Lazy.force cache_pool in
      let chain = List.map (fun i -> pool.(i)) idxs in
      let store =
        if other_store then
          store_with [ (Lazy.force other_root).Authority.certificate ]
        else Lazy.force trusted
      in
      (* warm first, so the cached side answers from the memo *)
      ignore (Chain.validate ~now ~store chain);
      let cached = verdict_repr (Chain.validate ~now ~store chain) in
      (* a cleared cache makes every verdict a fresh verification, and
         an epoch bump must only forget, never change answers *)
      Chain.clear_verify_cache ();
      let uncached = verdict_repr (Chain.validate ~now ~store chain) in
      cached = uncached)

let test_cache_stays_bounded () =
  (* hammer many distinct verifications through a tiny cache: the live
     entry count must never exceed the configured capacity *)
  Chain.set_verify_cache_capacity 16;
  Fun.protect
    ~finally:(fun () -> Chain.set_verify_cache_capacity 8192)
    (fun () ->
      let pool = Lazy.force cache_pool in
      for round = 0 to 40 do
        let chain = [ pool.(round mod 6); pool.((round + 1) mod 6) ] in
        ignore (Chain.validate ~now ~store:(Lazy.force trusted) chain);
        let s = Chain.verify_cache_info () in
        if s.Tangled_cache.Cache.entries > 16 then
          Alcotest.failf "cache grew to %d entries (capacity 16)"
            s.Tangled_cache.Cache.entries
      done)

let suite =
  [
    ("valid three-cert chain", `Quick, test_valid_chain);
    ("direct root-signed leaf", `Quick, test_direct_chain);
    ("unordered pool with junk", `Quick, test_out_of_order_pool);
    ("untrusted root", `Quick, test_untrusted_root);
    ("missing intermediate", `Quick, test_missing_intermediate);
    ("expired leaf", `Quick, test_expired_leaf);
    ("not-yet-valid leaf", `Quick, test_not_yet_valid_leaf);
    ("expired intermediate", `Quick, test_expired_intermediate);
    ("expired root", `Quick, test_expired_root);
    ("non-CA intermediate", `Quick, test_non_ca_intermediate);
    ("pathLenConstraint", `Quick, test_path_len_constraint);
    ("EKU enforcement", `Quick, test_eku_enforcement);
    ("tampered signature", `Quick, test_tampered_signature);
    ("max depth", `Quick, test_max_depth);
    ("disabled root", `Quick, test_disabled_root);
    ("empty chain", `Quick, test_empty_chain);
    ("anchor key", `Quick, test_anchor_key);
    ("equivalent renewed root", `Quick, test_equivalent_root_validates);
    QCheck_alcotest.to_alcotest prop_cached_equals_uncached;
    ("verify cache stays bounded", `Quick, test_cache_stays_bounded);
  ]
