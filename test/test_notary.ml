(* Tests for the Notary observatory over the shared quick world. *)

module PD = Tangled_pki.Paper_data
module BP = Tangled_pki.Blueprint
module Rs = Tangled_store.Root_store
module C = Tangled_x509.Certificate
module Authority = Tangled_x509.Authority
module Notary = Tangled_notary.Notary
module Pipeline = Tangled_core.Pipeline
module Chain = Tangled_validation.Chain

let check = Alcotest.check

let world = lazy (Lazy.force Pipeline.quick)
let notary () = (Lazy.force world).Pipeline.notary
let universe () = (Lazy.force world).Pipeline.universe

let test_volumes () =
  let n = notary () in
  check Alcotest.int "unexpired" 2_000 (Notary.unexpired n);
  check Alcotest.int "total includes expired" 2_200 (Notary.total n);
  Alcotest.(check bool) "scale" true (abs_float (n.Notary.scale -. 0.002) < 1e-9)

let test_every_chain_verifies () =
  let n = notary () in
  for i = 0 to Notary.total n - 1 do
    Alcotest.(check bool) "anchor present" true (Notary.anchor_id n i >= 0)
  done

let test_per_root_counts_sum () =
  let n = notary () in
  let counts = Notary.per_root_counts n in
  let sum = Hashtbl.fold (fun _ v acc -> acc + v) counts 0 in
  check Alcotest.int "counts cover all unexpired" (Notary.unexpired n) sum

let test_active_roots_validate_something () =
  let n = notary () in
  let counts = Notary.per_root_counts n in
  Array.iter
    (fun (r : BP.root) ->
      let key = C.equivalence_key r.BP.authority.Authority.certificate in
      let c = Option.value ~default:0 (Hashtbl.find_opt counts key) in
      if r.BP.traffic_weight > 0.0 then
        Alcotest.(check bool) ("active validates: " ^ r.BP.display_name) true (c > 0)
      else
        check Alcotest.int ("inactive validates nothing: " ^ r.BP.display_name) 0 c)
    (universe ()).BP.roots

let test_validated_by_store_ordering () =
  let n = notary () in
  let u = universe () in
  let v store = Notary.validated_by_store n store in
  let mozilla = v u.BP.mozilla in
  let ios = v u.BP.ios7 in
  let a41 = v (u.BP.aosp PD.V4_1) in
  let a44 = v (u.BP.aosp PD.V4_4) in
  (* Table 3's qualitative shape: all stores validate ~74% and iOS
     validates the most *)
  List.iter
    (fun (name, count) ->
      let f = float_of_int count /. float_of_int (Notary.unexpired n) in
      Alcotest.(check bool) (name ^ " near 74%") true (f > 0.70 && f < 0.80))
    [ ("mozilla", mozilla); ("ios", ios); ("aosp41", a41); ("aosp44", a44) ];
  Alcotest.(check bool) "iOS validates most" true (ios >= a44 && ios >= mozilla);
  Alcotest.(check bool) "4.4 >= 4.1" true (a44 >= a41)

let test_crosscheck_against_full_validator () =
  let n = notary () in
  let u = universe () in
  (* the anchor-membership shortcut must agree with real path building *)
  Alcotest.(check bool) "agrees on AOSP 4.4" true
    (Notary.crosscheck n (u.BP.aosp PD.V4_4) ~sample:150 ~seed:5);
  Alcotest.(check bool) "agrees on Mozilla" true
    (Notary.crosscheck n u.BP.mozilla ~sample:150 ~seed:6)

let test_has_record () =
  let n = notary () in
  let u = universe () in
  (* official-store members are always on record *)
  Alcotest.(check bool) "mozilla member recorded" true
    (Notary.has_record n (List.hd (Rs.certs u.BP.mozilla)));
  (* an unrecorded extra is not *)
  let fota = Hashtbl.find u.BP.extra_by_id "bae1df7c" in
  Alcotest.(check bool) "FOTA root unrecorded" false
    (Notary.has_record n fota.BP.authority.Authority.certificate);
  (* the interceptor root is unknown to the Notary (§7) *)
  Alcotest.(check bool) "interceptor unknown" false
    (Notary.has_record n u.BP.interceptor.Authority.certificate)

let test_classification () =
  let n = notary () in
  let u = universe () in
  let classify id = Notary.classify n (Hashtbl.find u.BP.extra_by_id id).BP.authority.Authority.certificate in
  Alcotest.(check bool) "AddTrust -> Mozilla+iOS" true
    (classify "9696d421" = PD.Mozilla_and_ios);
  Alcotest.(check bool) "DoD -> iOS only" true (classify "b530fe64" = PD.Ios_only);
  Alcotest.(check bool) "FOTA -> unrecorded" true (classify "bae1df7c" = PD.Unrecorded);
  (* an active Android-only extra is recorded but in no other store *)
  Alcotest.(check bool) "VeriSign TN -> Android only" true
    (classify "aad0babe" = PD.Android_only)

let test_counts_for_certs () =
  let n = notary () in
  let u = universe () in
  let certs = BP.store_of_category u "AOSP 4.4 certs" in
  let counts = Notary.counts_for_certs n certs in
  check Alcotest.int "one count per cert" (List.length certs) (Array.length counts);
  Alcotest.(check bool) "some zeros" true (Array.exists (fun c -> c = 0.0) counts);
  Alcotest.(check bool) "some positive" true (Array.exists (fun c -> c > 0.0) counts)

let test_zero_fraction_targets () =
  let n = notary () in
  let u = universe () in
  (* Table 4's zero-validation fractions, within tolerance *)
  List.iter
    (fun (label, _, paper_zero) ->
      let counts = Notary.counts_for_certs n (BP.store_of_category u label) in
      let zero = Tangled_util.Stats.fraction (fun c -> c = 0.0) counts in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f vs paper %.2f" label zero paper_zero)
        true
        (abs_float (zero -. paper_zero) < 0.08))
    PD.table4_rows

let test_expired_excluded () =
  let n = notary () in
  let u = universe () in
  (* validated_by_store only counts unexpired chains *)
  let v = Notary.validated_by_store n (u.BP.aosp PD.V4_4) in
  Alcotest.(check bool) "bounded by unexpired" true (v <= Notary.unexpired n)

(* Generation trusts what it just built: leaves are assembled from
   the fields it encoded, and only a 1-in-64 sample of chains is
   verified.  Re-check every handle of a 2 000-leaf build from the
   outside: the stored DER decodes, the decoded fields re-encode to
   exactly those bytes, and the chain verifies, signature by
   signature, up to the root its anchor column names. *)
let test_every_handle_redecodes_and_verifies () =
  let u = universe () in
  let n = Notary.generate ~leaves:2_000 ~jobs:2 ~seed:77 u in
  let arena = Notary.arena n in
  let authority_by_key = Hashtbl.create 512 in
  let add (a : Authority.t) =
    Hashtbl.replace authority_by_key
      (C.equivalence_key a.Authority.certificate)
      a.Authority.certificate
  in
  Array.iter (fun (r : BP.root) -> add r.BP.authority) u.BP.roots;
  Array.iter (fun (a, _) -> add a) u.BP.private_cas;
  for i = 0 to Notary.total n - 1 do
    let der = Tangled_x509.Arena.der arena i in
    let c =
      match C.decode der with
      | Ok c -> c
      | Error e -> Alcotest.failf "handle %d does not decode: %s" i e
    in
    let tbs =
      C.build_tbs ~version:c.C.version ~serial:c.C.serial
        ~signature_alg:c.C.signature_alg ~issuer:c.C.issuer
        ~not_before:c.C.not_before ~not_after:c.C.not_after
        ~subject:c.C.subject ~public_key:c.C.public_key
        ~extensions:c.C.extensions
    in
    let reencoded =
      (C.assemble_trusted ~version:c.C.version ~serial:c.C.serial
         ~signature_alg:c.C.signature_alg ~issuer:c.C.issuer
         ~not_before:c.C.not_before ~not_after:c.C.not_after
         ~subject:c.C.subject ~public_key:c.C.public_key
         ~extensions:c.C.extensions ~tbs_der:tbs ~signature:c.C.signature)
        .C.raw
    in
    if reencoded <> der then Alcotest.failf "handle %d re-encodes differently" i;
    let root =
      match Notary.anchor_key n i with
      | Some key -> Hashtbl.find authority_by_key key
      | None -> Alcotest.failf "handle %d has no anchor" i
    in
    let path =
      if Tangled_x509.Arena.via_intermediate arena i then
        [ n.Notary.inter_certs.(Tangled_x509.Arena.issuer_id arena i); root ]
      else [ root ]
    in
    let rec verifies cert = function
      | [] -> true
      | issuer :: rest ->
          C.verify_signature cert ~issuer_key:issuer.C.public_key
          && verifies issuer rest
    in
    if not (verifies c path) then
      Alcotest.failf "handle %d does not verify up to its anchor" i
  done

(* The audit is what the 1-in-64 sample saves, and it is a count: a
   20 000-leaf build (22 000 chains with the expired tenth) makes
   exactly 516 [Chain.verify_cert] lookups — one per signature on its
   344 audited chains — at any [jobs].  Verifying every chain makes
   32 985. *)
let test_audit_lookup_count () =
  let u = Lazy.force BP.default in
  let lookups jobs =
    let h0, m0 = Chain.verify_cache_stats () in
    ignore (Notary.generate ~leaves:20_000 ~jobs ~seed:4 u);
    let h1, m1 = Chain.verify_cache_stats () in
    h1 - h0 + (m1 - m0)
  in
  check Alcotest.int "verify_cert lookups at jobs 1" 516 (lookups 1);
  check Alcotest.int "verify_cert lookups at jobs 2" 516 (lookups 2)

(* Repeated builds in one process must not creep: after build 2 has
   warmed every cache, the major heap stays put through build 12.
   One [Gc.compact] does not free garbage made just before it on
   OCaml 5.1 (a weak pointer needs a second), so each reading
   compacts twice.  Spawning fresh worker domains per batch grew the
   heap by 0.68-1.03 M words over these ten builds; the persistent
   pool reads 0.06-0.07 M, and jobs 1 about 0.13 M (bounded caches
   filling). *)
let test_heap_flat_across_builds () =
  let u = Lazy.force BP.default in
  let heap_words () =
    Gc.compact ();
    Gc.compact ();
    (Gc.quick_stat ()).Gc.heap_words
  in
  let after_build k =
    ignore (Notary.generate ~leaves:2_000 ~jobs:2 ~seed:(1_000 + k) u);
    heap_words ()
  in
  let heap = Array.init 12 after_build in
  let growth = heap.(11) - heap.(1) in
  if growth > 300_000 then
    Alcotest.failf "major heap grew %d words from build 2 to build 12 (bound 300 000): %s"
      growth
      (String.concat " " (Array.to_list (Array.map string_of_int heap)))

let suite =
  [
    ("volumes", `Quick, test_volumes);
    ("every chain verifies", `Quick, test_every_chain_verifies);
    ("per-root counts sum", `Quick, test_per_root_counts_sum);
    ("activity matches counts", `Quick, test_active_roots_validate_something);
    ("store validation shape (Table 3)", `Quick, test_validated_by_store_ordering);
    ("crosscheck vs full validator", `Slow, test_crosscheck_against_full_validator);
    ("has_record", `Quick, test_has_record);
    ("classification (Figure 2 legend)", `Quick, test_classification);
    ("counts_for_certs", `Quick, test_counts_for_certs);
    ("Table 4 zero fractions", `Quick, test_zero_fraction_targets);
    ("expired excluded", `Quick, test_expired_excluded);
    ("every handle re-decodes and verifies", `Slow,
     test_every_handle_redecodes_and_verifies);
    ("audit verifies 1 chain in 64", `Slow, test_audit_lookup_count);
    ("heap flat across repeated builds", `Slow, test_heap_flat_across_builds);
  ]
