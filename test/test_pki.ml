(* Tests for the paper-data tables and the universe blueprint.  These
   use the process-shared default universe (built once, ~10s). *)

module PD = Tangled_pki.Paper_data
module BP = Tangled_pki.Blueprint
module Rs = Tangled_store.Root_store
module C = Tangled_x509.Certificate
module Authority = Tangled_x509.Authority
module Ts = Tangled_util.Timestamp

let check = Alcotest.check

let universe = lazy (Lazy.force BP.default)

(* --- paper data consistency ------------------------------------------ *)

let test_store_size_constants () =
  check Alcotest.int "4.1" 139 (PD.aosp_store_size PD.V4_1);
  check Alcotest.int "4.4" 150 (PD.aosp_store_size PD.V4_4);
  check Alcotest.int "ios" 227 PD.ios7_store_size;
  check Alcotest.int "mozilla" 153 PD.mozilla_store_size

let test_version_deltas_sum () =
  (* the per-version deltas must reproduce Table 1's sizes *)
  let sizes = ref [] in
  let shared = ref 0 and only = ref 0 in
  List.iter
    (fun v ->
      let s, o = PD.aosp_version_delta v in
      shared := !shared + s;
      only := !only + o;
      sizes := (v, !shared + !only) :: !sizes)
    PD.android_versions;
  List.iter
    (fun (v, size) -> check Alcotest.int (PD.version_to_string v) (PD.aosp_store_size v) size)
    (List.rev !sizes);
  check Alcotest.int "shared total" PD.aosp44_mozilla_shared !shared;
  check Alcotest.int "only total" PD.aosp44_only !only

let test_mozilla_composition () =
  check Alcotest.int "mozilla composition" PD.mozilla_store_size
    (PD.aosp44_mozilla_shared + PD.extras_on_mozilla + PD.mozilla_exclusive)

let test_extras_class_quota () =
  let count cls =
    Array.to_list PD.extras
    |> List.filter (fun (x : PD.extra_cert) -> x.PD.xc_class = cls)
    |> List.length
  in
  check Alcotest.int "mozilla+ios extras" PD.extras_on_mozilla (count PD.Mozilla_and_ios);
  check Alcotest.int "ios-only extras" 17 (count PD.Ios_only);
  Alcotest.(check bool) "over a hundred named" true (Array.length PD.extras >= 100);
  (* unrecorded extras never validate traffic *)
  Array.iter
    (fun (x : PD.extra_cert) ->
      if x.PD.xc_class = PD.Unrecorded then
        Alcotest.(check bool) ("unrecorded inactive: " ^ x.PD.xc_name) false x.PD.xc_active)
    PD.extras

let test_extras_unique_ids () =
  let ids = Array.to_list PD.extras |> List.map (fun x -> x.PD.xc_id) in
  check Alcotest.int "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      check Alcotest.int ("id width: " ^ id) 8 (String.length id);
      Alcotest.(check bool) ("id hex: " ^ id) true
        (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) id))
    ids

let test_table6_domains () =
  check Alcotest.int "intercepted count" 12 (List.length PD.intercepted_domains);
  check Alcotest.int "whitelisted count" 9 (List.length PD.whitelisted_domains);
  Alcotest.(check bool) "supl whitelisted" true
    (List.mem ("supl.google.com", 7275) PD.whitelisted_domains);
  Alcotest.(check bool) "facebook chat whitelisted" true
    (List.mem ("orcart.facebook.com", 8883) PD.whitelisted_domains);
  Alcotest.(check bool) "gmail intercepted" true
    (List.mem ("gmail.com", 443) PD.intercepted_domains)

let test_rooted_cas_table () =
  check Alcotest.int "five CAs" 5 (List.length PD.rooted_cas);
  check (Alcotest.option Alcotest.int) "crazy house devices" (Some 70)
    (List.assoc_opt PD.freedom_app_ca PD.rooted_cas)

(* --- blueprint --------------------------------------------------------- *)

let test_store_sizes () =
  let u = Lazy.force universe in
  List.iter
    (fun v ->
      check Alcotest.int
        ("AOSP " ^ PD.version_to_string v)
        (PD.aosp_store_size v)
        (Rs.cardinal (u.BP.aosp v)))
    PD.android_versions;
  check Alcotest.int "Mozilla" PD.mozilla_store_size (Rs.cardinal u.BP.mozilla);
  check Alcotest.int "iOS7" PD.ios7_store_size (Rs.cardinal u.BP.ios7)

let test_version_monotonicity () =
  let u = Lazy.force universe in
  (* each release only adds certificates (§2) *)
  let pairs = [ (PD.V4_1, PD.V4_2); (PD.V4_2, PD.V4_3); (PD.V4_3, PD.V4_4) ] in
  List.iter
    (fun (older, newer) ->
      let additions, missing = Rs.diff (u.BP.aosp older) (u.BP.aosp newer) in
      check Alcotest.int
        (PD.version_to_string older ^ " subset of " ^ PD.version_to_string newer)
        0 (List.length additions);
      Alcotest.(check bool) "newer adds" true (List.length missing > 0))
    pairs

let test_shared_and_byte_identical () =
  let u = Lazy.force universe in
  let aosp44 = Rs.certs (u.BP.aosp PD.V4_4) in
  let equivalent = List.filter (Rs.mem u.BP.mozilla) aosp44 in
  check Alcotest.int "equivalence overlap" PD.aosp44_mozilla_shared
    (List.length equivalent);
  let moz_bytes =
    Rs.certs u.BP.mozilla |> List.map C.byte_identity |> List.sort_uniq compare
  in
  let byte_identical =
    aosp44 |> List.filter (fun c -> List.mem (C.byte_identity c) moz_bytes)
  in
  (* §2: 117 of AOSP 4.4's 150 are byte-identical in Mozilla's store *)
  check Alcotest.int "byte-identical overlap" 117 (List.length byte_identical)

let test_expired_aosp_root () =
  let u = Lazy.force universe in
  let expired =
    Rs.certs (u.BP.aosp PD.V4_4)
    |> List.filter (fun c -> not (C.valid_at c Ts.paper_epoch))
  in
  (* §2: exactly one AOSP root (Firmaprofesional) expired in Oct 2013 *)
  check Alcotest.int "one expired root" 1 (List.length expired);
  match expired with
  | [ c ] ->
      let y, m, _, _, _, _ = Ts.to_civil c.C.not_after in
      check Alcotest.int "expired year" 2013 y;
      check Alcotest.int "expired month" 10 m
  | _ -> ()

let test_roots_all_self_signed () =
  let u = Lazy.force universe in
  Array.iter
    (fun (r : BP.root) ->
      Alcotest.(check bool)
        ("self-signed: " ^ r.BP.display_name)
        true
        (C.is_self_signed r.BP.authority.Authority.certificate))
    u.BP.roots

let test_traffic_weights () =
  let u = Lazy.force universe in
  let root_mass =
    Array.fold_left (fun acc (r : BP.root) -> acc +. r.BP.traffic_weight) 0.0 u.BP.roots
  in
  let private_mass =
    Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 u.BP.private_cas
  in
  check (Alcotest.float 1e-9) "mass sums to 1" 1.0 (root_mass +. private_mass);
  Array.iter
    (fun (r : BP.root) ->
      Alcotest.(check bool) "non-negative" true (r.BP.traffic_weight >= 0.0))
    u.BP.roots;
  (* extras marked active carry weight; inactive carry none *)
  Array.iter
    (fun (r : BP.root) ->
      match r.BP.extra with
      | Some x ->
          Alcotest.(check bool)
            ("weight matches activity: " ^ x.PD.xc_name)
            x.PD.xc_active (r.BP.traffic_weight > 0.0)
      | None -> ())
    u.BP.roots

let test_category_populations () =
  let u = Lazy.force universe in
  let size label = List.length (BP.store_of_category u label) in
  check Alcotest.int "shared" 130 (size "AOSP 4.4 and Mozilla root certs");
  check Alcotest.int "aosp41" 139 (size "AOSP 4.1 certs");
  check Alcotest.int "aosp44" 150 (size "AOSP 4.4 certs");
  check Alcotest.int "mozilla" 153 (size "Mozilla root store certs");
  check Alcotest.int "ios" 227 (size "iOS 7 root store certs");
  check Alcotest.int "extras on mozilla" 16 (size "Non AOSP root certs found on Mozilla's");
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Blueprint.store_of_category: unknown label nope") (fun () ->
      ignore (BP.store_of_category u "nope"))

let test_store_of_name () =
  let u = Lazy.force universe in
  let official =
    [
      ("aosp41", u.BP.aosp PD.V4_1);
      ("aosp42", u.BP.aosp PD.V4_2);
      ("aosp43", u.BP.aosp PD.V4_3);
      ("aosp44", u.BP.aosp PD.V4_4);
      ("mozilla", u.BP.mozilla);
      ("ios7", u.BP.ios7);
    ]
  in
  check Alcotest.(list string) "official names" (List.map fst official)
    BP.official_store_names;
  List.iter
    (fun (name, store) ->
      match BP.store_of_name u name with
      | Some s -> check Alcotest.bool name true (s == store)
      | None -> Alcotest.failf "%s not resolved" name)
    official;
  List.iter
    (fun name ->
      check Alcotest.bool ("unknown " ^ name) true (BP.store_of_name u name = None))
    [ "aosp45"; "AOSP 4.4"; "handset:1"; "" ]

let test_extra_index () =
  let u = Lazy.force universe in
  check Alcotest.int "index covers extras" (Array.length PD.extras)
    (Hashtbl.length u.BP.extra_by_id);
  let dod = Hashtbl.find u.BP.extra_by_id "b530fe64" in
  check (Alcotest.option Alcotest.string) "dod dn"
    (Some "CN=DoD CLASS 3 Root CA,OU=PKI,OU=DoD,O=U.S. Government,C=US")
    (Some (Tangled_x509.Dn.to_string dod.BP.authority.Authority.certificate.C.subject))

let test_interceptor_untrusted () =
  let u = Lazy.force universe in
  let cert = u.BP.interceptor.Authority.certificate in
  Alcotest.(check bool) "not in AOSP" false (Rs.mem (u.BP.aosp PD.V4_4) cert);
  Alcotest.(check bool) "not in Mozilla" false (Rs.mem u.BP.mozilla cert);
  Alcotest.(check bool) "not in iOS" false (Rs.mem u.BP.ios7 cert)

let test_determinism () =
  (* two builds from the same seed give byte-identical stores; different
     seeds differ.  384 bits is the smallest size whose signatures can
     hold the SHA-1 PKCS#1 padding. *)
  let a = BP.build ~key_bits:384 ~seed:9 () in
  let b = BP.build ~key_bits:384 ~seed:9 () in
  let c = BP.build ~key_bits:384 ~seed:10 () in
  let fingerprint (u : BP.t) =
    Rs.certs (u.BP.aosp PD.V4_4) |> List.map C.byte_identity |> String.concat ""
  in
  check Alcotest.string "same seed identical" (fingerprint a) (fingerprint b);
  Alcotest.(check bool) "different seed differs" true (fingerprint a <> fingerprint c)

let test_find_root_by_name () =
  let u = Lazy.force universe in
  (match BP.find_root_by_name u "Motorola FOTA Root CA" with
  | Some r -> Alcotest.(check bool) "found" true (r.BP.extra <> None)
  | None -> Alcotest.fail "FOTA root missing");
  check Alcotest.bool "missing name" true (BP.find_root_by_name u "Nonexistent CA" = None)

(* Every key draws from its own stream, so the worker count cannot
   move a byte of any authority. *)
let test_same_at_any_jobs () =
  let ders (u : BP.t) =
    let der (a : Authority.t) = a.Authority.certificate.C.raw in
    let roots = Array.to_list u.BP.roots in
    List.map (fun r -> der r.BP.authority) roots
    @ List.filter_map (fun r -> Option.map (fun c -> c.C.raw) r.BP.mozilla_variant) roots
    @ List.map (fun (a, _) -> der a) (Array.to_list u.BP.private_cas)
    @ List.map (fun (_, a) -> der a) (Array.to_list u.BP.rooted_authorities)
    @ [ der u.BP.interceptor ]
  in
  let one = ders (BP.build ~jobs:1 ~seed:1 ()) in
  let four = ders (BP.build ~jobs:4 ~seed:1 ()) in
  check Alcotest.int "same number of certificates" (List.length one) (List.length four);
  List.iteri
    (fun i (a, b) -> if a <> b then Alcotest.failf "certificate %d differs at jobs 4" i)
    (List.combine one four)

let suite =
  [
    ("store size constants", `Quick, test_store_size_constants);
    ("version deltas sum to Table 1", `Quick, test_version_deltas_sum);
    ("Mozilla composition identity", `Quick, test_mozilla_composition);
    ("extras class quotas", `Quick, test_extras_class_quota);
    ("extras ids unique", `Quick, test_extras_unique_ids);
    ("Table 6 domain lists", `Quick, test_table6_domains);
    ("Table 5 rooted CAs", `Quick, test_rooted_cas_table);
    ("store sizes (Table 1)", `Quick, test_store_sizes);
    ("version monotonicity", `Quick, test_version_monotonicity);
    ("130 shared / 117 byte-identical", `Quick, test_shared_and_byte_identical);
    ("expired Firmaprofesional root", `Quick, test_expired_aosp_root);
    ("roots self-signed", `Quick, test_roots_all_self_signed);
    ("traffic weights", `Quick, test_traffic_weights);
    ("Table 4 category populations", `Quick, test_category_populations);
    ("extras index", `Quick, test_extra_index);
    ("interceptor untrusted", `Quick, test_interceptor_untrusted);
    ("determinism", `Slow, test_determinism);
    ("find root by name", `Quick, test_find_root_by_name);
    ("official stores by short name", `Quick, test_store_of_name);
    ("same universe at jobs 1 and 4", `Slow, test_same_at_any_jobs);
  ]
