(* Tests for the Android root-store model: permissions, journal,
   diff/merge, equivalence-keyed membership. *)

module Rs = Tangled_store.Root_store
module Dn = Tangled_x509.Dn
module C = Tangled_x509.Certificate
module Authority = Tangled_x509.Authority
module Prng = Tangled_util.Prng

let check = Alcotest.check

let rng = Prng.create 500

let mk_ca name =
  (Authority.self_signed ~bits:384 ~digest:Tangled_hash.Digest_kind.SHA1 rng
     (Dn.make name))
    .Authority.certificate

let ca1 = lazy (mk_ca "Store CA One")
let ca2 = lazy (mk_ca "Store CA Two")
let ca3 = lazy (mk_ca "Store CA Three")

let base () =
  Rs.of_certs "base" Rs.Aosp [ Lazy.force ca1; Lazy.force ca2 ]

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Rs.error_to_string e)

let expect_denied = function
  | Error (Rs.Permission_denied _) -> ()
  | Ok _ -> Alcotest.fail "expected permission denial"
  | Error e -> Alcotest.fail ("wrong error: " ^ Rs.error_to_string e)

let test_of_certs () =
  let s = base () in
  check Alcotest.int "cardinal" 2 (Rs.cardinal s);
  check Alcotest.string "name" "base" (Rs.name s);
  Alcotest.(check bool) "mem" true (Rs.mem s (Lazy.force ca1));
  Alcotest.(check bool) "not mem" false (Rs.mem s (Lazy.force ca3));
  (* duplicates collapse *)
  let dup = Rs.of_certs "dup" Rs.Aosp [ Lazy.force ca1; Lazy.force ca1 ] in
  check Alcotest.int "dedup" 1 (Rs.cardinal dup)

let test_permission_matrix () =
  let s = base () in
  let c3 = Lazy.force ca3 in
  (* unprivileged apps: nothing *)
  expect_denied (Rs.add s (Rs.Unprivileged_app "x") Rs.User c3);
  expect_denied (Rs.remove s (Rs.Unprivileged_app "x") (Lazy.force ca1));
  expect_denied (Rs.disable s (Rs.Unprivileged_app "x") (Lazy.force ca1));
  (* settings UI: add and disable but not remove *)
  let s' = ok (Rs.add s Rs.Settings_ui Rs.User c3) in
  check Alcotest.int "added" 3 (Rs.cardinal s');
  expect_denied (Rs.remove s' Rs.Settings_ui c3);
  let s'' = ok (Rs.disable s' Rs.Settings_ui c3) in
  check Alcotest.int "disabled" 2 (Rs.cardinal s'');
  let s3 = ok (Rs.enable s'' Rs.Settings_ui c3) in
  check Alcotest.int "re-enabled" 3 (Rs.cardinal s3);
  (* privileged app: everything, including removing AOSP roots *)
  let s4 = ok (Rs.remove s3 (Rs.Privileged_app "root") (Lazy.force ca1)) in
  check Alcotest.int "root removed" 2 (Rs.cardinal s4)

let test_settings_ui_forces_user_provenance () =
  let s = ok (Rs.add (base ()) Rs.Settings_ui (Rs.Operator "EVIL") (Lazy.force ca3)) in
  let counts = Rs.provenance_counts s in
  Alcotest.(check bool) "user provenance" true (List.mem_assoc Rs.User counts);
  Alcotest.(check bool) "no operator entry" false
    (List.mem_assoc (Rs.Operator "EVIL") counts)

let test_duplicate_add () =
  match Rs.add (base ()) (Rs.Privileged_app "p") Rs.User (Lazy.force ca1) with
  | Error (Rs.Duplicate _) -> ()
  | _ -> Alcotest.fail "expected Duplicate"

let test_missing_target () =
  match Rs.remove (base ()) (Rs.Privileged_app "p") (Lazy.force ca3) with
  | Error (Rs.Not_found_in_store _) -> ()
  | _ -> Alcotest.fail "expected Not_found_in_store"

let test_journal () =
  let s = base () in
  check Alcotest.int "empty journal" 0 (List.length (Rs.journal s));
  let s = ok (Rs.add s (Rs.Privileged_app "freedom") (Rs.App "freedom") (Lazy.force ca3)) in
  let s = ok (Rs.disable s Rs.Settings_ui (Lazy.force ca1)) in
  let events = Rs.journal s in
  check Alcotest.int "two events" 2 (List.length events);
  (match events with
  | [ e1; e2 ] ->
      Alcotest.(check bool) "order: add first" true (e1.Rs.action = `Add);
      Alcotest.(check bool) "then disable" true (e2.Rs.action = `Disable)
  | _ -> Alcotest.fail "journal shape");
  (* system-image loads are not journalled *)
  check Alcotest.int "of_certs silent" 0 (List.length (Rs.journal (base ())))

let test_diff () =
  let baseline = base () in
  let device = ok (Rs.add baseline (Rs.Privileged_app "p") Rs.User (Lazy.force ca3)) in
  let device = ok (Rs.remove device (Rs.Privileged_app "p") (Lazy.force ca2)) in
  let additions, missing = Rs.diff device baseline in
  check Alcotest.int "one addition" 1 (List.length additions);
  check Alcotest.int "one missing" 1 (List.length missing);
  (match additions with
  | [ c ] -> Alcotest.(check bool) "right addition" true (Dn.equal c.C.subject (Lazy.force ca3).C.subject)
  | _ -> Alcotest.fail "additions");
  (* disabled baseline entries count as missing from the device *)
  let device2 = ok (Rs.disable baseline Rs.Settings_ui (Lazy.force ca1)) in
  let _, missing2 = Rs.diff device2 baseline in
  check Alcotest.int "disabled is missing" 1 (List.length missing2)

let test_merge () =
  let a = Rs.of_certs "a" Rs.Aosp [ Lazy.force ca1 ] in
  let b = Rs.of_certs "b" (Rs.Manufacturer "HTC") [ Lazy.force ca1; Lazy.force ca3 ] in
  let m = Rs.merge a b in
  check Alcotest.int "merged size" 2 (Rs.cardinal m);
  (* a wins on conflicts: ca1 keeps Aosp provenance *)
  let counts = Rs.provenance_counts m in
  check (Alcotest.option Alcotest.int) "aosp kept" (Some 1) (List.assoc_opt Rs.Aosp counts);
  check (Alcotest.option Alcotest.int) "htc overlay" (Some 1)
    (List.assoc_opt (Rs.Manufacturer "HTC") counts)

let test_find_by_subject () =
  let s = base () in
  check Alcotest.int "found" 1
    (List.length (Rs.find_by_subject s (Lazy.force ca1).C.subject));
  check Alcotest.int "not found" 0
    (List.length (Rs.find_by_subject s (Dn.make "nope")));
  (* disabled entries are not returned *)
  let s' = ok (Rs.disable s Rs.Settings_ui (Lazy.force ca1)) in
  check Alcotest.int "disabled hidden" 0
    (List.length (Rs.find_by_subject s' (Lazy.force ca1).C.subject))

let test_insertion_order () =
  let s = base () in
  match Rs.certs s with
  | [ first; second ] ->
      Alcotest.(check bool) "order kept" true
        (Dn.equal first.C.subject (Lazy.force ca1).C.subject
        && Dn.equal second.C.subject (Lazy.force ca2).C.subject)
  | _ -> Alcotest.fail "expected two certs"

let count_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let count = ref 0 in
  for i = 0 to h - n do
    if String.sub hay i n = needle then incr count
  done;
  !count

let test_to_pem () =
  let pem = Rs.to_pem (base ()) in
  check Alcotest.int "two pem blocks" 2
    (count_substring pem "-----BEGIN CERTIFICATE-----");
  (* the dump parses back to the same certificates *)
  match Tangled_x509.Pem.decode_all pem with
  | Ok blocks -> check Alcotest.int "parseable" 2 (List.length blocks)
  | Error m -> Alcotest.fail m

(* A dump with a damaged certificate fails to load, naming the block,
   rather than loading one certificate short. *)
let test_of_pem_damaged_block () =
  let pem = Tangled_x509.Pem.encode_certificate in
  let a = Lazy.force ca1 and b = Lazy.force ca2 and c = Lazy.force ca3 in
  (match Rs.of_pem "dump" Rs.User (pem a ^ pem b ^ pem c) with
  | Ok s -> check Alcotest.int "intact dump loads whole" 3 (Rs.cardinal s)
  | Error e -> Alcotest.fail e);
  (* block 2's base64 cut short: at a multiple of 4 characters it still
     decodes, to truncated DER; elsewhere the base64 itself is bad *)
  let truncated keep =
    let b64 = Tangled_x509.Pem.base64_encode (C.encode b) in
    "-----BEGIN CERTIFICATE-----\n" ^ String.sub b64 0 keep
    ^ "\n-----END CERTIFICATE-----\n"
  in
  List.iter
    (fun keep ->
      match Rs.of_pem "dump" Rs.User (pem a ^ truncated keep ^ pem c) with
      | Ok s ->
          Alcotest.failf "base64 cut to %d characters: loaded %d certificates" keep
            (Rs.cardinal s)
      | Error e ->
          if not (String.starts_with ~prefix:"block 2: " e) then
            Alcotest.failf "base64 cut to %d characters: error %S names no block 2" keep e)
    [ 200; 201 ]

(* Decoding a store dump allocates what it returns — the DER, the
   block bodies, the list — and nothing per input byte it scans:
   0.33 minor words per byte on the 150-certificate AOSP 4.4 dump.  A
   decoder that copied a substring at every position it tried, or
   boxed every base64 character, read 6.73. *)
let test_pem_decode_allocation () =
  let u = Lazy.force Tangled_pki.Blueprint.default in
  let pem = Rs.to_pem (u.Tangled_pki.Blueprint.aosp Tangled_pki.Paper_data.V4_4) in
  let before = Gc.minor_words () in
  let blocks = Tangled_x509.Pem.decode_all pem in
  let words = Gc.minor_words () -. before in
  (match blocks with
  | Ok blocks -> check Alcotest.int "every root decoded" 150 (List.length blocks)
  | Error e -> Alcotest.fail e);
  let per_byte = words /. float_of_int (String.length pem) in
  if per_byte > 0.5 then
    Alcotest.failf "Pem.decode_all: %.0f minor words for %d input bytes (%.2f per byte, bound 0.5)"
      words (String.length pem) per_byte

let suite =
  [
    ("bulk load", `Quick, test_of_certs);
    ("permission matrix", `Quick, test_permission_matrix);
    ("settings UI provenance", `Quick, test_settings_ui_forces_user_provenance);
    ("duplicate add", `Quick, test_duplicate_add);
    ("missing target", `Quick, test_missing_target);
    ("journal", `Quick, test_journal);
    ("diff", `Quick, test_diff);
    ("merge", `Quick, test_merge);
    ("find by subject", `Quick, test_find_by_subject);
    ("insertion order", `Quick, test_insertion_order);
    ("pem dump", `Quick, test_to_pem);
    ("pem load rejects a damaged block", `Quick, test_of_pem_damaged_block);
    ("pem decode allocates per block, not per byte", `Quick, test_pem_decode_allocation);
  ]
