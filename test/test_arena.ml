(* Tests for the columnar off-heap certificate arena: append/read
   round-trips (bytes and decoded views), column integrity under
   growth, memory accounting, and the determinism digest. *)

module Arena = Tangled_x509.Arena
module C = Tangled_x509.Certificate
module Dn = Tangled_x509.Dn
module Authority = Tangled_x509.Authority
module Prng = Tangled_util.Prng
module Ts = Tangled_util.Timestamp

let qtest = QCheck_alcotest.to_alcotest

(* a small pool of real self-signed certificates to append (512-bit
   keys: the smallest modulus with PKCS#1 v1.5 SHA-256 headroom) *)
let certs =
  lazy
    (let rng = Prng.create 4242 in
     Array.init 6 (fun i ->
         (Authority.self_signed ~bits:512
            ~serial:(Tangled_numeric.Bigint.of_int (100 + i))
            rng
            (Dn.make (Printf.sprintf "Arena Test CA %d" i)))
           .Authority.certificate))

let append_cert a ?(anchor_id = -1) ?(flags = 0) (c : C.t) =
  Arena.append a ~der:c.C.raw ~subject_id:(-1) ~issuer_id:(-1) ~anchor_id
    ~not_before:c.C.not_before ~not_after:c.C.not_after ~flags
    ~key_fp:(String.get_int64_be (C.fingerprint c) 0)

let test_round_trip () =
  let pool = Lazy.force certs in
  let a = Arena.create () in
  Array.iteri
    (fun i c ->
      Alcotest.(check int) "dense handles" i (append_cert a c))
    pool;
  Alcotest.(check int) "length" (Array.length pool) (Arena.length a);
  Array.iteri
    (fun i (c : C.t) ->
      Alcotest.(check string) "der bytes identical" c.C.raw (Arena.der a i);
      (match Arena.decode a i with
      | Ok view ->
          Alcotest.(check string) "decoded view re-encodes to the same DER"
            c.C.raw view.C.raw;
          Alcotest.(check bool) "identity preserved" true
            (C.equivalence_key view = C.equivalence_key c)
      | Error e -> Alcotest.failf "decode %d failed: %s" i e);
      Alcotest.(check int) "not_before column" c.C.not_before
        (Arena.not_before a i);
      Alcotest.(check int) "not_after column" c.C.not_after (Arena.not_after a i);
      Alcotest.(check bool) "key_fp column" true
        (Arena.key_fp a i = String.get_int64_be (C.fingerprint c) 0))
    pool

let test_columns_and_flags () =
  let pool = Lazy.force certs in
  let a = Arena.create () in
  let h0 = append_cert a ~anchor_id:7 ~flags:Arena.flag_expired pool.(0) in
  let h1 =
    append_cert a ~anchor_id:(-1) ~flags:Arena.flag_via_intermediate pool.(1)
  in
  Alcotest.(check int) "anchor id stored" 7 (Arena.anchor_id a h0);
  Alcotest.(check int) "absent anchor is -1" (-1) (Arena.anchor_id a h1);
  Alcotest.(check bool) "expired flag" true (Arena.expired a h0);
  Alcotest.(check bool) "not via intermediate" false (Arena.via_intermediate a h0);
  Alcotest.(check bool) "via intermediate" true (Arena.via_intermediate a h1);
  Alcotest.(check bool) "not expired" false (Arena.expired a h1);
  let c = pool.(0) in
  Alcotest.(check bool) "valid inside window" true
    (Arena.valid_at a h0 (c.C.not_before + 1));
  Alcotest.(check bool) "invalid after window" false
    (Arena.valid_at a h0 (c.C.not_after + 1));
  Alcotest.check_raises "handle out of range"
    (Invalid_argument "Arena: handle 2 out of range (have 2)") (fun () ->
      ignore (Arena.anchor_id a 2))

let test_growth_from_minimal_capacity () =
  let pool = Lazy.force certs in
  (* tiny initial capacities force repeated doubling of both stores *)
  let a = Arena.create ~blob_capacity:1 ~capacity:1 () in
  let n = 200 in
  for i = 0 to n - 1 do
    ignore (append_cert a ~anchor_id:i pool.(i mod Array.length pool))
  done;
  Alcotest.(check int) "all appended" n (Arena.length a);
  let ok = ref true in
  for i = 0 to n - 1 do
    if Arena.der a i <> pool.(i mod Array.length pool).C.raw then ok := false;
    if Arena.anchor_id a i <> i then ok := false
  done;
  Alcotest.(check bool) "bytes and columns survive growth" true !ok

let test_memory_accounting () =
  let pool = Lazy.force certs in
  let a = Arena.create () in
  let der_total = ref 0 in
  for i = 0 to 49 do
    let c = pool.(i mod Array.length pool) in
    der_total := !der_total + String.length c.C.raw;
    ignore (append_cert a c)
  done;
  let m = Arena.memory a in
  Alcotest.(check int) "blob accounts every DER byte" !der_total m.Arena.blob_bytes;
  Alcotest.(check int) "columns are 72 bytes per cert" (50 * 9 * 8)
    m.Arena.column_bytes;
  Alcotest.(check bool) "capacity covers use" true
    (m.Arena.blob_capacity >= m.Arena.blob_bytes
    && m.Arena.column_capacity >= m.Arena.column_bytes);
  (* the acceptance bound: committed bytes/cert stay under 2× raw DER *)
  let avg_der = float_of_int !der_total /. 50.0 in
  Alcotest.(check bool) "bytes/cert <= 2x raw DER" true
    (Arena.bytes_per_cert a <= 2.0 *. avg_der);
  Alcotest.(check (float 1e-9)) "empty arena" 0.0
    (Arena.bytes_per_cert (Arena.create ()))

(* Append/read as a pure store: arbitrary byte strings round-trip
   through the blob regardless of append order, sizes, or growth. *)
let prop_blob_round_trip =
  QCheck.Test.make ~name:"arena blob round-trips arbitrary byte strings"
    ~count:100
    QCheck.(small_list (string_of_size QCheck.Gen.(0 -- 64)))
    (fun payloads ->
      let a = Arena.create ~blob_capacity:8 ~capacity:1 () in
      List.iteri
        (fun i der ->
          ignore
            (Arena.append a ~der ~subject_id:i ~issuer_id:(2 * i) ~anchor_id:(-1)
               ~not_before:0 ~not_after:1 ~flags:0 ~key_fp:(Int64.of_int i)))
        payloads;
      List.for_all
        (fun (i, der) ->
          Arena.der a i = der
          && Arena.der_length a i = String.length der
          && Arena.subject_id a i = i
          && Arena.issuer_id a i = 2 * i)
        (List.mapi (fun i d -> (i, d)) payloads))

let test_digest_covers_columns () =
  let pool = Lazy.force certs in
  let mk flags =
    let a = Arena.create () in
    ignore (append_cert a ~flags pool.(0));
    Arena.digest a
  in
  Alcotest.(check bool) "flag difference changes the digest" true
    (mk 0 <> mk Arena.flag_expired);
  Alcotest.(check string) "same content, same digest" (mk 0) (mk 0)

let suite =
  [
    Alcotest.test_case "append/decode round-trip" `Quick test_round_trip;
    Alcotest.test_case "columns and flags" `Quick test_columns_and_flags;
    Alcotest.test_case "growth from minimal capacity" `Quick
      test_growth_from_minimal_capacity;
    Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
    qtest prop_blob_round_trip;
    Alcotest.test_case "digest covers columns" `Quick test_digest_covers_columns;
  ]
