(* The Montgomery layer's contract: bit-exact agreement with the
   division-based Bigint.modpow (the reference oracle) at every width
   the plane carries, context precondition enforcement, and end-to-end
   CRT sign/verify at every key size the simulation uses.  Also covers
   Bigint's direct limb-packing byte conversions. *)

module B = Tangled_numeric.Bigint
module Mont = Tangled_numeric.Montgomery
module Rsa = Tangled_crypto.Rsa
module Chain = Tangled_validation.Chain
module Dk = Tangled_hash.Digest_kind
module Prng = Tangled_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let big = Alcotest.testable B.pp B.equal

(* arbitrary non-negative bigint from raw bytes *)
let gen_big =
  QCheck.Gen.(map B.of_bytes_be (string_size ~gen:char (int_range 0 96)))

(* odd modulus > 1: 2v + 3 *)
let gen_odd_modulus =
  QCheck.Gen.map (fun v -> B.add (B.shift_left v 1) (B.of_int 3)) gen_big

let arb_triple =
  QCheck.make
    ~print:(fun (b, e, m) ->
      Printf.sprintf "base=%s exp=%s m=%s" (B.to_string b) (B.to_string e)
        (B.to_string m))
    QCheck.Gen.(triple gen_big gen_big gen_odd_modulus)

let prop_mont_matches_oracle =
  QCheck.Test.make ~name:"modpow_mont equals legacy modpow" ~count:300 arb_triple
    (fun (b, e, m) ->
      let ctx = Mont.create m in
      B.equal (B.modpow b e m) (Mont.modpow ctx b e))

(* the generator rarely makes base < m, so force the b >= m corner
   explicitly as well as via random draws *)
let test_base_exceeds_modulus () =
  let m = B.of_int 1_000_003 in
  let ctx = Mont.create m in
  let b = B.mul m (B.of_int 12345) |> B.add (B.of_int 678) in
  check big "b >= m reduced first" (B.modpow b (B.of_int 65537) m)
    (Mont.modpow ctx b (B.of_int 65537));
  check big "negative base" (B.modpow (B.neg b) (B.of_int 3) m)
    (Mont.modpow ctx (B.neg b) (B.of_int 3))

let test_exponent_zero () =
  let m = B.of_int 97 in
  let ctx = Mont.create m in
  check big "e = 0 is 1" B.one (Mont.modpow ctx (B.of_int 42) B.zero);
  check big "0^0 contract matches oracle" (B.modpow B.zero B.zero m)
    (Mont.modpow ctx B.zero B.zero);
  check big "base 0" B.zero (Mont.modpow ctx B.zero (B.of_int 5))

let test_rejections () =
  Alcotest.check_raises "m = 1 rejected"
    (Invalid_argument "Montgomery.create: modulus must exceed 1") (fun () ->
      ignore (Mont.create B.one));
  Alcotest.check_raises "even modulus rejected"
    (Invalid_argument "Montgomery.create: modulus must be odd") (fun () ->
      ignore (Mont.create (B.of_int 100)));
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Montgomery.create: modulus must be positive") (fun () ->
      ignore (Mont.create B.zero));
  Alcotest.check_raises "wider than the plane rejected"
    (Invalid_argument "Montgomery.create: modulus wider than 3528 bits") (fun () ->
      ignore (Mont.create (B.add (B.shift_left B.one Mont.max_bits) B.one)));
  let ctx = Mont.create (B.of_int 15) in
  Alcotest.check_raises "negative exponent rejected"
    (Invalid_argument "Montgomery.modpow: negative exponent") (fun () ->
      ignore (Mont.modpow ctx B.two (B.of_int (-1))))

(* dense deterministic sweep: every (base, exp) in a small window over
   several odd moduli, including Carmichael and prime-power cases *)
let test_small_exhaustive () =
  List.iter
    (fun mv ->
      let m = B.of_int mv in
      let ctx = Mont.create m in
      for b = 0 to 20 do
        for e = 0 to 20 do
          let want = B.modpow (B.of_int b) (B.of_int e) m in
          let got = Mont.modpow ctx (B.of_int b) (B.of_int e) in
          if not (B.equal want got) then
            Alcotest.failf "mismatch: %d^%d mod %d — want %s got %s" b e mv
              (B.to_string want) (B.to_string got)
        done
      done)
    [ 3; 9; 15; 35; 121; 561; 32761; 1073741827 ]

(* CRT-signed / Montgomery-verified round trips at the simulation's
   key sizes *)
let test_sign_verify_roundtrip () =
  let rng = Prng.create 424242 in
  List.iter
    (fun bits ->
      let key = Rsa.generate ~mr_rounds:6 rng ~bits in
      (* SHA-256 DigestInfo needs a >= 62-byte modulus; 384-bit keys
         sign with SHA-1, exactly as the simulation's CAs do *)
      let digest = if bits < 512 then Dk.SHA1 else Dk.SHA256 in
      let msg = Printf.sprintf "montgomery roundtrip at %d bits" bits in
      let signature = Rsa.sign key ~digest msg in
      Alcotest.(check bool)
        (Printf.sprintf "verify ok at %d bits" bits)
        true
        (Rsa.verify key.Rsa.pub ~digest ~msg ~signature);
      Alcotest.(check bool)
        (Printf.sprintf "tampered msg rejected at %d bits" bits)
        false
        (Rsa.verify key.Rsa.pub ~digest ~msg:(msg ^ "!") ~signature);
      let tampered =
        let b = Bytes.of_string signature in
        Bytes.set b (Bytes.length b - 1)
          (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
        Bytes.to_string b
      in
      Alcotest.(check bool)
        (Printf.sprintf "tampered signature rejected at %d bits" bits)
        false
        (Rsa.verify key.Rsa.pub ~digest ~msg ~signature:tampered))
    [ 384; 512; 768; 1024 ]

(* the CRT halves on their Montgomery contexts, recombined, must agree
   with the plain d-exponent, and invert the public exponent *)
let test_crt_agrees_with_plain () =
  let rng = Prng.create 99 in
  let key = Rsa.generate ~mr_rounds:6 rng ~bits:384 in
  let n = key.Rsa.pub.Rsa.n in
  let m = B.random_below rng n in
  let m1 = Mont.modpow (Mont.create key.Rsa.p) m key.Rsa.dp in
  let m2 = Mont.modpow (Mont.create key.Rsa.q) m key.Rsa.dq in
  let h = B.erem (B.mul key.Rsa.qinv (B.sub m1 m2)) key.Rsa.p in
  let s = B.add m2 (B.mul h key.Rsa.q) in
  check big "CRT = m^d mod n" (B.modpow m key.Rsa.d n) s;
  check big "s^e mod n = m" m (Mont.modpow (Mont.create n) s key.Rsa.pub.Rsa.e)

(* even modulus publics (hostile DER) must fall back to the oracle
   path rather than raise *)
let test_even_modulus_verify_fallback () =
  let pub = Rsa.make_public ~n:(B.of_int 3233 |> B.mul B.two) ~e:(B.of_int 17) in
  Alcotest.(check bool) "even-n verify is total" false
    (Rsa.verify pub ~digest:Dk.SHA256 ~msg:"x" ~signature:(String.make 2 '\x01'))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"of_bytes_be/to_bytes_be round-trip" ~count:300
    QCheck.(make Gen.(string_size ~gen:char (int_range 0 80)))
    (fun s ->
      let v = B.of_bytes_be s in
      (* to_bytes_be is minimal: strip s's leading zeros to compare *)
      let stripped =
        let i = ref 0 in
        while !i < String.length s && s.[!i] = '\x00' do
          incr i
        done;
        String.sub s !i (String.length s - !i)
      in
      String.equal stripped (B.to_bytes_be v))

let prop_bytes_matches_hex =
  QCheck.Test.make ~name:"of_bytes_be agrees with of_hex" ~count:200
    QCheck.(make Gen.(string_size ~gen:char (int_range 1 64)))
    (fun s ->
      match B.of_hex (Tangled_util.Hex.encode s) with
      | Ok v -> B.equal v (B.of_bytes_be s)
      | Error _ -> false)

(* verification memo: verdicts are stable across repeats and hits
   accumulate *)
let test_verify_cache_stable () =
  let rng = Prng.create 7 in
  let module Authority = Tangled_x509.Authority in
  let module C = Tangled_x509.Certificate in
  let root =
    Authority.self_signed ~bits:384 ~digest:Dk.SHA1 rng (Tangled_x509.Dn.make "Memo Root")
  in
  let inter =
    Authority.issue_intermediate ~bits:384 ~digest:Dk.SHA1 rng ~parent:root
      (Tangled_x509.Dn.make "Memo Inter")
  in
  let cert = inter.Authority.certificate in
  let issuer = root.Authority.certificate in
  Chain.clear_verify_cache ();
  let first = Chain.verify_cert ~issuer cert in
  let h0, m0 = Chain.verify_cache_stats () in
  let second = Chain.verify_cert ~issuer cert in
  let h1, m1 = Chain.verify_cache_stats () in
  Alcotest.(check bool) "verdict ok" true first;
  Alcotest.(check bool) "verdict stable" first second;
  Alcotest.(check bool) "repeat was a hit" true (h1 = h0 + 1 && m1 = m0);
  Alcotest.(check bool) "memo agrees with direct verification" second
    (C.verify_signature cert ~issuer_key:issuer.C.public_key)

(* --- the walk against the oracle across widths ---------------------------- *)

(* exponents of every density: arbitrary bytes mostly take the
   windowed walk, a handful of set bits the sparse one *)
let gen_exponent =
  QCheck.Gen.(
    oneof
      [
        gen_big;
        map
          (List.fold_left (fun acc i -> B.add acc (B.shift_left B.one i)) B.zero)
          (list_size (int_range 0 4) (int_range 0 700));
      ])

let prop_powm_matches_oracle =
  QCheck.Test.make ~name:"powm (sparse and windowed walks) equals legacy modpow" ~count:200
    (QCheck.make
       ~print:(fun (b, e, m) ->
         Printf.sprintf "base=%s exp=%s m=%s" (B.to_string b) (B.to_string e)
           (B.to_string m))
       QCheck.Gen.(triple gen_big gen_exponent gen_odd_modulus))
    (fun (b, e, m) ->
      let ctx = Mont.create m in
      let sc = Mont.scratch ctx in
      let sched = Mont.schedule e in
      List.for_all
        (fun b -> B.equal (B.modpow b e m) (Mont.powm ctx sc sched b))
        [ b; B.neg b ])

let rand_big rng bits =
  B.of_bytes_be (String.init ((bits + 7) / 8) (fun _ -> Char.chr (Random.State.int rng 256)))

(* a random odd modulus of exactly [bits] bits *)
let rand_odd rng bits =
  let top = B.shift_left B.one (bits - 1) in
  let v = B.add top (B.erem (rand_big rng bits) top) in
  if B.is_odd v then v else B.add v B.one

let sweep_check ~what m b e =
  let want = B.modpow b e m in
  let ctx = Mont.create m in
  let got = Mont.powm ctx (Mont.scratch ctx) (Mont.schedule e) b in
  if not (B.equal want got) then
    Alcotest.failf "%s: mismatch at %d bits (%d limbs)" what (B.bit_length m) (Mont.limbs ctx)

(* deterministic width sweep: 868/869 straddle the old 31-limb fused
   bound, and widths that are multiples of 28 (896, 1036, 1764, 1792)
   make m > R/2, where a REDC result in [R, 2m) carries into limb 2k.
   Odd trials load a base of twice the modulus width through REDC,
   even ones a reduced base.  The last trial takes a full-width
   exponent, the others at most 80 bits. *)
let test_width_sweep () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  List.iter
    (fun bits ->
      for trial = 1 to 6 do
        let m = rand_odd rng bits in
        let b = rand_big rng (2 * bits) in
        sweep_check ~what:"width sweep" m
          (if trial land 1 = 1 then b else B.erem b m)
          (rand_big rng (if trial = 6 then bits else min bits 80))
      done)
    [ 64; 192; 384; 512; 868; 869; 896; 1024; 1036; 1764; 1765; 1792; 2048 ]

(* every limb count the plane carries, k = 1 .. 126: a dropped REDC
   carry once lived at widths no test used, so the column bound is
   enumerated rather than argued.  All-ones moduli 2^(28k) - 1
   take all-ones operands; a base of 2k all-ones limbs exceeds R·m and
   still loads through REDC.  All-ones operands leave the quotient
   digits small, though, so m = R - 3 also takes the base whose
   Montgomery form is m - 1: squaring that gives quotient digits near
   2/3 of a limb, and both halves of every column run near the bound. *)
let test_wide_sweep () =
  let rng = Random.State.make [| 0xFEED |] in
  List.iter
    (fun bits ->
      for _ = 1 to 3 do
        let m = rand_odd rng bits in
        sweep_check ~what:"wide sweep" m (rand_big rng (bits + 40)) (rand_big rng 80)
      done)
    [ 2072; 3528 ];
  List.iter
    (fun k ->
      let ones limbs = B.sub (B.shift_left B.one (28 * limbs)) B.one in
      let m = ones k in
      List.iter
        (fun (b, e) -> sweep_check ~what:(Printf.sprintf "all-ones k = %d" k) m b e)
        [
          (B.sub m B.one, ones 3);
          (B.sub m B.two, B.of_int 65537);
          (ones (2 * k), ones 3);
          (rand_big rng (28 * k), rand_big rng 80);
        ];
      let r = B.shift_left B.one (28 * k) in
      let m3 = B.sub r (B.of_int 3) in
      let top = B.erem (B.neg (Option.get (B.mod_inverse r m3))) m3 in
      List.iter
        (fun e -> sweep_check ~what:(Printf.sprintf "R - 3, k = %d" k) m3 top e)
        [ ones 3; B.of_int 65537 ])
    (List.init 126 (fun i -> i + 1))

(* The unrolled k = 7 kernels, which every 384-bit CRT half runs,
   against the oracle and against the loop kernels: moduli of every
   width from 169 to 196 bits (all seven limbs), so the 196-bit ones
   fill the top limb (m > R/2) and a kernel result can carry into its
   high unit; bases below m or up to 2k limbs wide, which load through
   REDC; full-width exponents.  The same powm on a context widened to
   eight limbs runs the loop kernels. *)
let gen_k7_case =
  QCheck.Gen.(
    let bytes n = string_size ~gen:char (return n) in
    int_range 169 196 >>= fun bits ->
    map4
      (fun m_raw b e_raw reduce ->
        let top = B.shift_left B.one (bits - 1) in
        let m = B.add top (B.erem (B.of_bytes_be m_raw) top) in
        let m = if B.is_odd m then m else B.add m B.one in
        let e = B.add top (B.erem (B.of_bytes_be e_raw) top) in
        let b = B.of_bytes_be b in
        (m, (if reduce then B.erem b m else b), e))
      (bytes 25) (int_range 0 49 >>= bytes) (bytes 25) bool)

let prop_k7_kernels =
  QCheck.Test.make ~name:"k = 7 kernels equal legacy modpow and the 8-limb loops"
    ~count:300
    (QCheck.make
       ~print:(fun (m, b, e) ->
         Printf.sprintf "m=%s (%d bits) base=%s exp=%s" (B.to_string m) (B.bit_length m)
           (B.to_string b) (B.to_string e))
       gen_k7_case)
    (fun (m, b, e) ->
      let want = B.modpow b e m and sched = Mont.schedule e in
      let powm ctx = Mont.powm ctx (Mont.scratch ctx) sched b in
      let k7 = Mont.create m and k8 = Mont.create ~limbs:8 m in
      Mont.limbs k7 = 7 && B.equal want (powm k7) && B.equal want (powm k8))

let suite =
  [
    qtest prop_mont_matches_oracle;
    Alcotest.test_case "base >= modulus" `Quick test_base_exceeds_modulus;
    Alcotest.test_case "exponent zero" `Quick test_exponent_zero;
    Alcotest.test_case "bad moduli rejected" `Quick test_rejections;
    Alcotest.test_case "small exhaustive sweep" `Quick test_small_exhaustive;
    Alcotest.test_case "CRT sign/verify 384-1024 bits" `Slow test_sign_verify_roundtrip;
    Alcotest.test_case "CRT agrees with raw ops" `Quick test_crt_agrees_with_plain;
    Alcotest.test_case "even-modulus fallback" `Quick test_even_modulus_verify_fallback;
    qtest prop_bytes_roundtrip;
    qtest prop_bytes_matches_hex;
    Alcotest.test_case "verify cache stable" `Quick test_verify_cache_stable;
    qtest prop_powm_matches_oracle;
    Alcotest.test_case "wide width sweep (64-2048 bits)" `Quick test_width_sweep;
    Alcotest.test_case "width sweep 2072-3528 bits, all-ones moduli" `Quick
      test_wide_sweep;
    qtest prop_k7_kernels;
  ]
