(* Tests for the RSA substrate. *)

module B = Tangled_numeric.Bigint
module Rsa = Tangled_crypto.Rsa
module Dk = Tangled_hash.Digest_kind
module Prng = Tangled_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* A shared keypair keeps the suite fast; individual tests that need a
   fresh key make their own. *)
let key512 = lazy (Rsa.generate ~mr_rounds:8 (Prng.create 1001) ~bits:512)
let key384 = lazy (Rsa.generate ~mr_rounds:8 (Prng.create 1002) ~bits:384)

let test_keygen_structure () =
  let key = Lazy.force key512 in
  check Alcotest.int "modulus bits" 512 (B.bit_length key.Rsa.pub.Rsa.n);
  check Alcotest.int "key size bytes" 64 (Rsa.key_size_bytes key.Rsa.pub);
  (* n = p * q *)
  Alcotest.(check bool) "n = p*q" true
    (B.equal key.Rsa.pub.Rsa.n (B.mul key.Rsa.p key.Rsa.q));
  (* e*d = 1 mod phi *)
  let phi = B.mul (B.sub key.Rsa.p B.one) (B.sub key.Rsa.q B.one) in
  Alcotest.(check bool) "ed = 1 mod phi" true
    (B.equal B.one (B.erem (B.mul key.Rsa.pub.Rsa.e key.Rsa.d) phi));
  (* CRT components consistent *)
  Alcotest.(check bool) "dp" true
    (B.equal key.Rsa.dp (B.erem key.Rsa.d (B.sub key.Rsa.p B.one)));
  Alcotest.(check bool) "qinv" true
    (B.equal B.one (B.erem (B.mul key.Rsa.qinv key.Rsa.q) key.Rsa.p))

let test_keygen_too_small () =
  Alcotest.check_raises "below 64" (Invalid_argument "Rsa.generate: modulus below 64 bits")
    (fun () -> ignore (Rsa.generate (Prng.create 1) ~bits:32))

let test_keygen_too_large () =
  Alcotest.check_raises "above 3528"
    (Invalid_argument "Rsa.generate: modulus above 3528 bits")
    (fun () -> ignore (Rsa.generate (Prng.create 1) ~bits:3529))

let test_sign_verify () =
  let key = Lazy.force key512 in
  let msg = "the tangled mass of android root stores" in
  List.iter
    (fun digest ->
      let signature = Rsa.sign key ~digest msg in
      check Alcotest.int "signature length" 64 (String.length signature);
      Alcotest.(check bool) "verifies" true
        (Rsa.verify key.Rsa.pub ~digest ~msg ~signature);
      Alcotest.(check bool) "rejects other message" false
        (Rsa.verify key.Rsa.pub ~digest ~msg:(msg ^ "!") ~signature);
      Alcotest.(check bool) "rejects other digest" false
        (Rsa.verify key.Rsa.pub
           ~digest:(if digest = Dk.SHA256 then Dk.SHA1 else Dk.SHA256)
           ~msg ~signature))
    [ Dk.MD5; Dk.SHA1; Dk.SHA256 ]

let test_verify_malformed () =
  let key = Lazy.force key512 in
  let msg = "m" in
  let signature = Rsa.sign key ~digest:Dk.SHA256 msg in
  (* wrong length *)
  Alcotest.(check bool) "short sig" false
    (Rsa.verify key.Rsa.pub ~digest:Dk.SHA256 ~msg ~signature:(String.sub signature 0 10));
  (* bit-flipped signature *)
  let tampered = Bytes.of_string signature in
  Bytes.set tampered 10 (Char.chr (Char.code (Bytes.get tampered 10) lxor 0x40));
  Alcotest.(check bool) "tampered sig" false
    (Rsa.verify key.Rsa.pub ~digest:Dk.SHA256 ~msg ~signature:(Bytes.to_string tampered));
  (* signature value >= n *)
  let huge = String.make 64 '\xff' in
  Alcotest.(check bool) "oversized value" false
    (Rsa.verify key.Rsa.pub ~digest:Dk.SHA256 ~msg ~signature:huge)

let test_cross_key_rejection () =
  let k1 = Lazy.force key512 in
  let k2 = Rsa.generate ~mr_rounds:8 (Prng.create 1003) ~bits:512 in
  let msg = "cross" in
  let signature = Rsa.sign k1 ~digest:Dk.SHA256 msg in
  Alcotest.(check bool) "other key rejects" false
    (Rsa.verify k2.Rsa.pub ~digest:Dk.SHA256 ~msg ~signature)

let test_384_sha1 () =
  (* the simulation's default configuration *)
  let key = Lazy.force key384 in
  let msg = "small key, era digest" in
  let signature = Rsa.sign key ~digest:Dk.SHA1 msg in
  Alcotest.(check bool) "verifies" true (Rsa.verify key.Rsa.pub ~digest:Dk.SHA1 ~msg ~signature)

let test_384_sha256_too_small () =
  let key = Lazy.force key384 in
  try
    ignore (Rsa.sign key ~digest:Dk.SHA256 "x");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* textbook RSA on the division-based oracle: d inverts e *)
let test_raw_roundtrip () =
  let key = Lazy.force key512 in
  let n = key.Rsa.pub.Rsa.n in
  let m = B.of_bytes_be "\x01secret payload" in
  let c = B.modpow m key.Rsa.pub.Rsa.e n in
  Alcotest.(check bool) "ciphertext differs" false (B.equal c m);
  Alcotest.(check bool) "roundtrip" true (B.equal m (B.modpow c key.Rsa.d n))

(* EMSA-PKCS1-v1_5 written out from RFC 8017 §9.2, independently of
   Rsa: 0x00 0x01, 0xff padding, 0x00, DigestInfo *)
let emsa ~digest msg k =
  let prefix =
    match digest with
    | Dk.MD5 -> "3020300c06082a864886f70d020505000410"
    | Dk.SHA1 -> "3021300906052b0e03021a05000414"
    | Dk.SHA256 -> "3031300d060960864801650304020105000420"
  in
  let t = Tangled_util.Hex.decode prefix ^ Dk.digest digest msg in
  "\x00\x01" ^ String.make (k - 3 - String.length t) '\xff' ^ "\x00" ^ t

(* Rsa.sign against EM^d mod n on the division-based oracle.  The
   widths cover the Notary default (384), odd widths whose CRT primes
   differ by a bit (385) or by a limb (393), and widths whose primes
   (1036, 1792, 2072) or modulus (1036) fill their top 28-bit limb *)
let test_sign_matches_oracle () =
  let rng = Prng.create 2072 in
  List.iter
    (fun bits ->
      let key = Rsa.generate ~mr_rounds:6 rng ~bits in
      let pub = key.Rsa.pub in
      let k = Rsa.key_size_bytes pub in
      let digest = if bits < 512 then Dk.SHA1 else Dk.SHA256 in
      for i = 1 to 3 do
        let msg = Printf.sprintf "oracle %d at %d bits" i bits in
        let want = B.modpow (B.of_bytes_be (emsa ~digest msg k)) key.Rsa.d pub.Rsa.n in
        let signature = Rsa.sign key ~digest msg in
        check Alcotest.int "signature length" k (String.length signature);
        Alcotest.(check bool)
          (Printf.sprintf "sign = EM^d mod n at %d bits" bits)
          true
          (B.equal want (B.of_bytes_be signature));
        Alcotest.(check bool)
          (Printf.sprintf "verify accepts at %d bits" bits)
          true
          (Rsa.verify pub ~digest ~msg ~signature);
        let flipped = Bytes.of_string signature in
        Bytes.set flipped (k - 1) (Char.chr (Char.code (Bytes.get flipped (k - 1)) lxor 1));
        Alcotest.(check bool)
          (Printf.sprintf "verify rejects a flipped bit at %d bits" bits)
          false
          (Rsa.verify pub ~digest ~msg ~signature:(Bytes.to_string flipped))
      done)
    [ 384; 385; 393; 512; 1024; 1036; 1792; 2048; 2072 ]

(* the verify contexts are cached by modulus: a key that pairs a
   cached modulus with another exponent must not borrow its context *)
let test_verify_follows_exponent () =
  let key = Lazy.force key512 in
  let pub = key.Rsa.pub in
  let msg = "exponent" in
  let em = emsa ~digest:Dk.SHA256 msg (Rsa.key_size_bytes pub) in
  let e1 = Rsa.make_public ~n:pub.Rsa.n ~e:B.one in
  Alcotest.(check bool) "e = 1 accepts EM itself" true
    (Rsa.verify e1 ~digest:Dk.SHA256 ~msg ~signature:em);
  Alcotest.(check bool) "the real key does not" false
    (Rsa.verify pub ~digest:Dk.SHA256 ~msg ~signature:em);
  Alcotest.(check bool) "and still accepts its own signature" true
    (Rsa.verify pub ~digest:Dk.SHA256 ~msg ~signature:(Rsa.sign key ~digest:Dk.SHA256 msg))

let test_modulus_bytes () =
  let key = Lazy.force key512 in
  let m = Rsa.modulus_bytes key.Rsa.pub in
  check Alcotest.int "length" 64 (String.length m);
  Alcotest.(check bool) "matches n" true (B.equal key.Rsa.pub.Rsa.n (B.of_bytes_be m))

let test_deterministic_keygen () =
  let k1 = Rsa.generate ~mr_rounds:8 (Prng.create 555) ~bits:384 in
  let k2 = Rsa.generate ~mr_rounds:8 (Prng.create 555) ~bits:384 in
  Alcotest.(check bool) "same seed, same key" true (B.equal k1.Rsa.pub.Rsa.n k2.Rsa.pub.Rsa.n)

(* Minor-heap words per call once the key's contexts are warm,
   averaged over a run of calls so the probe's own boxed floats
   vanish below one word. *)
let words_per_call f =
  f ();
  let calls = 64 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* rsa.ml keeps sign and verify close to their output: the digest,
   the EMSA block, the signature, one exponent-width observation per
   walk and, for verify, the context-cache key — 155 words per 384-bit
   sign and 165 per verify when measured.  The bound leaves slack;
   rebuilding the key's signer on every call costs 1 294 and fails
   it. *)
let test_steady_state_allocation () =
  let key = Lazy.force key384 in
  let msg = "steady state" in
  let signature = Rsa.sign key ~digest:Dk.SHA1 msg in
  let bound = 176.0 in
  List.iter
    (fun (name, f) ->
      let w = words_per_call f in
      if w > bound then
        Alcotest.failf "384-bit %s allocates %.1f minor words per call (bound %.0f)"
          name w bound)
    [
      ("sign", fun () -> ignore (Rsa.sign key ~digest:Dk.SHA1 msg));
      ( "verify",
        fun () -> ignore (Rsa.verify key.Rsa.pub ~digest:Dk.SHA1 ~msg ~signature) );
    ]

let prop_sign_verify =
  QCheck.Test.make ~name:"sign/verify roundtrip" ~count:30 QCheck.string (fun msg ->
      let key = Lazy.force key512 in
      let signature = Rsa.sign key ~digest:Dk.SHA256 msg in
      Rsa.verify key.Rsa.pub ~digest:Dk.SHA256 ~msg ~signature)

let prop_signature_unique_per_message =
  QCheck.Test.make ~name:"distinct messages, distinct signatures" ~count:30
    (QCheck.pair QCheck.string QCheck.string)
    (fun (m1, m2) ->
      QCheck.assume (m1 <> m2);
      let key = Lazy.force key512 in
      Rsa.sign key ~digest:Dk.SHA256 m1 <> Rsa.sign key ~digest:Dk.SHA256 m2)

(* Both primes carry their top two bits, which is what makes the
   modulus exactly [bits] wide with no pair drawn again: each prime of
   b bits is at least 1.5 * 2^(b-1), and p, q have ceil(bits/2) and
   floor(bits/2) bits. *)
let test_keygen_exact_width () =
  List.iter
    (fun bits ->
      let pbits = (bits + 1) / 2 in
      let qbits = bits - pbits in
      let floor b = B.shift_left (B.of_int 3) (b - 2) in
      for seed = 1 to 8 do
        let key = Rsa.generate ~mr_rounds:6 (Prng.create (7000 + seed)) ~bits in
        let name what = Printf.sprintf "%d-bit key, seed %d: %s" bits seed what in
        check Alcotest.int (name "modulus bits") bits (B.bit_length key.Rsa.pub.Rsa.n);
        check Alcotest.int (name "p bits") pbits (B.bit_length key.Rsa.p);
        check Alcotest.int (name "q bits") qbits (B.bit_length key.Rsa.q);
        Alcotest.(check bool) (name "p >= 1.5 * 2^(pbits-1)") true
          (B.compare key.Rsa.p (floor pbits) >= 0);
        Alcotest.(check bool) (name "q >= 1.5 * 2^(qbits-1)") true
          (B.compare key.Rsa.q (floor qbits) >= 0)
      done)
    [ 64; 65; 384; 385; 512 ]

let suite =
  [
    ("keygen structure", `Quick, test_keygen_structure);
    ("keygen minimum size", `Quick, test_keygen_too_small);
    ("keygen maximum size", `Quick, test_keygen_too_large);
    ("sign and verify (all digests)", `Quick, test_sign_verify);
    ("verify rejects malformed input", `Quick, test_verify_malformed);
    ("cross-key rejection", `Quick, test_cross_key_rejection);
    ("384-bit with SHA-1", `Quick, test_384_sha1);
    ("384-bit refuses SHA-256", `Quick, test_384_sha256_too_small);
    ("raw encrypt/decrypt", `Quick, test_raw_roundtrip);
    ("sign = EM^d mod n (384-2072 bits)", `Slow, test_sign_matches_oracle);
    ("verify context follows the exponent", `Quick, test_verify_follows_exponent);
    ("modulus bytes", `Quick, test_modulus_bytes);
    ("deterministic keygen", `Quick, test_deterministic_keygen);
    ("steady-state allocation (384-bit)", `Quick, test_steady_state_allocation);
    qtest prop_sign_verify;
    qtest prop_signature_unique_per_message;
    ("keygen exact width, top two prime bits", `Quick, test_keygen_exact_width);
  ]
