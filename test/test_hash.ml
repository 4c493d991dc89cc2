(* Tests for the digest substrate: published test vectors plus
   structural properties. *)

open Tangled_hash

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* FIPS 180-4 / RFC 1321 reference vectors. *)

let test_sha256_vectors () =
  check Alcotest.string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  check Alcotest.string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  check Alcotest.string "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check Alcotest.string "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha1_vectors () =
  check Alcotest.string "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.hex "");
  check Alcotest.string "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.hex "abc");
  check Alcotest.string "two blocks" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check Alcotest.string "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (String.make 1_000_000 'a'))

let test_md5_vectors () =
  check Alcotest.string "empty" "d41d8cd98f00b204e9800998ecf8427e" (Md5.hex "");
  check Alcotest.string "a" "0cc175b9c0f1b6a831c399e269772661" (Md5.hex "a");
  check Alcotest.string "abc" "900150983cd24fb0d6963f7d28e17f72" (Md5.hex "abc");
  check Alcotest.string "message digest" "f96b697d7cb7938d525a2f31aaf161d0"
    (Md5.hex "message digest");
  check Alcotest.string "alphabet" "c3fcd3d76192e4007dfb496cca67e13b"
    (Md5.hex "abcdefghijklmnopqrstuvwxyz");
  check Alcotest.string "digits"
    "57edf4a22be3c955ac49da2e2107b67a"
    (Md5.hex "12345678901234567890123456789012345678901234567890123456789012345678901234567890")

(* boundary lengths around the padding break at 55/56/64 bytes *)
let test_padding_boundaries () =
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      check Alcotest.int "sha256 size" 32 (String.length (Sha256.digest s));
      check Alcotest.int "sha1 size" 20 (String.length (Sha1.digest s));
      check Alcotest.int "md5 size" 16 (String.length (Md5.digest s)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

(* exact digests at the padding-boundary lengths (a^n, coreutils-derived) *)
let test_boundary_vectors () =
  List.iter
    (fun (n, md5, sha1, sha256) ->
      let s = String.make n 'a' in
      check Alcotest.string (Printf.sprintf "md5 a*%d" n) md5 (Md5.hex s);
      check Alcotest.string (Printf.sprintf "sha1 a*%d" n) sha1 (Sha1.hex s);
      check Alcotest.string (Printf.sprintf "sha256 a*%d" n) sha256 (Sha256.hex s))
    [
      ( 55,
        "ef1772b6dff9a122358552954ad0df65",
        "c1c8bbdc22796e28c0e15163d20899b65621d65a",
        "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318" );
      ( 56,
        "3b0c8ac703f828b04c6c197006d17218",
        "c2db330f6083854c99d4b5bfb6e8f29f201be699",
        "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a" );
      ( 64,
        "014842d480b571495a4a0363793f7367",
        "0098ba824b5c16427bd7a1122a5a442a25ec644d",
        "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb" );
      ( 119,
        "8a7bd0732ed6a28ce75f6dabc90e1613",
        "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56",
        "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb" );
    ]

(* streaming context API: feed/feed_sub/finalize *)
let test_streaming_ctx () =
  let msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq" in
  let ctx = Sha256.init () in
  Sha256.feed ctx (String.sub msg 0 10);
  Sha256.feed ctx (String.sub msg 10 (String.length msg - 10));
  check Alcotest.string "sha256 split feed" (Sha256.digest msg) (Sha256.finalize ctx);
  let ctx = Sha1.init () in
  Sha1.feed_sub ctx msg ~off:0 ~len:33;
  Sha1.feed_sub ctx msg ~off:33 ~len:(String.length msg - 33);
  check Alcotest.string "sha1 feed_sub" (Sha1.digest msg) (Sha1.finalize ctx);
  let ctx = Md5.init () in
  Md5.feed ctx "";
  Md5.feed ctx msg;
  Md5.feed ctx "";
  check Alcotest.string "md5 empty feeds" (Md5.digest msg) (Md5.finalize ctx);
  (* feed_sub rejects out-of-range views *)
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "bad range off=%d len=%d" off len)
        (Invalid_argument "Sha256.feed_sub: range out of bounds")
        (fun () -> Sha256.feed_sub (Sha256.init ()) "abc" ~off ~len))
    [ (-1, 1); (0, 4); (2, 2); (0, -1) ];
  (* Digest_kind ctx dispatch agrees with the one-shots *)
  List.iter
    (fun dk ->
      let ctx = Digest_kind.init dk in
      Digest_kind.feed ctx "abc";
      Digest_kind.feed_sub ctx "xdefx" ~off:1 ~len:3;
      check Alcotest.string
        ("digest_kind ctx " ^ Digest_kind.name dk)
        (Digest_kind.digest dk "abcdef")
        (Digest_kind.finalize ctx))
    Digest_kind.all

(* the boxed pre-optimisation cores are the oracle for the unboxed ones *)
let prop_matches_reference =
  QCheck.Test.make ~name:"unboxed cores match boxed reference" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 300))
    (fun s ->
      Sha256.digest s = Hash_oracle.Sha256.digest s
      && Sha1.digest s = Hash_oracle.Sha1.digest s
      && Md5.digest s = Hash_oracle.Md5.digest s)

(* Minor-heap words one digest call allocates per extra 64-byte block:
   the difference between a 65-block and a 1-block message, so the
   fixed per-call cost (context, output string, the probe's own boxed
   floats) cancels exactly. *)
let words_per_block digest =
  let short = String.make 64 'm' and long = String.make (65 * 64) 'm' in
  let words msg =
    ignore (digest msg);
    let before = Gc.minor_words () in
    ignore (digest msg);
    Gc.minor_words () -. before
  in
  (words long -. words short) /. 64.0

(* The unboxed cores exist to keep the round loop off the heap.  A
   timed ratio against the boxed oracle could not hold that on a shared
   host; the word count is exact, so it gates: zero words per block for
   all three cores, and the boxed oracle must register as allocating,
   proving the probe sees boxing. *)
let test_cores_allocate_nothing_per_block () =
  List.iter
    (fun (name, digest) ->
      check (Alcotest.float 0.0) (name ^ " words per block") 0.0
        (words_per_block digest))
    [ ("md5", Md5.digest); ("sha1", Sha1.digest); ("sha256", Sha256.digest) ];
  List.iter
    (fun (name, digest) ->
      let w = words_per_block digest in
      if w < 50.0 then
        Alcotest.failf "boxed %s oracle reads %.1f words per block: the probe \
                        cannot see boxing" name w)
    [ ("md5", Hash_oracle.Md5.digest); ("sha256", Hash_oracle.Sha256.digest) ]

(* feeding at arbitrary split points must equal the one-shot digest *)
let prop_split_feed_equivalent =
  let gen =
    QCheck.make
      ~print:(fun (s, cuts) ->
        Printf.sprintf "len=%d cuts=[%s]" (String.length s)
          (String.concat ";" (List.map string_of_int cuts)))
      QCheck.Gen.(
        string_size (int_range 0 400) >>= fun s ->
        list_size (int_range 0 8) (int_range 0 (max 1 (String.length s))) >>= fun cuts ->
        return (s, cuts))
  in
  QCheck.Test.make ~name:"random-split feeding equals one-shot" ~count:200 gen
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq Stdlib.compare (List.filter (fun c -> c <= n) (0 :: cuts @ [ n ])) in
      let feed_pieces init feed_sub finalize =
        let ctx = init () in
        let rec go = function
          | a :: (b :: _ as rest) ->
              feed_sub ctx s ~off:a ~len:(b - a);
              go rest
          | _ -> ()
        in
        go cuts;
        finalize ctx
      in
      feed_pieces Sha256.init Sha256.feed_sub Sha256.finalize = Sha256.digest s
      && feed_pieces Sha1.init Sha1.feed_sub Sha1.finalize = Sha1.digest s
      && feed_pieces Md5.init Md5.feed_sub Md5.finalize = Md5.digest s)

let test_digest_kind () =
  check Alcotest.int "md5 size" 16 (Digest_kind.size Digest_kind.MD5);
  check Alcotest.int "sha1 size" 20 (Digest_kind.size Digest_kind.SHA1);
  check Alcotest.int "sha256 size" 32 (Digest_kind.size Digest_kind.SHA256);
  List.iter
    (fun dk ->
      check (Alcotest.option (Alcotest.testable Digest_kind.pp ( = )))
        "name roundtrip" (Some dk)
        (Digest_kind.of_name (Digest_kind.name dk)))
    Digest_kind.all;
  check (Alcotest.option (Alcotest.testable Digest_kind.pp ( = ))) "unknown" None
    (Digest_kind.of_name "sha512")

let prop_deterministic =
  QCheck.Test.make ~name:"digests deterministic" ~count:100 QCheck.string (fun s ->
      Sha256.digest s = Sha256.digest s
      && Sha1.digest s = Sha1.digest s
      && Md5.digest s = Md5.digest s)

let prop_sizes =
  QCheck.Test.make ~name:"digest sizes fixed" ~count:100 QCheck.string (fun s ->
      String.length (Sha256.digest s) = 32
      && String.length (Sha1.digest s) = 20
      && String.length (Md5.digest s) = 16)

let prop_sensitivity =
  QCheck.Test.make ~name:"one byte flips the digest" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_range 1 100))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      let s' = Bytes.to_string b in
      Sha256.digest s <> Sha256.digest s')

let suite =
  [
    ("sha256 vectors", `Quick, test_sha256_vectors);
    ("sha1 vectors", `Quick, test_sha1_vectors);
    ("md5 vectors", `Quick, test_md5_vectors);
    ("padding boundaries", `Quick, test_padding_boundaries);
    ("boundary vectors", `Quick, test_boundary_vectors);
    ("streaming contexts", `Quick, test_streaming_ctx);
    ("digest kind dispatch", `Quick, test_digest_kind);
    qtest prop_deterministic;
    qtest prop_sizes;
    qtest prop_sensitivity;
    qtest prop_matches_reference;
    ("zero allocation per block", `Quick, test_cores_allocate_nothing_per_block);
    qtest prop_split_feed_equivalent;
  ]
