(* The CT subsystem (lib/ct): the frontier-incremental Merkle log must
   agree with a naive from-scratch RFC 6962 MTH oracle at every size,
   every generated proof must verify through the independent pure
   verifier, and any mutation of a proof, leaf, or index must be
   rejected.  Two cases pin the log's cost in minor words: per append,
   and per inclusion verify. *)

module Log = Tangled_ct.Log
module Proof = Tangled_ct.Proof
module Fleet = Tangled_ct.Fleet
module Sha256 = Tangled_hash.Sha256

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let leaf i = Printf.sprintf "leaf-%06d-%s" i (String.make (i mod 17) 'x')

let log_of_size n =
  let t = Log.create () in
  for i = 0 to n - 1 do
    ignore (Log.append t (leaf i))
  done;
  t

(* Naive from-scratch MTH(D[0:n]) — the RFC 6962 recurrence, written
   directly over the leaf list with no sharing with lib/ct internals. *)
let oracle_head n =
  let leaf_hash s = Sha256.digest ("\x00" ^ s) in
  let node l r = Sha256.digest ("\x01" ^ l ^ r) in
  let rec mth lo n =
    if n = 0 then Sha256.digest ""
    else if n = 1 then leaf_hash (leaf lo)
    else begin
      let k = ref 1 in
      while !k * 2 < n do
        k := !k * 2
      done;
      node (mth lo !k) (mth (lo + !k) (n - !k))
    end
  in
  mth 0 n

(* --- head agreement ---------------------------------------------------- *)

let test_empty_head () =
  let t = Log.create () in
  check Alcotest.string "empty = SHA-256(\"\")" (Sha256.hex "") (Log.head_hex t)

let test_heads_vs_oracle () =
  for n = 0 to 64 do
    let t = log_of_size n in
    check Alcotest.string
      (Printf.sprintf "head at size %d" n)
      (Tangled_util.Hex.encode (oracle_head n))
      (Log.head_hex t)
  done

let test_head_at_prefixes () =
  (* One incremental log must reproduce every historical head. *)
  let t = log_of_size 64 in
  for n = 0 to 64 do
    match Log.head_at t n with
    | Error e -> Alcotest.failf "head_at %d: %s" n e
    | Ok h ->
      check Alcotest.string
        (Printf.sprintf "head_at %d" n)
        (Tangled_util.Hex.encode (oracle_head n))
        (Tangled_util.Hex.encode h)
  done

let prop_incremental_matches_oracle =
  QCheck.Test.make ~name:"incremental head = from-scratch oracle" ~count:40
    QCheck.(int_range 0 300)
    (fun n -> String.equal (Log.head (log_of_size n)) (oracle_head n))

(* --- inclusion proofs -------------------------------------------------- *)

let test_inclusion_all_small () =
  for n = 1 to 64 do
    let t = log_of_size n in
    let root = Log.head t in
    for i = 0 to n - 1 do
      match Log.inclusion_proof t ~index:i ~tree_size:n with
      | Error e -> Alcotest.failf "proof %d/%d: %s" i n e
      | Ok proof ->
        if
          not
            (Proof.verify_inclusion ~leaf:(leaf i) ~index:i ~tree_size:n
               ~proof ~root)
        then Alcotest.failf "inclusion %d/%d did not verify" i n
    done
  done

let test_inclusion_historical () =
  (* Proofs against an earlier tree size from a log that kept growing. *)
  let t = log_of_size 64 in
  for n = 1 to 64 do
    let root =
      match Log.head_at t n with Ok h -> h | Error e -> Alcotest.fail e
    in
    let i = n / 2 in
    match Log.inclusion_proof t ~index:i ~tree_size:n with
    | Error e -> Alcotest.failf "historical proof %d/%d: %s" i n e
    | Ok proof ->
      if
        not
          (Proof.verify_inclusion ~leaf:(leaf i) ~index:i ~tree_size:n ~proof
             ~root)
      then Alcotest.failf "historical inclusion %d/%d did not verify" i n
  done

let prop_inclusion_random =
  QCheck.Test.make ~name:"random inclusion proof verifies" ~count:100
    QCheck.(pair (int_range 1 200) (int_range 0 10_000))
    (fun (n, seed) ->
      let i = seed mod n in
      let t = log_of_size n in
      match Log.inclusion_proof t ~index:i ~tree_size:n with
      | Error _ -> false
      | Ok proof ->
        Proof.verify_inclusion ~leaf:(leaf i) ~index:i ~tree_size:n ~proof
          ~root:(Log.head t))

(* --- consistency proofs ------------------------------------------------ *)

let test_consistency_all_pairs () =
  let t = log_of_size 64 in
  for m = 1 to 64 do
    for n = m to 64 do
      let root_at k =
        match Log.head_at t k with Ok h -> h | Error e -> Alcotest.fail e
      in
      match Log.consistency_proof t ~first:m ~second:n with
      | Error e -> Alcotest.failf "consistency %d..%d: %s" m n e
      | Ok proof ->
        if
          not
            (Proof.verify_consistency ~first:m ~second:n
               ~first_root:(root_at m) ~second_root:(root_at n) ~proof)
        then Alcotest.failf "consistency %d..%d did not verify" m n
    done
  done

let prop_consistency_random =
  QCheck.Test.make ~name:"random consistency proof verifies" ~count:80
    QCheck.(pair (int_range 1 250) (int_range 1 250))
    (fun (a, b) ->
      let m = min a b and n = max a b in
      let t = log_of_size n in
      let root_at k =
        match Log.head_at t k with Ok h -> h | Error _ -> assert false
      in
      match Log.consistency_proof t ~first:m ~second:n with
      | Error _ -> false
      | Ok proof ->
        Proof.verify_consistency ~first:m ~second:n ~first_root:(root_at m)
          ~second_root:(root_at n) ~proof)

(* --- rejection --------------------------------------------------------- *)

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let prop_mutated_inclusion_rejected =
  QCheck.Test.make ~name:"mutated inclusion proof/leaf/index rejected"
    ~count:100
    QCheck.(triple (int_range 2 120) (int_range 0 10_000) (int_range 0 3))
    (fun (n, seed, mutation) ->
      let i = seed mod n in
      let t = log_of_size n in
      let root = Log.head t in
      match Log.inclusion_proof t ~index:i ~tree_size:n with
      | Error _ -> false
      | Ok proof -> (
        match mutation with
        | 0 ->
          (* flip a byte in one proof element (proof is non-empty: n >= 2) *)
          let k = seed mod List.length proof in
          let proof =
            List.mapi (fun j p -> if j = k then flip_byte p (seed mod 32) else p) proof
          in
          not
            (Proof.verify_inclusion ~leaf:(leaf i) ~index:i ~tree_size:n
               ~proof ~root)
        | 1 ->
          not
            (Proof.verify_inclusion ~leaf:(leaf i ^ "!") ~index:i ~tree_size:n
               ~proof ~root)
        | 2 ->
          let i' = (i + 1) mod n in
          not
            (Proof.verify_inclusion ~leaf:(leaf i) ~index:i' ~tree_size:n
               ~proof ~root)
        | _ ->
          not
            (Proof.verify_inclusion ~leaf:(leaf i) ~index:i ~tree_size:n
               ~proof ~root:(flip_byte root (seed mod 32)))))

let prop_mutated_consistency_rejected =
  QCheck.Test.make ~name:"mutated consistency proof rejected" ~count:80
    QCheck.(triple (int_range 1 120) (int_range 2 120) (int_range 0 10_000))
    (fun (a, b, seed) ->
      let m = min a b and n = max a b in
      QCheck.assume (m < n);
      let t = log_of_size n in
      let root_at k =
        match Log.head_at t k with Ok h -> h | Error _ -> assert false
      in
      match Log.consistency_proof t ~first:m ~second:n with
      | Error _ -> false
      | Ok proof ->
        let bad =
          if proof = [] then
            (* power-of-two prefixes can have empty proofs; corrupt a root *)
            Proof.verify_consistency ~first:m ~second:n
              ~first_root:(flip_byte (root_at m) (seed mod 32))
              ~second_root:(root_at n) ~proof
          else begin
            let k = seed mod List.length proof in
            let proof =
              List.mapi
                (fun j p -> if j = k then flip_byte p (seed mod 32) else p)
                proof
            in
            Proof.verify_consistency ~first:m ~second:n ~first_root:(root_at m)
              ~second_root:(root_at n) ~proof
          end
        in
        not bad)

let test_error_cases () =
  let t = log_of_size 4 in
  (match Log.inclusion_proof t ~index:4 ~tree_size:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "index out of range accepted");
  (match Log.inclusion_proof t ~index:0 ~tree_size:5 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tree_size beyond log accepted");
  (match Log.consistency_proof t ~first:0 ~second:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "first=0 accepted");
  (match Log.consistency_proof t ~first:3 ~second:5 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "second beyond log accepted");
  check Alcotest.bool "empty proof wrong roots rejected" false
    (Proof.verify_consistency ~first:2 ~second:2 ~first_root:"a"
       ~second_root:"b" ~proof:[])

(* --- fleet over the shared quick world --------------------------------- *)

let quick_fleet =
  lazy
    (let w = Lazy.force Tangled_core.Pipeline.quick in
     Fleet.build ~seed:w.Tangled_core.Pipeline.config.Tangled_core.Pipeline.seed
       w.Tangled_core.Pipeline.universe w.Tangled_core.Pipeline.notary)

let test_fleet_submission () =
  let f = Lazy.force quick_fleet in
  check Alcotest.int "three logs" 3 (Array.length (Fleet.entries f));
  Array.iter
    (fun (e : Fleet.entry) ->
      check Alcotest.int "size = submitted" e.Fleet.submitted
        (Log.size e.Fleet.log);
      if e.Fleet.submitted = 0 then
        Alcotest.failf "log %s received no submissions" (Log.name e.Fleet.log))
    (Fleet.entries f)

let test_fleet_proof_roundtrip () =
  (* Notary-scale logs: a middle-leaf inclusion proof and a half-to-full
     consistency proof must verify via the pure API, with the leaf bytes
     re-read through Fleet.leaf_der. *)
  let f = Lazy.force quick_fleet in
  Array.iter
    (fun (e : Fleet.entry) ->
      let n = Log.size e.Fleet.log in
      let i = n / 2 in
      let der =
        match Fleet.leaf_der f e i with
        | Some d -> d
        | None -> Alcotest.fail "leaf_der out of range"
      in
      (match Log.inclusion_proof e.Fleet.log ~index:i ~tree_size:n with
      | Error err -> Alcotest.fail err
      | Ok proof ->
        check Alcotest.bool
          (Printf.sprintf "%s inclusion" (Log.name e.Fleet.log))
          true
          (Proof.verify_inclusion ~leaf:der ~index:i ~tree_size:n ~proof
             ~root:(Log.head e.Fleet.log)));
      let m = max 1 (n / 2) in
      let first_root =
        match Log.head_at e.Fleet.log m with
        | Ok h -> h
        | Error err -> Alcotest.fail err
      in
      match Log.consistency_proof e.Fleet.log ~first:m ~second:n with
      | Error err -> Alcotest.fail err
      | Ok proof ->
        check Alcotest.bool
          (Printf.sprintf "%s consistency" (Log.name e.Fleet.log))
          true
          (Proof.verify_consistency ~first:m ~second:n ~first_root
             ~second_root:(Log.head e.Fleet.log) ~proof))
    (Fleet.entries f)

let test_fleet_determinism () =
  (* Same seed, same corpus: rebuilt fleet has byte-identical heads. *)
  let w = Lazy.force Tangled_core.Pipeline.quick in
  let f1 = Lazy.force quick_fleet in
  let f2 =
    Fleet.build ~seed:w.Tangled_core.Pipeline.config.Tangled_core.Pipeline.seed
      w.Tangled_core.Pipeline.universe w.Tangled_core.Pipeline.notary
  in
  Array.iteri
    (fun j (e1 : Fleet.entry) ->
      let e2 = (Fleet.entries f2).(j) in
      check Alcotest.string "head" (Log.head_hex e1.Fleet.log)
        (Log.head_hex e2.Fleet.log))
    (Fleet.entries f1)

let test_fleet_visibility () =
  let f = Lazy.force quick_fleet in
  let rows = Fleet.official_visibility f in
  check Alcotest.int "six stores" 6 (List.length rows);
  List.iter
    (fun (r : Fleet.store_row) ->
      if r.Fleet.logged + r.Fleet.dark <> r.Fleet.roots then
        Alcotest.failf "%s: logged %d + dark %d <> roots %d" r.Fleet.store_name
          r.Fleet.logged r.Fleet.dark r.Fleet.roots;
      if r.Fleet.logged > r.Fleet.accepted then
        Alcotest.failf "%s: logged %d > accepted %d" r.Fleet.store_name
          r.Fleet.logged r.Fleet.accepted)
    rows

(* --- cost gates: the log's work is a count, not a time ------------------- *)

(* A DER-sized leaf: 600 bytes of 0xa5 with the index in the first 12. *)
let der_leaf template i =
  Bytes.blit_string (Printf.sprintf "%012d" i) 0 template 0 12;
  Bytes.to_string template

let der_log n =
  let t = Log.create () in
  let template = Bytes.make 600 '\xa5' in
  for i = 0 to n - 1 do
    ignore (Log.append t (der_leaf template i))
  done;
  t

(* Minor words per append: a loop that makes and appends n leaves less
   the same loop that only makes them.  n appends make n leaf hashes and
   n - popcount(n) node hashes, so the figure is flat in n: about 88
   words at 1 024 leaves and 86 at 65 536.  A log that recomputed its
   head after every append reads 260 and 387 and fails both the
   flatness and the bound. *)
let test_append_cost_flat () =
  let words_per_append n =
    let loop f =
      let template = Bytes.make 600 '\xa5' in
      let before = Gc.minor_words () in
      for i = 0 to n - 1 do
        f (der_leaf template i)
      done;
      Gc.minor_words () -. before
    in
    let t = Log.create () in
    let with_log = loop (fun leaf -> ignore (Log.append t leaf)) in
    (with_log -. loop ignore) /. float_of_int n
  in
  let small = words_per_append 1024 and large = words_per_append 65_536 in
  if Float.abs (large -. small) > 0.05 *. small then
    Alcotest.failf "append: %.2f words at 1 024 leaves, %.2f at 65 536 (must agree within 5%%)"
      small large;
  List.iter
    (fun (n, w) ->
      if w > 96.0 then
        Alcotest.failf "append at %d leaves: %.2f minor words (bound 96)" n w)
    [ (1024, small); (65_536, large) ]

(* Minor words per inclusion verify at sampled indices of a 200 000-leaf
   log, whose proofs run from 11 to 18 entries.  The pure verifier
   hashes the leaf once and makes one node hash per proof entry, so the
   words are a + b * len for one pair (a, b): 58 + 43 * len when
   measured.  A verifier whose work grew faster than its proof fits no
   such line. *)
let test_verify_cost_linear () =
  let n = 200_000 in
  let t = der_log n in
  let root = Log.head t in
  let max_len = ref 0 in
  while 1 lsl !max_len < n do
    incr max_len
  done;
  let template = Bytes.make 600 '\xa5' in
  (* a stride over the whole log plus one over its last 4 000 leaves,
     where the short proofs are *)
  let indices =
    List.init 40 (fun k -> (k * 4999) + 7) @ List.init 24 (fun k -> n - 1 - (k * 167))
  in
  let samples =
    List.map
      (fun index ->
        let proof =
          match Log.inclusion_proof t ~index ~tree_size:n with
          | Ok p -> p
          | Error e -> Alcotest.failf "proof of %d: %s" index e
        in
        let len = List.length proof in
        if len > !max_len then
          Alcotest.failf "proof of %d has %d entries (at most %d)" index len !max_len;
        let leaf = der_leaf template index in
        let before = Gc.minor_words () in
        let ok = Proof.verify_inclusion ~leaf ~index ~tree_size:n ~proof ~root in
        let words = Gc.minor_words () -. before in
        if not ok then Alcotest.failf "inclusion of %d rejected" index;
        (len, words))
      indices
  in
  let shortest = List.fold_left (fun a s -> if fst s < fst a then s else a) (List.hd samples) samples
  and longest = List.fold_left (fun a s -> if fst s > fst a then s else a) (List.hd samples) samples in
  if fst shortest = fst longest then Alcotest.fail "every sampled proof has the same length";
  let b = (snd longest -. snd shortest) /. float_of_int (fst longest - fst shortest) in
  let a = snd shortest -. (b *. float_of_int (fst shortest)) in
  List.iter2
    (fun index (len, words) ->
      if words <> a +. (b *. float_of_int len) then
        Alcotest.failf "verify of %d (%d entries): %.0f words, off the line %.1f + %.1f * len"
          index len words a b)
    indices samples;
  if b > 48.0 then Alcotest.failf "verify costs %.1f words per proof entry (bound 48)" b

let suite =
  [
    Alcotest.test_case "empty head" `Quick test_empty_head;
    Alcotest.test_case "heads 0..64 vs oracle" `Quick test_heads_vs_oracle;
    Alcotest.test_case "head_at prefixes" `Quick test_head_at_prefixes;
    Alcotest.test_case "inclusion all leaves 1..64" `Quick
      test_inclusion_all_small;
    Alcotest.test_case "historical inclusion" `Quick test_inclusion_historical;
    Alcotest.test_case "consistency all pairs <= 64" `Quick
      test_consistency_all_pairs;
    Alcotest.test_case "error cases" `Quick test_error_cases;
    Alcotest.test_case "fleet submission" `Slow test_fleet_submission;
    Alcotest.test_case "fleet proof roundtrip" `Slow test_fleet_proof_roundtrip;
    Alcotest.test_case "fleet determinism" `Slow test_fleet_determinism;
    Alcotest.test_case "fleet visibility" `Slow test_fleet_visibility;
  ]
  @ List.map qtest
      [
        prop_incremental_matches_oracle;
        prop_inclusion_random;
        prop_consistency_random;
        prop_mutated_inclusion_rejected;
        prop_mutated_consistency_rejected;
      ]
  @ [
      Alcotest.test_case "append cost flat in log size" `Quick test_append_cost_flat;
      Alcotest.test_case "verify cost linear in proof length" `Quick
        test_verify_cost_linear;
    ]
