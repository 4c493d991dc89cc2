(* The prime search against its reference (Prime_oracle): the same
   values, the same PRNG position afterwards, the same RSA keys, and
   keygen work counters that repeat exactly for a pinned seed. *)

module B = Tangled_numeric.Bigint
module Prime = Tangled_numeric.Prime
module Rsa = Tangled_crypto.Rsa
module Prng = Tangled_util.Prng
module Obs = Tangled_obs.Obs
module Oracle = Prime_oracle

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Run [f] and [reference] on two PRNGs from the same seed: equal
   results, and the next draw from each PRNG equal too (both consumed
   exactly the same bytes). *)
let same_draws ~seed f reference =
  let r1 = Prng.create seed and r2 = Prng.create seed in
  let got = f r1 and want = reference r2 in
  got = want && Int64.equal (Prng.next_int64 r1) (Prng.next_int64 r2)

let agrees_on_generate ~seed ~rounds ~bits =
  same_draws ~seed
    (fun rng -> B.to_hex (Prime.generate ~rounds rng ~bits))
    (fun rng -> B.to_hex (Oracle.generate ~rounds rng ~bits))

let generate_prop ~name ~count widths =
  QCheck.Test.make ~name ~count
    QCheck.(triple (int_bound 1_000_000) (int_range 1 8) (oneofl widths))
    (fun (seed, rounds, bits) -> agrees_on_generate ~seed ~rounds ~bits)

let prop_generate_small =
  generate_prop ~name:"generate = reference at 2-12 bits" ~count:400
    (List.init 11 (fun i -> i + 2))

let prop_generate_medium =
  generate_prop ~name:"generate = reference at 64-256 bits" ~count:40
    [ 64; 96; 192; 256 ]

let prop_generate_large =
  generate_prop ~name:"generate = reference at 512 and 1024 bits" ~count:4
    [ 512; 1024 ]

let agrees_on_test ~seed n =
  same_draws ~seed
    (fun rng -> Prime.is_probably_prime ~rounds:6 rng n)
    (fun rng -> Oracle.is_probably_prime ~rounds:6 rng n)

let test_is_prime_exhaustive () =
  (* zero, one, negatives and every value up to 1000, where the small
     primes themselves must not be sieved out *)
  for v = -50 to 1000 do
    if not (agrees_on_test ~seed:v (B.of_int v)) then
      Alcotest.failf "is_probably_prime disagrees with the reference on %d" v
  done;
  List.iter
    (fun n ->
      if not (agrees_on_test ~seed:7 n) then
        Alcotest.failf "is_probably_prime disagrees on %s" (B.to_string n))
    [ B.of_int (-1_000_003); B.neg (B.shift_left B.one 200) ]

let prop_is_prime_small_products =
  QCheck.Test.make ~name:"is_probably_prime = reference on products of small primes"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) (list_of_size Gen.(1 -- 12) (int_bound 167)))
    (fun (seed, idx) ->
      let n =
        List.fold_left (fun acc i -> B.mul acc (B.of_int Prime.small_primes.(i))) B.one idx
      in
      (* and its neighbours, which are mostly free of small factors *)
      List.for_all (agrees_on_test ~seed) [ n; B.add n B.one; B.add n B.two ])

let prop_is_prime_random_odd =
  QCheck.Test.make ~name:"is_probably_prime = reference on random odd 64-512-bit values"
    ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 64 512))
    (fun (seed, bits) ->
      let rng = Prng.create (seed + 1) in
      let v = B.add (B.shift_left B.one (bits - 1)) (B.random_bits rng (bits - 1)) in
      let v = if B.is_odd v then v else B.add v B.one in
      agrees_on_test ~seed v)

let key_fields k = List.map B.to_hex [ k.Rsa.pub.Rsa.n; k.Rsa.d; k.Rsa.p; k.Rsa.q ]

let rsa_prop ~count bits =
  QCheck.Test.make ~name:(Printf.sprintf "Rsa.generate = reference at %d bits" bits) ~count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      same_draws ~seed
        (fun rng -> key_fields (Rsa.generate ~mr_rounds:6 rng ~bits))
        (fun rng ->
          let n, d, p, q = Oracle.rsa_generate ~mr_rounds:6 rng ~bits in
          List.map B.to_hex [ n; d; p; q ]))

(* --- keygen work counters -------------------------------------------- *)

let keygen_counters =
  [ "prime.candidates"; "prime.sieved_out"; "prime.mr_modpows"; "rsa.keygen_short_modulus" ]

let modpow_observations () =
  (Obs.histogram_snapshot (Obs.histogram "montgomery.modpow_bits")).Obs.total

(* counter deltas (and modpow_bits observations) over [f ()] *)
let deltas f =
  let read () = modpow_observations () :: List.map (fun c -> Obs.value (Obs.counter c)) keygen_counters in
  let before = read () in
  f ();
  List.map2 ( - ) (read ()) before

let test_counters_repeat () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let keys () =
    let rng = Prng.create 2014 in
    for _ = 1 to 6 do
      ignore (Rsa.generate ~mr_rounds:6 rng ~bits:384)
    done
  in
  let first = deltas keys in
  let second = deltas keys in
  Obs.set_enabled was;
  check Alcotest.(list int) "same seed, same counts" first second;
  Oracle.reset_counts ();
  let rng = Prng.create 2014 in
  for _ = 1 to 6 do
    ignore (Oracle.rsa_generate ~mr_rounds:6 rng ~bits:384)
  done;
  let c = Oracle.counts in
  (* one modpow_bits observation per Miller–Rabin exponentiation, and
     each counter equal to the reference search's own tally *)
  check Alcotest.(list int) "counts match the reference search"
    [ c.mr_modpows; c.candidates; c.sieved_out; c.mr_modpows; c.short_moduli ]
    first;
  check Alcotest.bool "the sieve did reject candidates" true (c.sieved_out > 0)

let suite =
  [
    qtest prop_generate_small;
    qtest prop_generate_medium;
    qtest prop_generate_large;
    Alcotest.test_case "is_probably_prime = reference on -50..1000" `Quick
      test_is_prime_exhaustive;
    qtest prop_is_prime_small_products;
    qtest prop_is_prime_random_odd;
    qtest (rsa_prop ~count:40 64);
    qtest (rsa_prop ~count:6 384);
    qtest (rsa_prop ~count:3 512);
    Alcotest.test_case "keygen counters repeat for a pinned seed" `Quick
      test_counters_repeat;
  ]
