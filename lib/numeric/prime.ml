module Prng = Tangled_util.Prng
module Obs = Tangled_obs.Obs

let small_primes =
  (* sieve of Eratosthenes below 1000, computed once at load time *)
  let bound = 1000 in
  let composite = Array.make (bound + 1) false in
  let primes = ref [] in
  for i = 2 to bound do
    if not composite.(i) then begin
      primes := i :: !primes;
      let j = ref (i * i) in
      while !j <= bound do
        composite.(!j) <- true;
        j := !j + i
      done
    end
  done;
  Array.of_list (List.rev !primes)

let largest_small_prime = small_primes.(Array.length small_primes - 1)

(* Key-generation work as counts that depend only on the seed: every
   candidate the search visits, the ones the residue sieve rejects
   without drawing a base, and every Miller–Rabin exponentiation. *)
let c_candidates = Obs.counter "prime.candidates"
let c_sieved = Obs.counter "prime.sieved_out"
let c_mr_modpows = Obs.counter "prime.mr_modpows"

let is_small_prime v = Array.exists (fun p -> p = v) small_primes

(* [residue mag p] is the value with little-endian limbs [mag] modulo
   [p < 1000], folded from the top limb down: r·2^26 + limb < 2^36, so
   each step is one native-int remainder and nothing allocates. *)
let residue mag p =
  let r = ref 0 in
  for j = Array.length mag - 1 downto 0 do
    r := ((!r lsl Bigint.Internal.limb_bits) lor Array.unsafe_get mag j) mod p
  done;
  !r

(* Miller–Rabin on an odd [n] above the small-prime bound.  Each of
   the [rounds] bases is drawn uniformly from [2, n-2] and raised to
   the odd part of n-1 through the scheduled walk; the context, the
   exponent schedule and the scratch are built once per candidate and
   shared by its rounds. *)
let miller_rabin ~rounds rng n =
  let n1 = Bigint.sub n Bigint.one in
  (* n - 1 = d * 2^s with d odd *)
  let rec split d s =
    if Bigint.is_odd d then (d, s) else split (Bigint.shift_right d 1) (s + 1)
  in
  let d, s = split n1 0 in
  let n3 = Bigint.sub n (Bigint.of_int 3) in
  let ctx = Montgomery.create n in
  let sched = Montgomery.schedule d in
  let scr = Montgomery.scratch ctx in
  (* true when [a] witnesses compositeness of [n] *)
  let witness a =
    Obs.incr c_mr_modpows;
    let x = Montgomery.powm ctx scr sched a in
    if Bigint.equal x Bigint.one || Bigint.equal x n1 then false
    else begin
      let rec squarings i x =
        if i >= s - 1 then true
        else begin
          let x = Bigint.rem (Bigint.mul x x) n in
          if Bigint.equal x n1 then false else squarings (i + 1) x
        end
      in
      squarings 0 x
    end
  in
  let rec rounds_loop i =
    if i >= rounds then true
    else begin
      let a = Bigint.add (Bigint.random_below rng n3) Bigint.two in
      if witness a then false else rounds_loop (i + 1)
    end
  in
  rounds_loop 0

let too_wide = "Prime: candidate wider than Montgomery.max_bits"

let is_probably_prime ?(rounds = 20) rng n =
  if Bigint.sign n <= 0 then false
  else if Bigint.bit_length n > Montgomery.max_bits then invalid_arg too_wide
  else
    match Bigint.to_int_opt n with
    | Some v when v <= largest_small_prime -> is_small_prime v
    | _ ->
        Bigint.is_odd n
        && (let mag = Bigint.Internal.mag n in
            not (Array.exists (fun p -> residue mag p = 0) small_primes))
        && miller_rabin ~rounds rng n

let generate ?(rounds = 20) rng ~bits =
  if bits < 2 then invalid_arg "Prime.generate: need at least 2 bits";
  if bits > Montgomery.max_bits then invalid_arg too_wide;
  (* the top two bits are set, so two primes of b1 and b2 bits have a
     product of exactly b1 + b2 bits: (3/4)^2 * 2^(b1+b2) > 2^(b1+b2-1) *)
  let top = Bigint.shift_left (Bigint.of_int 3) (bits - 2) in
  let rec attempt () =
    let r = Bigint.random_bits rng (bits - 2) in
    let candidate = Bigint.add top r in
    let candidate =
      if Bigint.is_odd candidate then candidate else Bigint.add candidate Bigint.one
    in
    (* the residues of the current candidate modulo each small prime,
       computed once per starting point and stepped with it *)
    let res = Array.map (residue (Bigint.Internal.mag candidate)) small_primes in
    let step () =
      for i = 0 to Array.length res - 1 do
        let r = Array.unsafe_get res i + 2 and p = Array.unsafe_get small_primes i in
        Array.unsafe_set res i (if r >= p then r - p else r)
      done
    in
    (* exactly [is_probably_prime]'s verdict and draws: a small prime
       itself (only reachable at <= 10 bits) is looked up, a zero
       residue rejects without drawing, the rest go to Miller–Rabin *)
    let test c =
      Obs.incr c_candidates;
      match Bigint.to_int_opt c with
      | Some v when v <= largest_small_prime -> is_small_prime v
      | _ ->
          if Array.exists (fun r -> r = 0) res then begin
            Obs.incr c_sieved;
            false
          end
          else miller_rabin ~rounds rng c
    in
    (* incremental search keeps the draw count low *)
    let rec search c tries =
      if tries = 0 || Bigint.bit_length c <> bits then attempt ()
      else if test c then c
      else begin
        step ();
        search (Bigint.add c Bigint.two) (tries - 1)
      end
    in
    search candidate 400
  in
  attempt ()
