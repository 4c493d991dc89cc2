(* The reference prime search: trial division by one Bigint.rem per
   small prime, then Miller–Rabin on the unscheduled Montgomery.modpow.
   Prime.generate, Prime.is_probably_prime and Rsa.generate must agree
   with it value for value and draw for draw.  It also counts its work,
   so the library's keygen counters have something to be checked
   against. *)

module B = Tangled_numeric.Bigint
module Mont = Tangled_numeric.Montgomery
module Prime = Tangled_numeric.Prime

type counts = {
  mutable candidates : int;
  mutable sieved_out : int;
  mutable mr_modpows : int;
  mutable short_moduli : int;
}

let counts = { candidates = 0; sieved_out = 0; mr_modpows = 0; short_moduli = 0 }

let reset_counts () =
  counts.candidates <- 0;
  counts.sieved_out <- 0;
  counts.mr_modpows <- 0;
  counts.short_moduli <- 0

let small_primes = Prime.small_primes

let divisible_by_small_prime n =
  Array.exists
    (fun p ->
      let bp = B.of_int p in
      B.is_zero (B.rem n bp) && not (B.equal n bp))
    small_primes

let miller_rabin_witness ctx n d s a =
  let n1 = B.sub n B.one in
  counts.mr_modpows <- counts.mr_modpows + 1;
  let x = Mont.modpow ctx a d in
  if B.equal x B.one || B.equal x n1 then false
  else begin
    let rec squarings i x =
      if i >= s - 1 then true
      else begin
        let x = B.rem (B.mul x x) n in
        if B.equal x n1 then false else squarings (i + 1) x
      end
    in
    squarings 0 x
  end

(* [on_sieved] runs when trial division rejects the candidate *)
let is_probably_prime_with ~on_sieved ~rounds rng n =
  if B.sign n <= 0 then false
  else
    match B.to_int_opt n with
    | Some v when v <= small_primes.(Array.length small_primes - 1) ->
        Array.exists (fun p -> p = v) small_primes
    | _ ->
        if not (B.is_odd n) then false
        else if divisible_by_small_prime n then begin
          on_sieved ();
          false
        end
        else begin
          let n1 = B.sub n B.one in
          let rec split d s = if B.is_odd d then (d, s) else split (B.shift_right d 1) (s + 1) in
          let d, s = split n1 0 in
          let n3 = B.sub n (B.of_int 3) in
          let ctx = Mont.create n in
          let rec rounds_loop i =
            if i >= rounds then true
            else begin
              let a = B.add (B.random_below rng n3) B.two in
              if miller_rabin_witness ctx n d s a then false else rounds_loop (i + 1)
            end
          in
          rounds_loop 0
        end

let is_probably_prime ?(rounds = 20) rng n =
  is_probably_prime_with ~on_sieved:ignore ~rounds rng n

let generate ?(rounds = 20) rng ~bits =
  if bits < 2 then invalid_arg "Prime.generate: need at least 2 bits";
  let top = B.shift_left B.one (bits - 1) in
  let on_sieved () = counts.sieved_out <- counts.sieved_out + 1 in
  let rec attempt () =
    let r = B.random_bits rng (bits - 1) in
    let candidate = B.add top r in
    let candidate = if B.is_odd candidate then candidate else B.add candidate B.one in
    let rec search c tries =
      if tries = 0 || B.bit_length c <> bits then attempt ()
      else begin
        counts.candidates <- counts.candidates + 1;
        if is_probably_prime_with ~on_sieved ~rounds rng c then c
        else search (B.add c B.two) (tries - 1)
      end
    in
    search candidate 400
  in
  attempt ()

(* Rsa.generate's pair search over the reference primes: (n, d, p, q) *)
let rsa_generate ?(mr_rounds = 20) rng ~bits =
  let pbits = (bits + 1) / 2 in
  let qbits = bits - pbits in
  let e = B.of_int 65537 in
  let rec attempt () =
    let p = generate ~rounds:mr_rounds rng ~bits:pbits in
    let q = generate ~rounds:mr_rounds rng ~bits:qbits in
    if B.equal p q then attempt ()
    else begin
      let n = B.mul p q in
      if B.bit_length n <> bits then begin
        counts.short_moduli <- counts.short_moduli + 1;
        attempt ()
      end
      else
        match B.mod_inverse e (B.mul (B.sub p B.one) (B.sub q B.one)) with
        | Some d -> (n, d, p, q)
        | None -> attempt ()
    end
  in
  attempt ()
