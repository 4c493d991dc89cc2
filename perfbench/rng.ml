(* SplitMix64.  The benchmark draws its own inputs (request mix, Zipf
   popularity, Poisson arrivals, world seeds) from this generator rather
   than from the program's Prng, so a change to the program cannot
   change the inputs it is measured on. *)

type t = { mutable s : int64 }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { s = mix (Int64.of_int seed) }

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  mix t.s

let derive seed tag =
  Int64.to_int (Int64.shift_right_logical (mix (Int64.add (mix (Int64.of_int seed)) (Int64.of_int tag))) 34)

let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

let exponential t rate = -.log (1.0 -. float t) /. rate

type zipf = float array

let zipf_table n s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !acc
  done;
  cdf

let zipf t cdf =
  let n = Array.length cdf in
  let u = float t *. cdf.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
