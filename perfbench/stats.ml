(* Order statistics over float samples.  [quantile] interpolates
   linearly between closest ranks, as numpy's default does.  The
   benchmark keeps its own rather than using the program's
   Tangled_util.Stats, so a change to the program cannot change how its
   measurements are summarised. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0.0 a

(* Mean of the samples between the first and third quartile ranks: as
   robust to a few outliers as the median, with less noise. *)
let interquartile_mean a =
  let s = sorted a in
  let n = Array.length s in
  let lo = n / 4 in
  let hi = max (lo + 1) (n - (n / 4)) in
  sum (Array.sub s lo (hi - lo)) /. float_of_int (hi - lo)
