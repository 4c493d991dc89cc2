(* Montgomery-form modular exponentiation on 28-bit limbs.

   The division-based Bigint.modpow pays a full Knuth division per
   square or multiply.  A Montgomery context trades that for
   division-free product-scanning (FIPS) reductions: each output
   column accumulates all of its partial products — a_j·b_{i-j} and
   mu_j·n_{i-j} — into a single native-int accumulator with one
   multiply-add per product, then spends one shift and one store for
   the whole column.  The quotient digit mu_i falls out of the column
   sum as it completes, so multiplication and reduction fuse into one
   pass with no intermediate 2k-limb product.

   Bigint keeps 26-bit limbs because its schoolbook division needs two
   spare bits.  Montgomery arithmetic never divides, so operands are
   repacked into 28-bit limbs: a 192-bit RSA-CRT half is 7 limbs
   instead of 8, and a partial product stays below 2^56.  (A 31-bit
   packing needs split lo/hi column accumulators and measured ~35 %
   slower; see DESIGN.md section 8.)

   Column bound.  The kernels only add, multiply, mask and shift right
   logically, so a column sum is exact as long as it stays below 2^63
   read as an unsigned number: the wrap of OCaml's signed 63-bit int
   past 2^62 never reaches a comparison.  A column sums at most 2k
   products below 2^56 plus a carry below 2^36, which is below 2^63
   for k <= 63 ({!integrated_max_k}).  Above that the kernels fold
   each column into a carry word once, between the a·b half and the
   reduction half, so each half sums at most k products: sound up to
   126 limbs ({!max_limbs}, 3 528 bits), the widest modulus {!create}
   accepts.

   Squaring gets a dedicated kernel: the operand half of each column is
   symmetric (a_j·a_{i-j} = a_{i-j}·a_j), so it sums each pair once and
   doubles.  Fixed-window exponentiation is ~80 % squarings.  CRT halves
   of 384-bit keys (k = 7, the Notary corpus default) run fully
   unrolled straight-line kernels whose operands live in registers.

   A {!schedule} hoists an exponent's window digits out of the loop
   (once per key), and a {!scratch} preallocates every buffer an
   exponentiation needs, so between the message bytes going in and the
   signature bytes coming out the byte-level walks the RSA hot paths
   use allocate only their exponent-width observations. *)

module B = Bigint

(* exponent-width distribution of every exponentiation — one
   observation per walk, negligible next to the k²-limb kernels it
   precedes *)
let modpow_bits =
  Tangled_obs.Obs.histogram
    ~buckets:[| 64.0; 128.0; 256.0; 384.0; 512.0; 768.0; 1024.0; 2048.0; 4096.0 |]
    "montgomery.modpow_bits"

let wbits = 28
let wbase = 1 lsl wbits
let wmask = wbase - 1

let integrated_max_k = 63
let max_limbs = 2 * integrated_max_k
let max_bits = max_limbs * wbits

type t = {
  modulus : B.t;
  n : int array;   (* modulus, k 28-bit limbs *)
  k : int;
  n0' : int;       (* -modulus^{-1} mod 2^28 *)
  r2 : int array;  (* R^2 mod m, R = 2^(28k): Montgomery entry of a k-limb value *)
  r3 : int array;  (* R^3 mod m: entry of a 2k-limb value after one REDC *)
  one : int array; (* R mod m, Montgomery form of 1 *)
}

let limbs t = t.k

(* --- limb arithmetic ---------------------------------------------------

   Top-level functions with explicit arguments, never local closures:
   this tree compiles without flambda, so a closure inside a kernel
   allocates on every modular product. *)

(* r[0..j] >= n[0..j] limb-wise? *)
let rec ge_from r n j =
  if j < 0 then true
  else begin
    let rj = Array.unsafe_get r j and nj = Array.unsafe_get n j in
    if rj <> nj then rj > nj else ge_from r n (j - 1)
  end

(* dst := x - y over k limbs; returns the final borrow *)
let sub_limbs ~k ~dst x y =
  let borrow = ref 0 in
  for j = 0 to k - 1 do
    let d = Array.unsafe_get x j - Array.unsafe_get y j - !borrow in
    if d < 0 then begin
      Array.unsafe_set dst j (d + wbase);
      borrow := 1
    end
    else begin
      Array.unsafe_set dst j d;
      borrow := 0
    end
  done;
  !borrow

(* The kernels and REDC leave a k-limb result plus a high unit such
   that r + high·R < 2m; one conditional subtraction reduces fully
   (any final borrow cancels against the high unit). *)
let reduce_final ~n ~k r high =
  if high <> 0 || ge_from r n (k - 1) then ignore (sub_limbs ~k ~dst:r r n : int)

(* --- fused product-scanning kernels ------------------------------------

   dst := a·b·R^{-1} mod m; inputs k limbs with a·b < R·m, result k
   limbs fully reduced below m.  [mu] is a k-limb scratch row; [dst]
   must not alias [mu].  These two run at k <= 63, where a whole
   column fits one accumulator. *)

let mont_mul_into ~n ~k ~n0' ~mu ~dst a b =
  let acc = ref 0 in
  (* low columns 0..k-1: the column sum fixes mu_i, which zeroes it *)
  for i = 0 to k - 1 do
    let s = ref !acc in
    for j = 0 to i do
      s := !s + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
    done;
    for j = 0 to i - 1 do
      s := !s + (Array.unsafe_get mu j * Array.unsafe_get n (i - j))
    done;
    let mi = !s * n0' land wmask in
    Array.unsafe_set mu i mi;
    acc := (!s + (mi * Array.unsafe_get n 0)) lsr wbits
  done;
  (* high columns k..2k-1 land directly in the shifted result *)
  for i = k to (2 * k) - 1 do
    let s = ref !acc in
    for j = i - k + 1 to k - 1 do
      s :=
        !s
        + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
        + (Array.unsafe_get mu j * Array.unsafe_get n (i - j))
    done;
    Array.unsafe_set dst (i - k) (!s land wmask);
    acc := !s lsr wbits
  done;
  reduce_final ~n ~k dst !acc

(* dst := a²·R^{-1} mod m — as mont_mul with b = a, but each symmetric
   pair a_j·a_{i-j} (j < i-j) is computed once and doubled; the
   diagonal a_{i/2}² joins even columns undoubled.  The mu·n half has
   no symmetry and stays a full scan. *)
let mont_sqr_into ~n ~k ~n0' ~mu ~dst a =
  let acc = ref 0 in
  for i = 0 to k - 1 do
    (* (i-1) asr 1 is -1 at i=0, keeping the pair loop empty there *)
    let half = (i - 1) asr 1 in
    let p = ref 0 in
    for j = 0 to half do
      p := !p + (Array.unsafe_get a j * Array.unsafe_get a (i - j))
    done;
    let s = ref (!acc + (!p lsl 1)) in
    if i land 1 = 0 then begin
      let d = Array.unsafe_get a (i asr 1) in
      s := !s + (d * d)
    end;
    for j = 0 to i - 1 do
      s := !s + (Array.unsafe_get mu j * Array.unsafe_get n (i - j))
    done;
    let mi = !s * n0' land wmask in
    Array.unsafe_set mu i mi;
    acc := (!s + (mi * Array.unsafe_get n 0)) lsr wbits
  done;
  for i = k to (2 * k) - 1 do
    let lo = i - k + 1 in
    let half = (i - 1) asr 1 in
    let p = ref 0 in
    for j = lo to half do
      p := !p + (Array.unsafe_get a j * Array.unsafe_get a (i - j))
    done;
    let s = ref (!acc + (!p lsl 1)) in
    if i land 1 = 0 && i asr 1 >= lo then begin
      let d = Array.unsafe_get a (i asr 1) in
      s := !s + (d * d)
    end;
    for j = lo to k - 1 do
      s := !s + (Array.unsafe_get mu j * Array.unsafe_get n (i - j))
    done;
    Array.unsafe_set dst (i - k) (!s land wmask);
    acc := !s lsr wbits
  done;
  reduce_final ~n ~k dst !acc

(* --- folding kernels for 63 < k <= 126 -----------------------------------

   The same column scan, but each column folds into a carry word once,
   between its a·b half and its reduction half, so neither half sums
   more than k products.  Where it is not needed the fold only costs:
   fold-capable versions of the pair above measured 4-30 % slower
   multiplies at k = 8-63, so narrower moduli keep that pair.

   [fold_column] is one column's reduction half: [s] holds the a·b
   half plus the carry in, and the carry out is returned. *)

let fold_column ~n ~k ~n0' ~mu ~dst i s =
  let c = s lsr wbits in
  let s = ref (s land wmask) in
  if i < k then begin
    for j = 0 to i - 1 do
      s := !s + (Array.unsafe_get mu j * Array.unsafe_get n (i - j))
    done;
    let mi = !s * n0' land wmask in
    Array.unsafe_set mu i mi;
    c + ((!s + (mi * Array.unsafe_get n 0)) lsr wbits)
  end
  else begin
    for j = i - k + 1 to k - 1 do
      s := !s + (Array.unsafe_get mu j * Array.unsafe_get n (i - j))
    done;
    Array.unsafe_set dst (i - k) (!s land wmask);
    c + (!s lsr wbits)
  end

let mont_mul_fold ~n ~k ~n0' ~mu ~dst a b =
  let acc = ref 0 in
  for i = 0 to (2 * k) - 1 do
    let s = ref !acc in
    for j = (if i < k then 0 else i - k + 1) to (if i < k then i else k - 1) do
      s := !s + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
    done;
    acc := fold_column ~n ~k ~n0' ~mu ~dst i !s
  done;
  reduce_final ~n ~k dst !acc

(* the diagonal term joins every even column: i/2 always lies in the
   column's operand range *)
let mont_sqr_fold ~n ~k ~n0' ~mu ~dst a =
  let acc = ref 0 in
  for i = 0 to (2 * k) - 1 do
    let p = ref 0 in
    for j = (if i < k then 0 else i - k + 1) to (i - 1) asr 1 do
      p := !p + (Array.unsafe_get a j * Array.unsafe_get a (i - j))
    done;
    let s = !acc + (!p lsl 1) in
    let d = if i land 1 = 0 then Array.unsafe_get a (i asr 1) else 0 in
    acc := fold_column ~n ~k ~n0' ~mu ~dst i (s + (d * d))
  done;
  reduce_final ~n ~k dst !acc

(* --- fully unrolled k = 7 kernels (384-bit CRT halves) --------------------

   A 384-bit RSA key — the Notary corpus default — signs through two
   192-bit moduli of exactly seven 28-bit limbs.  At that width the
   generic loops spend as much on indexing and carried refs as on the
   multiplies, so the two kernels below are written out straight-line
   with every operand in a named local: the compiler keeps them in
   registers, a multiply is 105 products, and the squaring's doubled
   pairs are a single shift. *)

let mont_mul7 ~n ~n0' ~dst a b =
  let a0 = Array.unsafe_get a 0 and a1 = Array.unsafe_get a 1
  and a2 = Array.unsafe_get a 2 and a3 = Array.unsafe_get a 3
  and a4 = Array.unsafe_get a 4 and a5 = Array.unsafe_get a 5
  and a6 = Array.unsafe_get a 6 in
  let b0 = Array.unsafe_get b 0 and b1 = Array.unsafe_get b 1
  and b2 = Array.unsafe_get b 2 and b3 = Array.unsafe_get b 3
  and b4 = Array.unsafe_get b 4 and b5 = Array.unsafe_get b 5
  and b6 = Array.unsafe_get b 6 in
  let n0 = Array.unsafe_get n 0 and n1 = Array.unsafe_get n 1
  and n2 = Array.unsafe_get n 2 and n3 = Array.unsafe_get n 3
  and n4 = Array.unsafe_get n 4 and n5 = Array.unsafe_get n 5
  and n6 = Array.unsafe_get n 6 in
  let s = a0*b0 in
  let u0 = s * n0' land wmask in
  let acc = (s + u0*n0) lsr wbits in
  let s = acc + a0*b1 + a1*b0 + u0*n1 in
  let u1 = s * n0' land wmask in
  let acc = (s + u1*n0) lsr wbits in
  let s = acc + a0*b2 + a1*b1 + a2*b0 + u0*n2 + u1*n1 in
  let u2 = s * n0' land wmask in
  let acc = (s + u2*n0) lsr wbits in
  let s = acc + a0*b3 + a1*b2 + a2*b1 + a3*b0 + u0*n3 + u1*n2 + u2*n1 in
  let u3 = s * n0' land wmask in
  let acc = (s + u3*n0) lsr wbits in
  let s = acc + a0*b4 + a1*b3 + a2*b2 + a3*b1 + a4*b0
          + u0*n4 + u1*n3 + u2*n2 + u3*n1 in
  let u4 = s * n0' land wmask in
  let acc = (s + u4*n0) lsr wbits in
  let s = acc + a0*b5 + a1*b4 + a2*b3 + a3*b2 + a4*b1 + a5*b0
          + u0*n5 + u1*n4 + u2*n3 + u3*n2 + u4*n1 in
  let u5 = s * n0' land wmask in
  let acc = (s + u5*n0) lsr wbits in
  let s = acc + a0*b6 + a1*b5 + a2*b4 + a3*b3 + a4*b2 + a5*b1 + a6*b0
          + u0*n6 + u1*n5 + u2*n4 + u3*n3 + u4*n2 + u5*n1 in
  let u6 = s * n0' land wmask in
  let acc = (s + u6*n0) lsr wbits in
  let s = acc + a1*b6 + a2*b5 + a3*b4 + a4*b3 + a5*b2 + a6*b1
          + u1*n6 + u2*n5 + u3*n4 + u4*n3 + u5*n2 + u6*n1 in
  Array.unsafe_set dst 0 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + a2*b6 + a3*b5 + a4*b4 + a5*b3 + a6*b2
          + u2*n6 + u3*n5 + u4*n4 + u5*n3 + u6*n2 in
  Array.unsafe_set dst 1 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + a3*b6 + a4*b5 + a5*b4 + a6*b3 + u3*n6 + u4*n5 + u5*n4 + u6*n3 in
  Array.unsafe_set dst 2 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + a4*b6 + a5*b5 + a6*b4 + u4*n6 + u5*n5 + u6*n4 in
  Array.unsafe_set dst 3 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + a5*b6 + a6*b5 + u5*n6 + u6*n5 in
  Array.unsafe_set dst 4 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + a6*b6 + u6*n6 in
  Array.unsafe_set dst 5 (s land wmask);
  let acc = s lsr wbits in
  Array.unsafe_set dst 6 (acc land wmask);
  reduce_final ~n ~k:7 dst (acc lsr wbits)

let mont_sqr7 ~n ~n0' ~dst a =
  let a0 = Array.unsafe_get a 0 and a1 = Array.unsafe_get a 1
  and a2 = Array.unsafe_get a 2 and a3 = Array.unsafe_get a 3
  and a4 = Array.unsafe_get a 4 and a5 = Array.unsafe_get a 5
  and a6 = Array.unsafe_get a 6 in
  let n0 = Array.unsafe_get n 0 and n1 = Array.unsafe_get n 1
  and n2 = Array.unsafe_get n 2 and n3 = Array.unsafe_get n 3
  and n4 = Array.unsafe_get n 4 and n5 = Array.unsafe_get n 5
  and n6 = Array.unsafe_get n 6 in
  let s = a0*a0 in
  let u0 = s * n0' land wmask in
  let acc = (s + u0*n0) lsr wbits in
  let s = acc + ((a0*a1) lsl 1) + u0*n1 in
  let u1 = s * n0' land wmask in
  let acc = (s + u1*n0) lsr wbits in
  let s = acc + ((a0*a2) lsl 1) + a1*a1 + u0*n2 + u1*n1 in
  let u2 = s * n0' land wmask in
  let acc = (s + u2*n0) lsr wbits in
  let s = acc + ((a0*a3 + a1*a2) lsl 1) + u0*n3 + u1*n2 + u2*n1 in
  let u3 = s * n0' land wmask in
  let acc = (s + u3*n0) lsr wbits in
  let s = acc + ((a0*a4 + a1*a3) lsl 1) + a2*a2 + u0*n4 + u1*n3 + u2*n2 + u3*n1 in
  let u4 = s * n0' land wmask in
  let acc = (s + u4*n0) lsr wbits in
  let s = acc + ((a0*a5 + a1*a4 + a2*a3) lsl 1)
          + u0*n5 + u1*n4 + u2*n3 + u3*n2 + u4*n1 in
  let u5 = s * n0' land wmask in
  let acc = (s + u5*n0) lsr wbits in
  let s = acc + ((a0*a6 + a1*a5 + a2*a4) lsl 1) + a3*a3
          + u0*n6 + u1*n5 + u2*n4 + u3*n3 + u4*n2 + u5*n1 in
  let u6 = s * n0' land wmask in
  let acc = (s + u6*n0) lsr wbits in
  let s = acc + ((a1*a6 + a2*a5 + a3*a4) lsl 1)
          + u1*n6 + u2*n5 + u3*n4 + u4*n3 + u5*n2 + u6*n1 in
  Array.unsafe_set dst 0 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + ((a2*a6 + a3*a5) lsl 1) + a4*a4
          + u2*n6 + u3*n5 + u4*n4 + u5*n3 + u6*n2 in
  Array.unsafe_set dst 1 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + ((a3*a6 + a4*a5) lsl 1) + u3*n6 + u4*n5 + u5*n4 + u6*n3 in
  Array.unsafe_set dst 2 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + ((a4*a6) lsl 1) + a5*a5 + u4*n6 + u5*n5 + u6*n4 in
  Array.unsafe_set dst 3 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + ((a5*a6) lsl 1) + u5*n6 + u6*n5 in
  Array.unsafe_set dst 4 (s land wmask);
  let acc = s lsr wbits in
  let s = acc + a6*a6 + u6*n6 in
  Array.unsafe_set dst 5 (s land wmask);
  let acc = s lsr wbits in
  Array.unsafe_set dst 6 (acc land wmask);
  reduce_final ~n ~k:7 dst (acc lsr wbits)

(* --- word-by-word REDC ----------------------------------------------------

   Reduces the value in [t] (2k+1 limbs, destroyed; limb 2k must be
   zero on entry) to t·R^{-1} mod m in the k limbs of [dst].  Row sums
   are t_i + u·n_j + c < 2^57 at any width.  For t < R·m the result is
   fully reduced; for any t < R² it is below R, a valid kernel input.
   The carry out of the top row lands in limb 2k: when the modulus
   fills its top limb (m > R/2) the result can reach [R, 2m), so that
   limb joins the final subtraction as the kernels' high unit. *)
let redc ~n ~k ~n0' ~dst t =
  for i = 0 to k - 1 do
    let u = Array.unsafe_get t i * n0' land wmask in
    let c = ref 0 in
    for j = 0 to k - 1 do
      let x = Array.unsafe_get t (i + j) + (u * Array.unsafe_get n j) + !c in
      Array.unsafe_set t (i + j) (x land wmask);
      c := x lsr wbits
    done;
    let idx = ref (i + k) in
    while !c <> 0 do
      let x = Array.unsafe_get t !idx + !c in
      Array.unsafe_set t !idx (x land wmask);
      c := x lsr wbits;
      incr idx
    done
  done;
  Array.blit t k dst 0 k;
  reduce_final ~n ~k dst (Array.unsafe_get t (2 * k))

(* --- packing ---------------------------------------------------------------- *)

(* big-endian bytes -> 28-bit limbs, low limb first; [dst] is
   overwritten completely and bits past its last limb are dropped *)
let pack_bytes_be s dst =
  Array.fill dst 0 (Array.length dst) 0;
  let nl = Array.length dst in
  let len = String.length s in
  for idx = 0 to len - 1 do
    let v = Char.code (String.unsafe_get s idx) in
    let bit = (len - 1 - idx) * 8 in
    let limb = bit / wbits and off = bit mod wbits in
    if limb < nl then begin
      dst.(limb) <- dst.(limb) lor ((v lsl off) land wmask);
      if off > wbits - 8 && limb + 1 < nl then
        dst.(limb + 1) <- dst.(limb + 1) lor (v lsr (wbits - off))
    end
  done

(* 28-bit limbs -> big-endian bytes filling [dst] exactly; limb
   content above 8*len bits must be zero (the caller guarantees the
   value fits) *)
let write_bytes_be limbs nlimbs dst =
  let len = Bytes.length dst in
  for idx = 0 to len - 1 do
    let bit = (len - 1 - idx) * 8 in
    let limb = bit / wbits and off = bit mod wbits in
    let v =
      if limb >= nlimbs then 0
      else begin
        let v = Array.unsafe_get limbs limb lsr off in
        if off > wbits - 8 && limb + 1 < nlimbs then
          v lor (Array.unsafe_get limbs (limb + 1) lsl (wbits - off))
        else v
      end
    in
    Bytes.unsafe_set dst idx (Char.unsafe_chr (v land 0xff))
  done

let pack ~k x =
  let r = Array.make k 0 in
  pack_bytes_be (B.to_bytes_be x) r;
  r

let unpack limbs =
  let k = Array.length limbs in
  let out = Bytes.create (((k * wbits) + 7) / 8) in
  write_bytes_be limbs k out;
  B.of_bytes_be (Bytes.unsafe_to_string out)

(* --- context ------------------------------------------------------------------ *)

let create ?limbs m =
  if B.sign m <= 0 then invalid_arg "Montgomery.create: modulus must be positive";
  if B.compare m B.one <= 0 then invalid_arg "Montgomery.create: modulus must exceed 1";
  if not (B.is_odd m) then invalid_arg "Montgomery.create: modulus must be odd";
  let need = (B.bit_length m + wbits - 1) / wbits in
  let k = match limbs with Some l -> max l need | None -> need in
  if k > max_limbs then invalid_arg "Montgomery.create: modulus wider than 3528 bits";
  let n = pack ~k m in
  (* Hensel lifting doubles the correct low bits per step; five
     iterations from x = 1 give 32 >= 28 *)
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := !inv * (2 - (n.(0) * !inv)) land wmask
  done;
  let pow_r e = pack ~k (B.erem (B.shift_left B.one (e * k * wbits)) m) in
  { modulus = m; n; k; n0' = (wbase - !inv) land wmask; r2 = pow_r 2; r3 = pow_r 3; one = pow_r 1 }

let limbs_of_bigint t x =
  if B.sign x < 0 || B.bit_length x > t.k * wbits then
    invalid_arg "Montgomery.limbs_of_bigint: value out of range";
  pack ~k:t.k x

(* --- precomputed exponent schedules ------------------------------------------ *)

let window_bits = 4
let table_size = 1 lsl window_bits

type schedule = {
  digits : int array; (* 4-bit window digits, most significant first *)
  s_bits : int;
  weight : int;       (* exponent popcount — picks the sparse walk *)
  exponent : B.t;     (* kept for the sparse walk's testbit scan *)
}

let schedule e =
  if B.sign e < 0 then invalid_arg "Montgomery.schedule: negative exponent";
  let bits = B.bit_length e in
  let emag = B.Internal.mag e in
  let elimbs = Array.length emag in
  let lb = B.Internal.limb_bits in
  let digit w =
    let bit = w * window_bits in
    let limb = bit / lb and off = bit mod lb in
    let v = emag.(limb) lsr off in
    let v =
      if off > lb - window_bits && limb + 1 < elimbs then
        v lor (emag.(limb + 1) lsl (lb - off))
      else v
    in
    v land (table_size - 1)
  in
  let nwin = (bits + window_bits - 1) / window_bits in
  let weight = ref 0 in
  for i = 0 to bits - 1 do
    if B.testbit e i then incr weight
  done;
  {
    digits = Array.init nwin (fun i -> digit (nwin - 1 - i));
    s_bits = bits;
    weight = !weight;
    exponent = e;
  }

(* --- reusable per-width scratch ---------------------------------------------- *)

type scratch = {
  mu : int array;           (* k: the quotient row, doubles as the width tag *)
  t0 : int array;
  t1 : int array;
  bm : int array;           (* the base in Montgomery form *)
  table : int array array;  (* 16 × k window table *)
  prod : int array;         (* 2k + 1: REDC input and the CRT product *)
}

let scratch t =
  let k = t.k in
  {
    mu = Array.make k 0;
    t0 = Array.make k 0;
    t1 = Array.make k 0;
    bm = Array.make k 0;
    table = Array.init table_size (fun _ -> Array.make k 0);
    prod = Array.make ((2 * k) + 1) 0;
  }

let check_width t sc =
  if Array.length sc.mu <> t.k then
    invalid_arg "Montgomery: scratch width does not match context"

(* width tests that branch-predict perfectly: k = 7 runs the
   straight-line kernels, k <= 63 the single-accumulator loops, wider
   moduli the folding ones *)
let mul t sc ~dst a b =
  let k = t.k in
  if k = 7 then mont_mul7 ~n:t.n ~n0':t.n0' ~dst a b
  else if k <= integrated_max_k then mont_mul_into ~n:t.n ~k ~n0':t.n0' ~mu:sc.mu ~dst a b
  else mont_mul_fold ~n:t.n ~k ~n0':t.n0' ~mu:sc.mu ~dst a b

let sqr t sc ~dst a =
  let k = t.k in
  if k = 7 then mont_sqr7 ~n:t.n ~n0':t.n0' ~dst a
  else if k <= integrated_max_k then mont_sqr_into ~n:t.n ~k ~n0':t.n0' ~mu:sc.mu ~dst a
  else mont_sqr_fold ~n:t.n ~k ~n0':t.n0' ~mu:sc.mu ~dst a

(* --- base loading -----------------------------------------------------------

   Montgomery entry without division: a k-limb value x (any value
   below R, reduced or not) enters as mul(x, R²) = x·R mod m.  A
   2k-limb value — the 384-bit EMSA block against a 192-bit CRT
   modulus — first drops below R by one REDC pass, then one multiply
   by R³ restores x·R mod m. *)
let load_base_bytes t sc s =
  check_width t sc;
  let k = t.k in
  if String.length s * 8 > 2 * k * wbits then
    invalid_arg "Montgomery.load_base_bytes: value wider than 2k limbs";
  pack_bytes_be s sc.prod;
  let wide = ref false in
  for i = k to (2 * k) - 1 do
    if Array.unsafe_get sc.prod i <> 0 then wide := true
  done;
  if not !wide then mul t sc ~dst:sc.bm sc.prod t.r2
  else begin
    redc ~n:t.n ~k ~n0':t.n0' ~dst:sc.t0 sc.prod;
    mul t sc ~dst:sc.bm sc.t0 t.r3
  end

(* --- the exponentiation walk --------------------------------------------------

   Both walks start from the base in [sc.bm] and return the buffer
   holding the Montgomery-form result. *)

(* fixed 4-bit windows: a 14-multiply table, then 4 squarings and at
   most one multiply per window *)
let window_walk t sc sched =
  let k = t.k in
  Array.blit t.one 0 sc.table.(0) 0 k;
  Array.blit sc.bm 0 sc.table.(1) 0 k;
  for i = 2 to table_size - 1 do
    mul t sc ~dst:sc.table.(i) sc.table.(i - 1) sc.bm
  done;
  let digits = sched.digits in
  Array.blit sc.table.(digits.(0)) 0 sc.t0 0 k;
  let cur = ref sc.t0 and other = ref sc.t1 in
  for w = 1 to Array.length digits - 1 do
    for _ = 1 to window_bits do
      sqr t sc ~dst:!other !cur;
      (let x = !cur in cur := !other; other := x)
    done;
    let d = digits.(w) in
    if d <> 0 then begin
      mul t sc ~dst:!other !cur sc.table.(d);
      (let x = !cur in cur := !other; other := x)
    end
  done;
  !cur

(* plain left-to-right square-and-multiply: (bits-1) squarings and
   (weight-1) multiplies, no table.  For e = 65537 that is 16 + 1
   kernel calls against the windowed walk's 16 + 14 + 4. *)
let sparse_walk t sc sched =
  let e = sched.exponent in
  Array.blit sc.bm 0 sc.t0 0 t.k;
  let cur = ref sc.t0 and other = ref sc.t1 in
  for i = sched.s_bits - 2 downto 0 do
    sqr t sc ~dst:!other !cur;
    (let x = !cur in cur := !other; other := x);
    if B.testbit e i then begin
      mul t sc ~dst:!other !cur sc.bm;
      (let x = !cur in cur := !other; other := x)
    end
  done;
  !cur

(* the sparse walk wins when its weight-1 multiplies undercut the
   windowed walk's table build plus ~bits/4 window multiplies; both
   do bits-ish squarings *)
let sparse_profitable sched =
  sched.weight - 1 < (table_size - 2) + (sched.s_bits / window_bits)

let powm_loaded t sc sched ~dst =
  check_width t sc;
  Tangled_obs.Obs.observe modpow_bits (float_of_int sched.s_bits);
  let k = t.k in
  if sched.s_bits = 0 then begin
    (* the modulus exceeds 1, so 1 is already reduced *)
    Array.fill dst 0 k 0;
    dst.(0) <- 1
  end
  else begin
    let cur =
      if sparse_profitable sched then sparse_walk t sc sched else window_walk t sc sched
    in
    (* out of Montgomery form: one REDC of the bare value *)
    Array.fill sc.prod 0 ((2 * k) + 1) 0;
    Array.blit cur 0 sc.prod 0 k;
    redc ~n:t.n ~k ~n0':t.n0' ~dst sc.prod
  end

let powm t sc sched b =
  let b =
    if B.sign b < 0 || B.bit_length b > 2 * t.k * wbits then B.erem b t.modulus else b
  in
  load_base_bytes t sc (B.to_bytes_be b);
  powm_loaded t sc sched ~dst:sc.t0;
  unpack sc.t0

let modpow t b e =
  if B.sign e < 0 then invalid_arg "Montgomery.modpow: negative exponent";
  powm t (scratch t) (schedule e) b

(* --- RSA-CRT plumbing ---------------------------------------------------------- *)

let to_mont_limbs t sc x =
  let r = Array.make t.k 0 in
  mul t sc ~dst:r x t.r2;
  r

(* sig = m2 + q·(qinv·(m1 - m2) mod p), with qinv held in Montgomery
   form so the modular multiply is one kernel call, and the final
   q-multiply a plain 2k-limb product scan with m2 folded into its low
   columns.  q < 2p, so m2 mod p is at most one subtraction away. *)
let crt_combine ~pctx ~psc ~qinv_m ~qlimbs ~m1 ~m2 ~out =
  let k = pctx.k and n = pctx.n in
  (* t0 := m2 mod p *)
  if ge_from m2 n (k - 1) then ignore (sub_limbs ~k ~dst:psc.t0 m2 n : int)
  else Array.blit m2 0 psc.t0 0 k;
  (* t1 := (m1 - t0) mod p *)
  if sub_limbs ~k ~dst:psc.t1 m1 psc.t0 <> 0 then begin
    let c = ref 0 in
    for j = 0 to k - 1 do
      let s = psc.t1.(j) + n.(j) + !c in
      psc.t1.(j) <- s land wmask;
      c := s lsr wbits
    done
  end;
  (* t0 := qinv·(m1 - m2) mod p: Montgomery-form qinv against the
     plain difference gives the plain product *)
  mul pctx psc ~dst:psc.t0 qinv_m psc.t1;
  (* prod := t0·q + m2 *)
  let prod = psc.prod and h = psc.t0 in
  let acc = ref 0 in
  for i = 0 to (2 * k) - 2 do
    let s = ref (if i < k then !acc + Array.unsafe_get m2 i else !acc) in
    for j = (if i - k + 1 > 0 then i - k + 1 else 0) to (if i < k - 1 then i else k - 1) do
      s := !s + (Array.unsafe_get h j * Array.unsafe_get qlimbs (i - j))
    done;
    Array.unsafe_set prod i (!s land wmask);
    acc := !s lsr wbits
  done;
  Array.unsafe_set prod ((2 * k) - 1) !acc;
  write_bytes_be prod (2 * k) out
