(* FIPS 180-4 SHA-256 on unboxed native ints.

   State and schedule words live in 63-bit [int]s masked to 32 bits, so
   the compression function is pure register arithmetic — no [Int32]
   boxing, no allocation per block.  The 64 rounds are fully unrolled
   with the sixteen schedule words held in registers (let-shadowed in
   place instead of a 64-entry array), message words are loaded eight
   bytes at a time through byte-swapped unboxed 64-bit reads, and the
   rotations use the doubled-word trick: for a 32-bit value [x],
   [r = x lor (x lsl 32)] makes every [r lsr k] (k <= 31) carry
   [rotr k x] in its low 32 bits, so a rotation is one shift instead of
   two-shifts-plus-mask.  High garbage bits flow through [+]/[lxor]
   freely (the low 32 bits of a sum depend only on the low 32 bits of
   its operands) and are cut by a single [land mask32] at each state
   assignment.  The incremental context API hashes straight out of the
   caller's buffer: full blocks are compressed in place and only a
   sub-block tail is ever copied (into the context's 64-byte carry
   buffer), so no call pads or copies the message.  The old boxed
   implementation lives on in test/hash_oracle.ml as the oracle. *)

let mask32 = 0xFFFFFFFF

external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

type ctx = {
  mutable h0 : int; mutable h1 : int; mutable h2 : int; mutable h3 : int;
  mutable h4 : int; mutable h5 : int; mutable h6 : int; mutable h7 : int;
  (* 8 state words, each < 2^32 *)
  buf : Bytes.t;  (* carry buffer for a partial trailing block *)
  mutable buflen : int;
  mutable total : int;  (* message bytes fed so far *)
}

let init () = {
  h0 = 0x6a09e667; h1 = 0xbb67ae85; h2 = 0x3c6ef372; h3 = 0xa54ff53a;
  h4 = 0x510e527f; h5 = 0x9b05688c; h6 = 0x1f83d9ab; h7 = 0x5be0cd19;
  buf = Bytes.create 64; buflen = 0; total = 0;
}

(* One compression round over the 64 bytes of [s] at [off].  Unrolled;
   generated once from the round recurrence and kept as source. *)
let compress ctx (s : string) (off : int) =
  let w0 = Int64.to_int (Int64.shift_right_logical (bswap64 (get64u s (off + 0))) 32) in
  let w1 = Int64.to_int (bswap64 (get64u s (off + 0))) land mask32 in
  let w2 = Int64.to_int (Int64.shift_right_logical (bswap64 (get64u s (off + 8))) 32) in
  let w3 = Int64.to_int (bswap64 (get64u s (off + 8))) land mask32 in
  let w4 = Int64.to_int (Int64.shift_right_logical (bswap64 (get64u s (off + 16))) 32) in
  let w5 = Int64.to_int (bswap64 (get64u s (off + 16))) land mask32 in
  let w6 = Int64.to_int (Int64.shift_right_logical (bswap64 (get64u s (off + 24))) 32) in
  let w7 = Int64.to_int (bswap64 (get64u s (off + 24))) land mask32 in
  let w8 = Int64.to_int (Int64.shift_right_logical (bswap64 (get64u s (off + 32))) 32) in
  let w9 = Int64.to_int (bswap64 (get64u s (off + 32))) land mask32 in
  let w10 = Int64.to_int (Int64.shift_right_logical (bswap64 (get64u s (off + 40))) 32) in
  let w11 = Int64.to_int (bswap64 (get64u s (off + 40))) land mask32 in
  let w12 = Int64.to_int (Int64.shift_right_logical (bswap64 (get64u s (off + 48))) 32) in
  let w13 = Int64.to_int (bswap64 (get64u s (off + 48))) land mask32 in
  let w14 = Int64.to_int (Int64.shift_right_logical (bswap64 (get64u s (off + 56))) 32) in
  let w15 = Int64.to_int (bswap64 (get64u s (off + 56))) land mask32 in
  let a = ctx.h0 and b = ctx.h1 and c = ctx.h2 and d = ctx.h3 in
  let e = ctx.h4 and f = ctx.h5 and g = ctx.h6 and h = ctx.h7 in
  let h = let re = e lor (e lsl 32) in
    h + 0x428a2f98 + w0 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (g lxor (e land (f lxor g))) in
  let d = (d + h) land mask32 in
  let h = let ra = a lor (a lsl 32) in
    (h + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((a land (b lor c)) lor (b land c))) land mask32 in
  let g = let re = d lor (d lsl 32) in
    g + 0x71374491 + w1 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (f lxor (d land (e lxor f))) in
  let c = (c + g) land mask32 in
  let g = let ra = h lor (h lsl 32) in
    (g + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((h land (a lor b)) lor (a land b))) land mask32 in
  let f = let re = c lor (c lsl 32) in
    f + 0xb5c0fbcf + w2 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (e lxor (c land (d lxor e))) in
  let b = (b + f) land mask32 in
  let f = let ra = g lor (g lsl 32) in
    (f + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((g land (h lor a)) lor (h land a))) land mask32 in
  let e = let re = b lor (b lsl 32) in
    e + 0xe9b5dba5 + w3 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (d lxor (b land (c lxor d))) in
  let a = (a + e) land mask32 in
  let e = let ra = f lor (f lsl 32) in
    (e + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((f land (g lor h)) lor (g land h))) land mask32 in
  let d = let re = a lor (a lsl 32) in
    d + 0x3956c25b + w4 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (c lxor (a land (b lxor c))) in
  let h = (h + d) land mask32 in
  let d = let ra = e lor (e lsl 32) in
    (d + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((e land (f lor g)) lor (f land g))) land mask32 in
  let c = let re = h lor (h lsl 32) in
    c + 0x59f111f1 + w5 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (b lxor (h land (a lxor b))) in
  let g = (g + c) land mask32 in
  let c = let ra = d lor (d lsl 32) in
    (c + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((d land (e lor f)) lor (e land f))) land mask32 in
  let b = let re = g lor (g lsl 32) in
    b + 0x923f82a4 + w6 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (a lxor (g land (h lxor a))) in
  let f = (f + b) land mask32 in
  let b = let ra = c lor (c lsl 32) in
    (b + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((c land (d lor e)) lor (d land e))) land mask32 in
  let a = let re = f lor (f lsl 32) in
    a + 0xab1c5ed5 + w7 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (h lxor (f land (g lxor h))) in
  let e = (e + a) land mask32 in
  let a = let ra = b lor (b lsl 32) in
    (a + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((b land (c lor d)) lor (c land d))) land mask32 in
  let h = let re = e lor (e lsl 32) in
    h + 0xd807aa98 + w8 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (g lxor (e land (f lxor g))) in
  let d = (d + h) land mask32 in
  let h = let ra = a lor (a lsl 32) in
    (h + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((a land (b lor c)) lor (b land c))) land mask32 in
  let g = let re = d lor (d lsl 32) in
    g + 0x12835b01 + w9 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (f lxor (d land (e lxor f))) in
  let c = (c + g) land mask32 in
  let g = let ra = h lor (h lsl 32) in
    (g + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((h land (a lor b)) lor (a land b))) land mask32 in
  let f = let re = c lor (c lsl 32) in
    f + 0x243185be + w10 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (e lxor (c land (d lxor e))) in
  let b = (b + f) land mask32 in
  let f = let ra = g lor (g lsl 32) in
    (f + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((g land (h lor a)) lor (h land a))) land mask32 in
  let e = let re = b lor (b lsl 32) in
    e + 0x550c7dc3 + w11 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (d lxor (b land (c lxor d))) in
  let a = (a + e) land mask32 in
  let e = let ra = f lor (f lsl 32) in
    (e + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((f land (g lor h)) lor (g land h))) land mask32 in
  let d = let re = a lor (a lsl 32) in
    d + 0x72be5d74 + w12 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (c lxor (a land (b lxor c))) in
  let h = (h + d) land mask32 in
  let d = let ra = e lor (e lsl 32) in
    (d + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((e land (f lor g)) lor (f land g))) land mask32 in
  let c = let re = h lor (h lsl 32) in
    c + 0x80deb1fe + w13 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (b lxor (h land (a lxor b))) in
  let g = (g + c) land mask32 in
  let c = let ra = d lor (d lsl 32) in
    (c + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((d land (e lor f)) lor (e land f))) land mask32 in
  let b = let re = g lor (g lsl 32) in
    b + 0x9bdc06a7 + w14 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (a lxor (g land (h lxor a))) in
  let f = (f + b) land mask32 in
  let b = let ra = c lor (c lsl 32) in
    (b + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((c land (d lor e)) lor (d land e))) land mask32 in
  let a = let re = f lor (f lsl 32) in
    a + 0xc19bf174 + w15 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (h lxor (f land (g lxor h))) in
  let e = (e + a) land mask32 in
  let a = let ra = b lor (b lsl 32) in
    (a + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((b land (c lor d)) lor (c land d))) land mask32 in
  let w0 = let r15 = w1 lor (w1 lsl 32) and r2 = w14 lor (w14 lsl 32) in
    (w0 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w1 lsr 3)) + w9
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w14 lsr 10))) land mask32 in
  let h = let re = e lor (e lsl 32) in
    h + 0xe49b69c1 + w0 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (g lxor (e land (f lxor g))) in
  let d = (d + h) land mask32 in
  let h = let ra = a lor (a lsl 32) in
    (h + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((a land (b lor c)) lor (b land c))) land mask32 in
  let w1 = let r15 = w2 lor (w2 lsl 32) and r2 = w15 lor (w15 lsl 32) in
    (w1 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w2 lsr 3)) + w10
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w15 lsr 10))) land mask32 in
  let g = let re = d lor (d lsl 32) in
    g + 0xefbe4786 + w1 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (f lxor (d land (e lxor f))) in
  let c = (c + g) land mask32 in
  let g = let ra = h lor (h lsl 32) in
    (g + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((h land (a lor b)) lor (a land b))) land mask32 in
  let w2 = let r15 = w3 lor (w3 lsl 32) and r2 = w0 lor (w0 lsl 32) in
    (w2 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w3 lsr 3)) + w11
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w0 lsr 10))) land mask32 in
  let f = let re = c lor (c lsl 32) in
    f + 0x0fc19dc6 + w2 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (e lxor (c land (d lxor e))) in
  let b = (b + f) land mask32 in
  let f = let ra = g lor (g lsl 32) in
    (f + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((g land (h lor a)) lor (h land a))) land mask32 in
  let w3 = let r15 = w4 lor (w4 lsl 32) and r2 = w1 lor (w1 lsl 32) in
    (w3 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w4 lsr 3)) + w12
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w1 lsr 10))) land mask32 in
  let e = let re = b lor (b lsl 32) in
    e + 0x240ca1cc + w3 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (d lxor (b land (c lxor d))) in
  let a = (a + e) land mask32 in
  let e = let ra = f lor (f lsl 32) in
    (e + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((f land (g lor h)) lor (g land h))) land mask32 in
  let w4 = let r15 = w5 lor (w5 lsl 32) and r2 = w2 lor (w2 lsl 32) in
    (w4 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w5 lsr 3)) + w13
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w2 lsr 10))) land mask32 in
  let d = let re = a lor (a lsl 32) in
    d + 0x2de92c6f + w4 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (c lxor (a land (b lxor c))) in
  let h = (h + d) land mask32 in
  let d = let ra = e lor (e lsl 32) in
    (d + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((e land (f lor g)) lor (f land g))) land mask32 in
  let w5 = let r15 = w6 lor (w6 lsl 32) and r2 = w3 lor (w3 lsl 32) in
    (w5 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w6 lsr 3)) + w14
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w3 lsr 10))) land mask32 in
  let c = let re = h lor (h lsl 32) in
    c + 0x4a7484aa + w5 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (b lxor (h land (a lxor b))) in
  let g = (g + c) land mask32 in
  let c = let ra = d lor (d lsl 32) in
    (c + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((d land (e lor f)) lor (e land f))) land mask32 in
  let w6 = let r15 = w7 lor (w7 lsl 32) and r2 = w4 lor (w4 lsl 32) in
    (w6 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w7 lsr 3)) + w15
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w4 lsr 10))) land mask32 in
  let b = let re = g lor (g lsl 32) in
    b + 0x5cb0a9dc + w6 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (a lxor (g land (h lxor a))) in
  let f = (f + b) land mask32 in
  let b = let ra = c lor (c lsl 32) in
    (b + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((c land (d lor e)) lor (d land e))) land mask32 in
  let w7 = let r15 = w8 lor (w8 lsl 32) and r2 = w5 lor (w5 lsl 32) in
    (w7 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w8 lsr 3)) + w0
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w5 lsr 10))) land mask32 in
  let a = let re = f lor (f lsl 32) in
    a + 0x76f988da + w7 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (h lxor (f land (g lxor h))) in
  let e = (e + a) land mask32 in
  let a = let ra = b lor (b lsl 32) in
    (a + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((b land (c lor d)) lor (c land d))) land mask32 in
  let w8 = let r15 = w9 lor (w9 lsl 32) and r2 = w6 lor (w6 lsl 32) in
    (w8 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w9 lsr 3)) + w1
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w6 lsr 10))) land mask32 in
  let h = let re = e lor (e lsl 32) in
    h + 0x983e5152 + w8 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (g lxor (e land (f lxor g))) in
  let d = (d + h) land mask32 in
  let h = let ra = a lor (a lsl 32) in
    (h + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((a land (b lor c)) lor (b land c))) land mask32 in
  let w9 = let r15 = w10 lor (w10 lsl 32) and r2 = w7 lor (w7 lsl 32) in
    (w9 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w10 lsr 3)) + w2
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w7 lsr 10))) land mask32 in
  let g = let re = d lor (d lsl 32) in
    g + 0xa831c66d + w9 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (f lxor (d land (e lxor f))) in
  let c = (c + g) land mask32 in
  let g = let ra = h lor (h lsl 32) in
    (g + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((h land (a lor b)) lor (a land b))) land mask32 in
  let w10 = let r15 = w11 lor (w11 lsl 32) and r2 = w8 lor (w8 lsl 32) in
    (w10 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w11 lsr 3)) + w3
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w8 lsr 10))) land mask32 in
  let f = let re = c lor (c lsl 32) in
    f + 0xb00327c8 + w10 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (e lxor (c land (d lxor e))) in
  let b = (b + f) land mask32 in
  let f = let ra = g lor (g lsl 32) in
    (f + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((g land (h lor a)) lor (h land a))) land mask32 in
  let w11 = let r15 = w12 lor (w12 lsl 32) and r2 = w9 lor (w9 lsl 32) in
    (w11 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w12 lsr 3)) + w4
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w9 lsr 10))) land mask32 in
  let e = let re = b lor (b lsl 32) in
    e + 0xbf597fc7 + w11 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (d lxor (b land (c lxor d))) in
  let a = (a + e) land mask32 in
  let e = let ra = f lor (f lsl 32) in
    (e + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((f land (g lor h)) lor (g land h))) land mask32 in
  let w12 = let r15 = w13 lor (w13 lsl 32) and r2 = w10 lor (w10 lsl 32) in
    (w12 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w13 lsr 3)) + w5
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w10 lsr 10))) land mask32 in
  let d = let re = a lor (a lsl 32) in
    d + 0xc6e00bf3 + w12 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (c lxor (a land (b lxor c))) in
  let h = (h + d) land mask32 in
  let d = let ra = e lor (e lsl 32) in
    (d + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((e land (f lor g)) lor (f land g))) land mask32 in
  let w13 = let r15 = w14 lor (w14 lsl 32) and r2 = w11 lor (w11 lsl 32) in
    (w13 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w14 lsr 3)) + w6
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w11 lsr 10))) land mask32 in
  let c = let re = h lor (h lsl 32) in
    c + 0xd5a79147 + w13 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (b lxor (h land (a lxor b))) in
  let g = (g + c) land mask32 in
  let c = let ra = d lor (d lsl 32) in
    (c + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((d land (e lor f)) lor (e land f))) land mask32 in
  let w14 = let r15 = w15 lor (w15 lsl 32) and r2 = w12 lor (w12 lsl 32) in
    (w14 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w15 lsr 3)) + w7
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w12 lsr 10))) land mask32 in
  let b = let re = g lor (g lsl 32) in
    b + 0x06ca6351 + w14 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (a lxor (g land (h lxor a))) in
  let f = (f + b) land mask32 in
  let b = let ra = c lor (c lsl 32) in
    (b + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((c land (d lor e)) lor (d land e))) land mask32 in
  let w15 = let r15 = w0 lor (w0 lsl 32) and r2 = w13 lor (w13 lsl 32) in
    (w15 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w0 lsr 3)) + w8
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w13 lsr 10))) land mask32 in
  let a = let re = f lor (f lsl 32) in
    a + 0x14292967 + w15 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (h lxor (f land (g lxor h))) in
  let e = (e + a) land mask32 in
  let a = let ra = b lor (b lsl 32) in
    (a + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((b land (c lor d)) lor (c land d))) land mask32 in
  let w0 = let r15 = w1 lor (w1 lsl 32) and r2 = w14 lor (w14 lsl 32) in
    (w0 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w1 lsr 3)) + w9
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w14 lsr 10))) land mask32 in
  let h = let re = e lor (e lsl 32) in
    h + 0x27b70a85 + w0 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (g lxor (e land (f lxor g))) in
  let d = (d + h) land mask32 in
  let h = let ra = a lor (a lsl 32) in
    (h + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((a land (b lor c)) lor (b land c))) land mask32 in
  let w1 = let r15 = w2 lor (w2 lsl 32) and r2 = w15 lor (w15 lsl 32) in
    (w1 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w2 lsr 3)) + w10
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w15 lsr 10))) land mask32 in
  let g = let re = d lor (d lsl 32) in
    g + 0x2e1b2138 + w1 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (f lxor (d land (e lxor f))) in
  let c = (c + g) land mask32 in
  let g = let ra = h lor (h lsl 32) in
    (g + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((h land (a lor b)) lor (a land b))) land mask32 in
  let w2 = let r15 = w3 lor (w3 lsl 32) and r2 = w0 lor (w0 lsl 32) in
    (w2 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w3 lsr 3)) + w11
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w0 lsr 10))) land mask32 in
  let f = let re = c lor (c lsl 32) in
    f + 0x4d2c6dfc + w2 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (e lxor (c land (d lxor e))) in
  let b = (b + f) land mask32 in
  let f = let ra = g lor (g lsl 32) in
    (f + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((g land (h lor a)) lor (h land a))) land mask32 in
  let w3 = let r15 = w4 lor (w4 lsl 32) and r2 = w1 lor (w1 lsl 32) in
    (w3 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w4 lsr 3)) + w12
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w1 lsr 10))) land mask32 in
  let e = let re = b lor (b lsl 32) in
    e + 0x53380d13 + w3 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (d lxor (b land (c lxor d))) in
  let a = (a + e) land mask32 in
  let e = let ra = f lor (f lsl 32) in
    (e + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((f land (g lor h)) lor (g land h))) land mask32 in
  let w4 = let r15 = w5 lor (w5 lsl 32) and r2 = w2 lor (w2 lsl 32) in
    (w4 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w5 lsr 3)) + w13
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w2 lsr 10))) land mask32 in
  let d = let re = a lor (a lsl 32) in
    d + 0x650a7354 + w4 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (c lxor (a land (b lxor c))) in
  let h = (h + d) land mask32 in
  let d = let ra = e lor (e lsl 32) in
    (d + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((e land (f lor g)) lor (f land g))) land mask32 in
  let w5 = let r15 = w6 lor (w6 lsl 32) and r2 = w3 lor (w3 lsl 32) in
    (w5 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w6 lsr 3)) + w14
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w3 lsr 10))) land mask32 in
  let c = let re = h lor (h lsl 32) in
    c + 0x766a0abb + w5 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (b lxor (h land (a lxor b))) in
  let g = (g + c) land mask32 in
  let c = let ra = d lor (d lsl 32) in
    (c + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((d land (e lor f)) lor (e land f))) land mask32 in
  let w6 = let r15 = w7 lor (w7 lsl 32) and r2 = w4 lor (w4 lsl 32) in
    (w6 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w7 lsr 3)) + w15
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w4 lsr 10))) land mask32 in
  let b = let re = g lor (g lsl 32) in
    b + 0x81c2c92e + w6 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (a lxor (g land (h lxor a))) in
  let f = (f + b) land mask32 in
  let b = let ra = c lor (c lsl 32) in
    (b + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((c land (d lor e)) lor (d land e))) land mask32 in
  let w7 = let r15 = w8 lor (w8 lsl 32) and r2 = w5 lor (w5 lsl 32) in
    (w7 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w8 lsr 3)) + w0
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w5 lsr 10))) land mask32 in
  let a = let re = f lor (f lsl 32) in
    a + 0x92722c85 + w7 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (h lxor (f land (g lxor h))) in
  let e = (e + a) land mask32 in
  let a = let ra = b lor (b lsl 32) in
    (a + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((b land (c lor d)) lor (c land d))) land mask32 in
  let w8 = let r15 = w9 lor (w9 lsl 32) and r2 = w6 lor (w6 lsl 32) in
    (w8 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w9 lsr 3)) + w1
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w6 lsr 10))) land mask32 in
  let h = let re = e lor (e lsl 32) in
    h + 0xa2bfe8a1 + w8 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (g lxor (e land (f lxor g))) in
  let d = (d + h) land mask32 in
  let h = let ra = a lor (a lsl 32) in
    (h + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((a land (b lor c)) lor (b land c))) land mask32 in
  let w9 = let r15 = w10 lor (w10 lsl 32) and r2 = w7 lor (w7 lsl 32) in
    (w9 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w10 lsr 3)) + w2
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w7 lsr 10))) land mask32 in
  let g = let re = d lor (d lsl 32) in
    g + 0xa81a664b + w9 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (f lxor (d land (e lxor f))) in
  let c = (c + g) land mask32 in
  let g = let ra = h lor (h lsl 32) in
    (g + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((h land (a lor b)) lor (a land b))) land mask32 in
  let w10 = let r15 = w11 lor (w11 lsl 32) and r2 = w8 lor (w8 lsl 32) in
    (w10 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w11 lsr 3)) + w3
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w8 lsr 10))) land mask32 in
  let f = let re = c lor (c lsl 32) in
    f + 0xc24b8b70 + w10 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (e lxor (c land (d lxor e))) in
  let b = (b + f) land mask32 in
  let f = let ra = g lor (g lsl 32) in
    (f + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((g land (h lor a)) lor (h land a))) land mask32 in
  let w11 = let r15 = w12 lor (w12 lsl 32) and r2 = w9 lor (w9 lsl 32) in
    (w11 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w12 lsr 3)) + w4
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w9 lsr 10))) land mask32 in
  let e = let re = b lor (b lsl 32) in
    e + 0xc76c51a3 + w11 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (d lxor (b land (c lxor d))) in
  let a = (a + e) land mask32 in
  let e = let ra = f lor (f lsl 32) in
    (e + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((f land (g lor h)) lor (g land h))) land mask32 in
  let w12 = let r15 = w13 lor (w13 lsl 32) and r2 = w10 lor (w10 lsl 32) in
    (w12 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w13 lsr 3)) + w5
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w10 lsr 10))) land mask32 in
  let d = let re = a lor (a lsl 32) in
    d + 0xd192e819 + w12 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (c lxor (a land (b lxor c))) in
  let h = (h + d) land mask32 in
  let d = let ra = e lor (e lsl 32) in
    (d + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((e land (f lor g)) lor (f land g))) land mask32 in
  let w13 = let r15 = w14 lor (w14 lsl 32) and r2 = w11 lor (w11 lsl 32) in
    (w13 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w14 lsr 3)) + w6
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w11 lsr 10))) land mask32 in
  let c = let re = h lor (h lsl 32) in
    c + 0xd6990624 + w13 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (b lxor (h land (a lxor b))) in
  let g = (g + c) land mask32 in
  let c = let ra = d lor (d lsl 32) in
    (c + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((d land (e lor f)) lor (e land f))) land mask32 in
  let w14 = let r15 = w15 lor (w15 lsl 32) and r2 = w12 lor (w12 lsl 32) in
    (w14 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w15 lsr 3)) + w7
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w12 lsr 10))) land mask32 in
  let b = let re = g lor (g lsl 32) in
    b + 0xf40e3585 + w14 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (a lxor (g land (h lxor a))) in
  let f = (f + b) land mask32 in
  let b = let ra = c lor (c lsl 32) in
    (b + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((c land (d lor e)) lor (d land e))) land mask32 in
  let w15 = let r15 = w0 lor (w0 lsl 32) and r2 = w13 lor (w13 lsl 32) in
    (w15 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w0 lsr 3)) + w8
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w13 lsr 10))) land mask32 in
  let a = let re = f lor (f lsl 32) in
    a + 0x106aa070 + w15 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (h lxor (f land (g lxor h))) in
  let e = (e + a) land mask32 in
  let a = let ra = b lor (b lsl 32) in
    (a + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((b land (c lor d)) lor (c land d))) land mask32 in
  let w0 = let r15 = w1 lor (w1 lsl 32) and r2 = w14 lor (w14 lsl 32) in
    (w0 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w1 lsr 3)) + w9
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w14 lsr 10))) land mask32 in
  let h = let re = e lor (e lsl 32) in
    h + 0x19a4c116 + w0 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (g lxor (e land (f lxor g))) in
  let d = (d + h) land mask32 in
  let h = let ra = a lor (a lsl 32) in
    (h + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((a land (b lor c)) lor (b land c))) land mask32 in
  let w1 = let r15 = w2 lor (w2 lsl 32) and r2 = w15 lor (w15 lsl 32) in
    (w1 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w2 lsr 3)) + w10
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w15 lsr 10))) land mask32 in
  let g = let re = d lor (d lsl 32) in
    g + 0x1e376c08 + w1 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (f lxor (d land (e lxor f))) in
  let c = (c + g) land mask32 in
  let g = let ra = h lor (h lsl 32) in
    (g + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((h land (a lor b)) lor (a land b))) land mask32 in
  let w2 = let r15 = w3 lor (w3 lsl 32) and r2 = w0 lor (w0 lsl 32) in
    (w2 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w3 lsr 3)) + w11
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w0 lsr 10))) land mask32 in
  let f = let re = c lor (c lsl 32) in
    f + 0x2748774c + w2 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (e lxor (c land (d lxor e))) in
  let b = (b + f) land mask32 in
  let f = let ra = g lor (g lsl 32) in
    (f + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((g land (h lor a)) lor (h land a))) land mask32 in
  let w3 = let r15 = w4 lor (w4 lsl 32) and r2 = w1 lor (w1 lsl 32) in
    (w3 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w4 lsr 3)) + w12
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w1 lsr 10))) land mask32 in
  let e = let re = b lor (b lsl 32) in
    e + 0x34b0bcb5 + w3 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (d lxor (b land (c lxor d))) in
  let a = (a + e) land mask32 in
  let e = let ra = f lor (f lsl 32) in
    (e + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((f land (g lor h)) lor (g land h))) land mask32 in
  let w4 = let r15 = w5 lor (w5 lsl 32) and r2 = w2 lor (w2 lsl 32) in
    (w4 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w5 lsr 3)) + w13
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w2 lsr 10))) land mask32 in
  let d = let re = a lor (a lsl 32) in
    d + 0x391c0cb3 + w4 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (c lxor (a land (b lxor c))) in
  let h = (h + d) land mask32 in
  let d = let ra = e lor (e lsl 32) in
    (d + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((e land (f lor g)) lor (f land g))) land mask32 in
  let w5 = let r15 = w6 lor (w6 lsl 32) and r2 = w3 lor (w3 lsl 32) in
    (w5 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w6 lsr 3)) + w14
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w3 lsr 10))) land mask32 in
  let c = let re = h lor (h lsl 32) in
    c + 0x4ed8aa4a + w5 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (b lxor (h land (a lxor b))) in
  let g = (g + c) land mask32 in
  let c = let ra = d lor (d lsl 32) in
    (c + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((d land (e lor f)) lor (e land f))) land mask32 in
  let w6 = let r15 = w7 lor (w7 lsl 32) and r2 = w4 lor (w4 lsl 32) in
    (w6 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w7 lsr 3)) + w15
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w4 lsr 10))) land mask32 in
  let b = let re = g lor (g lsl 32) in
    b + 0x5b9cca4f + w6 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (a lxor (g land (h lxor a))) in
  let f = (f + b) land mask32 in
  let b = let ra = c lor (c lsl 32) in
    (b + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((c land (d lor e)) lor (d land e))) land mask32 in
  let w7 = let r15 = w8 lor (w8 lsl 32) and r2 = w5 lor (w5 lsl 32) in
    (w7 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w8 lsr 3)) + w0
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w5 lsr 10))) land mask32 in
  let a = let re = f lor (f lsl 32) in
    a + 0x682e6ff3 + w7 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (h lxor (f land (g lxor h))) in
  let e = (e + a) land mask32 in
  let a = let ra = b lor (b lsl 32) in
    (a + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((b land (c lor d)) lor (c land d))) land mask32 in
  let w8 = let r15 = w9 lor (w9 lsl 32) and r2 = w6 lor (w6 lsl 32) in
    (w8 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w9 lsr 3)) + w1
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w6 lsr 10))) land mask32 in
  let h = let re = e lor (e lsl 32) in
    h + 0x748f82ee + w8 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (g lxor (e land (f lxor g))) in
  let d = (d + h) land mask32 in
  let h = let ra = a lor (a lsl 32) in
    (h + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((a land (b lor c)) lor (b land c))) land mask32 in
  let w9 = let r15 = w10 lor (w10 lsl 32) and r2 = w7 lor (w7 lsl 32) in
    (w9 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w10 lsr 3)) + w2
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w7 lsr 10))) land mask32 in
  let g = let re = d lor (d lsl 32) in
    g + 0x78a5636f + w9 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (f lxor (d land (e lxor f))) in
  let c = (c + g) land mask32 in
  let g = let ra = h lor (h lsl 32) in
    (g + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((h land (a lor b)) lor (a land b))) land mask32 in
  let w10 = let r15 = w11 lor (w11 lsl 32) and r2 = w8 lor (w8 lsl 32) in
    (w10 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w11 lsr 3)) + w3
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w8 lsr 10))) land mask32 in
  let f = let re = c lor (c lsl 32) in
    f + 0x84c87814 + w10 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (e lxor (c land (d lxor e))) in
  let b = (b + f) land mask32 in
  let f = let ra = g lor (g lsl 32) in
    (f + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((g land (h lor a)) lor (h land a))) land mask32 in
  let w11 = let r15 = w12 lor (w12 lsl 32) and r2 = w9 lor (w9 lsl 32) in
    (w11 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w12 lsr 3)) + w4
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w9 lsr 10))) land mask32 in
  let e = let re = b lor (b lsl 32) in
    e + 0x8cc70208 + w11 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (d lxor (b land (c lxor d))) in
  let a = (a + e) land mask32 in
  let e = let ra = f lor (f lsl 32) in
    (e + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((f land (g lor h)) lor (g land h))) land mask32 in
  let w12 = let r15 = w13 lor (w13 lsl 32) and r2 = w10 lor (w10 lsl 32) in
    (w12 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w13 lsr 3)) + w5
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w10 lsr 10))) land mask32 in
  let d = let re = a lor (a lsl 32) in
    d + 0x90befffa + w12 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (c lxor (a land (b lxor c))) in
  let h = (h + d) land mask32 in
  let d = let ra = e lor (e lsl 32) in
    (d + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((e land (f lor g)) lor (f land g))) land mask32 in
  let w13 = let r15 = w14 lor (w14 lsl 32) and r2 = w11 lor (w11 lsl 32) in
    (w13 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w14 lsr 3)) + w6
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w11 lsr 10))) land mask32 in
  let c = let re = h lor (h lsl 32) in
    c + 0xa4506ceb + w13 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (b lxor (h land (a lxor b))) in
  let g = (g + c) land mask32 in
  let c = let ra = d lor (d lsl 32) in
    (c + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((d land (e lor f)) lor (e land f))) land mask32 in
  let w14 = let r15 = w15 lor (w15 lsl 32) and r2 = w12 lor (w12 lsl 32) in
    (w14 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w15 lsr 3)) + w7
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w12 lsr 10))) land mask32 in
  let b = let re = g lor (g lsl 32) in
    b + 0xbef9a3f7 + w14 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (a lxor (g land (h lxor a))) in
  let f = (f + b) land mask32 in
  let b = let ra = c lor (c lsl 32) in
    (b + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((c land (d lor e)) lor (d land e))) land mask32 in
  let w15 = let r15 = w0 lor (w0 lsl 32) and r2 = w13 lor (w13 lsl 32) in
    (w15 + ((r15 lsr 7) lxor (r15 lsr 18) lxor (w0 lsr 3)) + w8
     + ((r2 lsr 17) lxor (r2 lsr 19) lxor (w13 lsr 10))) land mask32 in
  let a = let re = f lor (f lsl 32) in
    a + 0xc67178f2 + w15 + ((re lsr 6) lxor (re lsr 11) lxor (re lsr 25))
    + (h lxor (f land (g lxor h))) in
  let e = (e + a) land mask32 in
  let a = let ra = b lor (b lsl 32) in
    (a + ((ra lsr 2) lxor (ra lsr 13) lxor (ra lsr 22))
     + ((b land (c lor d)) lor (c land d))) land mask32 in
  ctx.h0 <- (ctx.h0 + a) land mask32;
  ctx.h1 <- (ctx.h1 + b) land mask32;
  ctx.h2 <- (ctx.h2 + c) land mask32;
  ctx.h3 <- (ctx.h3 + d) land mask32;
  ctx.h4 <- (ctx.h4 + e) land mask32;
  ctx.h5 <- (ctx.h5 + f) land mask32;
  ctx.h6 <- (ctx.h6 + g) land mask32;
  ctx.h7 <- (ctx.h7 + h) land mask32

let feed_sub ctx s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.feed_sub: range out of bounds";
  ctx.total <- ctx.total + len;
  let off = ref off and len = ref len in
  if ctx.buflen > 0 then begin
    let take = Stdlib.min (64 - ctx.buflen) !len in
    Bytes.blit_string s !off ctx.buf ctx.buflen take;
    ctx.buflen <- ctx.buflen + take;
    off := !off + take;
    len := !len - take;
    if ctx.buflen = 64 then begin
      compress ctx (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buflen <- 0
    end
  end;
  while !len >= 64 do
    compress ctx s !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit_string s !off ctx.buf 0 !len;
    ctx.buflen <- !len
  end

let feed ctx s = feed_sub ctx s ~off:0 ~len:(String.length s)

let finalize ctx =
  let bitlen = ctx.total * 8 in
  let rem = ctx.buflen in
  (* pad into a scratch of one or two blocks; the message itself is
     never copied again *)
  let scratch = Bytes.make (if rem < 56 then 64 else 128) '\x00' in
  Bytes.blit ctx.buf 0 scratch 0 rem;
  Bytes.set scratch rem '\x80';
  let n = Bytes.length scratch in
  for i = 0 to 7 do
    Bytes.set scratch (n - 1 - i) (Char.unsafe_chr ((bitlen lsr (8 * i)) land 0xff))
  done;
  let s = Bytes.unsafe_to_string scratch in
  compress ctx s 0;
  if n = 128 then compress ctx s 64;
  ctx.buflen <- 0;
  let out = Bytes.create 32 in
  let put i v =
    Bytes.unsafe_set out i (Char.unsafe_chr (v lsr 24));
    Bytes.unsafe_set out (i + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set out (i + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set out (i + 3) (Char.unsafe_chr (v land 0xff))
  in
  put 0 ctx.h0; put 4 ctx.h1; put 8 ctx.h2; put 12 ctx.h3;
  put 16 ctx.h4; put 20 ctx.h5; put 24 ctx.h6; put 28 ctx.h7;
  Bytes.unsafe_to_string out

let digest msg =
  let ctx = init () in
  feed ctx msg;
  finalize ctx

let hex msg = Tangled_util.Hex.encode (digest msg)
