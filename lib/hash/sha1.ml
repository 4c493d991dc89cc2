(* FIPS 180-4 SHA-1 on unboxed native ints; same streaming-context
   design as {!Sha256} (32-bit values in 63-bit ints, unsafe char
   loads, only a sub-block tail ever copied).  The old boxed
   implementation lives on in test/hash_oracle.ml as the oracle. *)

let mask32 = 0xFFFFFFFF

type ctx = {
  h : int array;  (* 5 state words *)
  w : int array;  (* 80-entry schedule, reused every block *)
  buf : Bytes.t;
  mutable buflen : int;
  mutable total : int;
}

let init () =
  {
    h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |];
    w = Array.make 80 0;
    buf = Bytes.create 64;
    buflen = 0;
    total = 0;
  }

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let compress ctx s off =
  let w = ctx.w and h = ctx.h in
  for t = 0 to 15 do
    let j = off + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (String.unsafe_get s j) lsl 24)
      lor (Char.code (String.unsafe_get s (j + 1)) lsl 16)
      lor (Char.code (String.unsafe_get s (j + 2)) lsl 8)
      lor Char.code (String.unsafe_get s (j + 3)))
  done;
  for t = 16 to 79 do
    Array.unsafe_set w t
      (rotl
         (Array.unsafe_get w (t - 3)
         lxor Array.unsafe_get w (t - 8)
         lxor Array.unsafe_get w (t - 14)
         lxor Array.unsafe_get w (t - 16))
         1)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) in
  for t = 0 to 79 do
    let bv = !b in
    let f, kk =
      if t < 20 then ((bv land !c) lor (lnot bv land mask32 land !d), 0x5A827999)
      else if t < 40 then (bv lxor !c lxor !d, 0x6ED9EBA1)
      else if t < 60 then ((bv land !c) lor (bv land !d) lor (!c land !d), 0x8F1BBCDC)
      else (bv lxor !c lxor !d, 0xCA62C1D6)
    in
    let temp = (rotl !a 5 + f + !e + kk + Array.unsafe_get w t) land mask32 in
    e := !d;
    d := !c;
    c := rotl bv 30;
    b := !a;
    a := temp
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32

let feed_sub ctx s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha1.feed_sub: range out of bounds";
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
  let out = Bytes.create 20 in
  for i = 0 to 4 do
    let hi = ctx.h.(i) in
    Bytes.unsafe_set out (4 * i) (Char.unsafe_chr (hi lsr 24));
    Bytes.unsafe_set out ((4 * i) + 1) (Char.unsafe_chr ((hi lsr 16) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 2) (Char.unsafe_chr ((hi lsr 8) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 3) (Char.unsafe_chr (hi land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest msg =
  let ctx = init () in
  feed ctx msg;
  finalize ctx

let hex msg = Tangled_util.Hex.encode (digest msg)
