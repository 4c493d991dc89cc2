(* RFC 1321 MD5 on unboxed native ints (little-endian message layout);
   same streaming-context design as {!Sha256}.  The sine-derived
   constant table is computed at load time from the spec's defining
   formula rather than transcribed.  The old boxed implementation
   lives on in test/hash_oracle.ml as the oracle, and test_hash pins
   this core at zero minor-heap words per block. *)

let mask32 = 0xFFFFFFFF

let k =
  Array.init 64 (fun i ->
      let v = Float.floor (abs_float (sin (float_of_int (i + 1))) *. 4294967296.0) in
      Int64.to_int (Int64.of_float v) land mask32)

let s =
  [| 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
     5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
     4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
     6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21 |]

type ctx = {
  h : int array;  (* a0 b0 c0 d0 *)
  m : int array;  (* 16-word block, reused *)
  buf : Bytes.t;
  mutable buflen : int;
  mutable total : int;
}

let init () =
  {
    h = [| 0x67452301; 0xefcdab89; 0x98badcfe; 0x10325476 |];
    m = Array.make 16 0;
    buf = Bytes.create 64;
    buflen = 0;
    total = 0;
  }

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let compress ctx str off =
  let m = ctx.m and h = ctx.h in
  for i = 0 to 15 do
    let j = off + (4 * i) in
    Array.unsafe_set m i
      (Char.code (String.unsafe_get str j)
      lor (Char.code (String.unsafe_get str (j + 1)) lsl 8)
      lor (Char.code (String.unsafe_get str (j + 2)) lsl 16)
      lor (Char.code (String.unsafe_get str (j + 3)) lsl 24))
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  (* Four unrolled 16-round passes, one per round function, so no round
     branches on its index. *)
  for i = 0 to 15 do
    let bv = !b and dv = !d in
    let f = (bv land !c) lor (lnot bv land mask32 land dv) in
    let f =
      (f + !a + Array.unsafe_get k i + Array.unsafe_get m i) land mask32
    in
    a := dv;
    d := !c;
    c := bv;
    b := (bv + rotl f (Array.unsafe_get s i)) land mask32
  done;
  for i = 16 to 31 do
    let bv = !b and dv = !d in
    let f = (dv land bv) lor (lnot dv land mask32 land !c) in
    let g = ((5 * i) + 1) mod 16 in
    let f =
      (f + !a + Array.unsafe_get k i + Array.unsafe_get m g) land mask32
    in
    a := dv;
    d := !c;
    c := bv;
    b := (bv + rotl f (Array.unsafe_get s i)) land mask32
  done;
  for i = 32 to 47 do
    let bv = !b and dv = !d in
    let f = bv lxor !c lxor dv in
    let g = ((3 * i) + 5) mod 16 in
    let f =
      (f + !a + Array.unsafe_get k i + Array.unsafe_get m g) land mask32
    in
    a := dv;
    d := !c;
    c := bv;
    b := (bv + rotl f (Array.unsafe_get s i)) land mask32
  done;
  for i = 48 to 63 do
    let bv = !b and dv = !d in
    let f = !c lxor (bv lor (lnot dv land mask32)) in
    let g = (7 * i) mod 16 in
    let f =
      (f + !a + Array.unsafe_get k i + Array.unsafe_get m g) land mask32
    in
    a := dv;
    d := !c;
    c := bv;
    b := (bv + rotl f (Array.unsafe_get s i)) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32

let feed_sub ctx str ~off ~len =
  if off < 0 || len < 0 || off > String.length str - len then
    invalid_arg "Md5.feed_sub: range out of bounds";
  ctx.total <- ctx.total + len;
  let off = ref off and len = ref len in
  if ctx.buflen > 0 then begin
    let take = Stdlib.min (64 - ctx.buflen) !len in
    Bytes.blit_string str !off ctx.buf ctx.buflen take;
    ctx.buflen <- ctx.buflen + take;
    off := !off + take;
    len := !len - take;
    if ctx.buflen = 64 then begin
      compress ctx (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buflen <- 0
    end
  end;
  while !len >= 64 do
    compress ctx str !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit_string str !off ctx.buf 0 !len;
    ctx.buflen <- !len
  end

let feed ctx str = feed_sub ctx str ~off:0 ~len:(String.length str)

let finalize ctx =
  let bitlen = ctx.total * 8 in
  let rem = ctx.buflen in
  let scratch = Bytes.make (if rem < 56 then 64 else 128) '\x00' in
  Bytes.blit ctx.buf 0 scratch 0 rem;
  Bytes.set scratch rem '\x80';
  let n = Bytes.length scratch in
  (* MD5 appends the length little-endian, unlike the SHA family *)
  for i = 0 to 7 do
    Bytes.set scratch (n - 8 + i) (Char.unsafe_chr ((bitlen lsr (8 * i)) land 0xff))
  done;
  let str = Bytes.unsafe_to_string scratch in
  compress ctx str 0;
  if n = 128 then compress ctx str 64;
  ctx.buflen <- 0;
  let out = Bytes.create 16 in
  for i = 0 to 3 do
    let hi = ctx.h.(i) in
    Bytes.unsafe_set out (4 * i) (Char.unsafe_chr (hi land 0xff));
    Bytes.unsafe_set out ((4 * i) + 1) (Char.unsafe_chr ((hi lsr 8) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 2) (Char.unsafe_chr ((hi lsr 16) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 3) (Char.unsafe_chr ((hi lsr 24) land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest msg =
  let ctx = init () in
  feed ctx msg;
  finalize ctx

let hex msg = Tangled_util.Hex.encode (digest msg)
