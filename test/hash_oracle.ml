(* The pre-optimisation digest cores, kept verbatim as the oracle the
   unboxed streaming implementations in lib/hash are tested against
   (the same role [Bigint.modpow] plays for the Montgomery layer).
   Boxed [Int32] arithmetic over a fully padded copy of the message:
   correct, allocation-heavy, and deliberately untouched — test_hash's
   allocation gate uses that boxing to show its probe can see it. *)

module Sha256 = struct
  let k =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
       0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
       0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
       0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
       0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
       0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
       0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
       0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
       0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

  let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
  let ( ^^ ) = Int32.logxor
  let ( &&& ) = Int32.logand
  let ( +% ) = Int32.add
  let lnot32 = Int32.lognot

  let pad msg =
    let len = String.length msg in
    let bitlen = Int64.of_int (len * 8) in
    let padlen =
      let r = (len + 1) mod 64 in
      if r <= 56 then 56 - r else 120 - r
    in
    let b = Buffer.create (len + padlen + 9) in
    Buffer.add_string b msg;
    Buffer.add_char b '\x80';
    Buffer.add_string b (String.make padlen '\x00');
    for i = 7 downto 0 do
      Buffer.add_char b
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen (8 * i)) 0xFFL)))
    done;
    Buffer.contents b

  let word data off =
    let byte i = Int32.of_int (Char.code data.[off + i]) in
    Int32.logor
      (Int32.shift_left (byte 0) 24)
      (Int32.logor (Int32.shift_left (byte 1) 16)
         (Int32.logor (Int32.shift_left (byte 2) 8) (byte 3)))

  let digest msg =
    let data = pad msg in
    let h = [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
               0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |] in
    let w = Array.make 64 0l in
    let nblocks = String.length data / 64 in
    for block = 0 to nblocks - 1 do
      let off = block * 64 in
      for t = 0 to 15 do
        w.(t) <- word data (off + (4 * t))
      done;
      for t = 16 to 63 do
        let s0 = rotr w.(t - 15) 7 ^^ rotr w.(t - 15) 18 ^^ Int32.shift_right_logical w.(t - 15) 3 in
        let s1 = rotr w.(t - 2) 17 ^^ rotr w.(t - 2) 19 ^^ Int32.shift_right_logical w.(t - 2) 10 in
        w.(t) <- w.(t - 16) +% s0 +% w.(t - 7) +% s1
      done;
      let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
      let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
      for t = 0 to 63 do
        let s1 = rotr !e 6 ^^ rotr !e 11 ^^ rotr !e 25 in
        let ch = (!e &&& !f) ^^ (lnot32 !e &&& !g) in
        let t1 = !hh +% s1 +% ch +% k.(t) +% w.(t) in
        let s0 = rotr !a 2 ^^ rotr !a 13 ^^ rotr !a 22 in
        let maj = (!a &&& !b) ^^ (!a &&& !c) ^^ (!b &&& !c) in
        let t2 = s0 +% maj in
        hh := !g;
        g := !f;
        f := !e;
        e := !d +% t1;
        d := !c;
        c := !b;
        b := !a;
        a := t1 +% t2
      done;
      h.(0) <- h.(0) +% !a;
      h.(1) <- h.(1) +% !b;
      h.(2) <- h.(2) +% !c;
      h.(3) <- h.(3) +% !d;
      h.(4) <- h.(4) +% !e;
      h.(5) <- h.(5) +% !f;
      h.(6) <- h.(6) +% !g;
      h.(7) <- h.(7) +% !hh
    done;
    let out = Bytes.create 32 in
    Array.iteri
      (fun i hi ->
        for j = 0 to 3 do
          Bytes.set out ((4 * i) + j)
            (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical hi (8 * (3 - j))) 0xFFl)))
        done)
      h;
    Bytes.unsafe_to_string out
end

module Sha1 = struct
  let rotl x n = Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))
  let ( ^^ ) = Int32.logxor
  let ( &&& ) = Int32.logand
  let ( ||| ) = Int32.logor
  let ( +% ) = Int32.add
  let lnot32 = Int32.lognot

  let pad = Sha256.pad

  let word = Sha256.word

  let digest msg =
    let data = pad msg in
    let h0 = ref 0x67452301l and h1 = ref 0xEFCDAB89l and h2 = ref 0x98BADCFEl in
    let h3 = ref 0x10325476l and h4 = ref 0xC3D2E1F0l in
    let w = Array.make 80 0l in
    let nblocks = String.length data / 64 in
    for block = 0 to nblocks - 1 do
      let off = block * 64 in
      for t = 0 to 15 do
        w.(t) <- word data (off + (4 * t))
      done;
      for t = 16 to 79 do
        w.(t) <- rotl (w.(t - 3) ^^ w.(t - 8) ^^ w.(t - 14) ^^ w.(t - 16)) 1
      done;
      let a = ref !h0 and b = ref !h1 and c = ref !h2 and d = ref !h3 and e = ref !h4 in
      for t = 0 to 79 do
        let f, kk =
          if t < 20 then ((!b &&& !c) ||| (lnot32 !b &&& !d), 0x5A827999l)
          else if t < 40 then (!b ^^ !c ^^ !d, 0x6ED9EBA1l)
          else if t < 60 then ((!b &&& !c) ||| (!b &&& !d) ||| (!c &&& !d), 0x8F1BBCDCl)
          else (!b ^^ !c ^^ !d, 0xCA62C1D6l)
        in
        let temp = rotl !a 5 +% f +% !e +% kk +% w.(t) in
        e := !d;
        d := !c;
        c := rotl !b 30;
        b := !a;
        a := temp
      done;
      h0 := !h0 +% !a;
      h1 := !h1 +% !b;
      h2 := !h2 +% !c;
      h3 := !h3 +% !d;
      h4 := !h4 +% !e
    done;
    let out = Bytes.create 20 in
    List.iteri
      (fun i hi ->
        for j = 0 to 3 do
          Bytes.set out ((4 * i) + j)
            (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical hi (8 * (3 - j))) 0xFFl)))
        done)
      [ !h0; !h1; !h2; !h3; !h4 ];
    Bytes.unsafe_to_string out
end

module Md5 = struct
  let k =
    Array.init 64 (fun i ->
        let v = Float.floor (abs_float (sin (float_of_int (i + 1))) *. 4294967296.0) in
        Int64.to_int32 (Int64.of_float v))

  let s =
    [| 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
       5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
       4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
       6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21 |]

  let rotl x n = Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))
  let ( ^^ ) = Int32.logxor
  let ( &&& ) = Int32.logand
  let ( ||| ) = Int32.logor
  let ( +% ) = Int32.add
  let lnot32 = Int32.lognot

  let pad msg =
    let len = String.length msg in
    let bitlen = Int64.of_int (len * 8) in
    let padlen =
      let r = (len + 1) mod 64 in
      if r <= 56 then 56 - r else 120 - r
    in
    let b = Buffer.create (len + padlen + 9) in
    Buffer.add_string b msg;
    Buffer.add_char b '\x80';
    Buffer.add_string b (String.make padlen '\x00');
    (* MD5 appends the length little-endian, unlike the SHA family *)
    for i = 0 to 7 do
      Buffer.add_char b
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen (8 * i)) 0xFFL)))
    done;
    Buffer.contents b

  let word_le data off =
    let byte i = Int32.of_int (Char.code data.[off + i]) in
    Int32.logor (byte 0)
      (Int32.logor (Int32.shift_left (byte 1) 8)
         (Int32.logor (Int32.shift_left (byte 2) 16) (Int32.shift_left (byte 3) 24)))

  let digest msg =
    let data = pad msg in
    let a0 = ref 0x67452301l and b0 = ref 0xefcdab89l in
    let c0 = ref 0x98badcfel and d0 = ref 0x10325476l in
    let m = Array.make 16 0l in
    let nblocks = String.length data / 64 in
    for block = 0 to nblocks - 1 do
      let off = block * 64 in
      for i = 0 to 15 do
        m.(i) <- word_le data (off + (4 * i))
      done;
      let a = ref !a0 and b = ref !b0 and c = ref !c0 and d = ref !d0 in
      for i = 0 to 63 do
        let f, g =
          if i < 16 then ((!b &&& !c) ||| (lnot32 !b &&& !d), i)
          else if i < 32 then ((!d &&& !b) ||| (lnot32 !d &&& !c), ((5 * i) + 1) mod 16)
          else if i < 48 then (!b ^^ !c ^^ !d, ((3 * i) + 5) mod 16)
          else (!c ^^ (!b ||| lnot32 !d), (7 * i) mod 16)
        in
        let f = f +% !a +% k.(i) +% m.(g) in
        a := !d;
        d := !c;
        c := !b;
        b := !b +% rotl f s.(i)
      done;
      a0 := !a0 +% !a;
      b0 := !b0 +% !b;
      c0 := !c0 +% !c;
      d0 := !d0 +% !d
    done;
    let out = Bytes.create 16 in
    List.iteri
      (fun i hi ->
        for j = 0 to 3 do
          Bytes.set out ((4 * i) + j)
            (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical hi (8 * j)) 0xFFl)))
        done)
      [ !a0; !b0; !c0; !d0 ];
    Bytes.unsafe_to_string out
end
