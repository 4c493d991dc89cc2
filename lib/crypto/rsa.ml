module B = Tangled_numeric.Bigint
module Mont = Tangled_numeric.Montgomery
module Prime = Tangled_numeric.Prime
module Prng = Tangled_util.Prng
module Dk = Tangled_hash.Digest_kind
module Cache = Tangled_cache.Cache

type public = {
  n : B.t;
  e : B.t;
  mutable mont_n : Mont.t option;
  mutable n_sha1 : string option;
}

type private_key = {
  pub : public;
  d : B.t;
  p : B.t;
  q : B.t;
  dp : B.t;
  dq : B.t;
  qinv : B.t;
  mutable mont_p : Mont.t option;
  mutable mont_q : Mont.t option;
}

type keypair = private_key

let make_public ~n ~e = { n; e; mont_n = None; n_sha1 = None }

(* SHA-1 of the raw modulus bytes, memoised on the key: X.509 key
   identifiers hash the same modulus for every certificate a CA signs.
   Benign race: both domains compute the identical digest. *)
let modulus_sha1 pub =
  match pub.n_sha1 with
  | Some h -> h
  | None ->
      let h = Dk.digest Dk.SHA1 (B.to_bytes_be pub.n) in
      pub.n_sha1 <- Some h;
      h

(* Montgomery contexts are built on first use and memoised in the key
   record, so setup is paid once per CA rather than once per
   operation.  Keys parsed from hostile DER can carry an even or
   degenerate modulus; those fall back to the division-based modpow,
   which tolerates anything.  Filling the cache from two domains at
   once is a benign race: both compute the identical context and one
   write wins. *)
let mont_ctx m get set =
  match get () with
  | Some _ as c -> c
  | None ->
      if B.is_odd m && B.compare m B.one > 0 then begin
        let c = Mont.create m in
        set (Some c);
        Some c
      end
      else None

let mont_n pub = mont_ctx pub.n (fun () -> pub.mont_n) (fun c -> pub.mont_n <- c)
let mont_p key = mont_ctx key.p (fun () -> key.mont_p) (fun c -> key.mont_p <- c)
let mont_q key = mont_ctx key.q (fun () -> key.mont_q) (fun c -> key.mont_q <- c)

(* --- per-key operation precompute ------------------------------------

   A handful of CA keys sign (and a pool of public keys verifies)
   millions of times each, so everything reusable about an
   exponentiation against one key is hoisted into an op context: the
   exponent's window schedule, and the preallocated Montgomery
   scratch that makes the steady-state sign/verify allocation-free.
   Contexts live in bounded per-domain caches from lib/cache keyed by
   the key's modulus bytes — scratch buffers are mutable, so they
   must never be shared across domains, and the capacity bound means
   a run over an unbounded key population cannot grow the heap.

   [set_precompute false] routes every operation through the plain
   Mont.modpow path instead; results are byte-identical either way
   (the QCheck suite pins this), so the toggle exists purely for the
   bench's before/after pairs and cache ablations. *)

let precompute_on = Atomic.make true
let set_precompute b = Atomic.set precompute_on b
let precompute_enabled () = Atomic.get precompute_on

(* The wide-limb (28-bit) Montgomery plane doubles as a second
   before/after axis: [set_wide_kernel false] pins sign/verify to the
   26-bit plane that shipped first.  Signatures are byte-identical
   either way — the toggle exists for the bench pairs and for
   bisecting, not because results differ. *)
let wide_on = Atomic.make true
let set_wide_kernel b = Atomic.set wide_on b
let wide_enabled () = Atomic.get wide_on

(* Everything the allocation-free CRT sign path needs on the wide
   plane: per-prime contexts and scratches, q and qinv·R mod p packed
   once, and the two half-exponentiation result buffers. *)
type wide_sign = {
  ws_p : Mont.Wide.t;
  ws_scr_p : Mont.Wide.wscratch;
  ws_q : Mont.Wide.t;
  ws_scr_q : Mont.Wide.wscratch;
  ws_qinv_m : int array;
  ws_qlimbs : int array;
  ws_m1 : int array;
  ws_m2 : int array;
}

type sign_ctx = {
  sg_p : Mont.t;
  sg_dp : Mont.schedule;
  sg_scr_p : Mont.scratch;
  sg_q : Mont.t;
  sg_dq : Mont.schedule;
  sg_scr_q : Mont.scratch;
  sg_wide : wide_sign option;
}

type verify_ctx = {
  vf_n : Mont.t;
  vf_e : Mont.schedule;
  vf_scr : Mont.scratch;
  vf_wide : (Mont.Wide.t * Mont.Wide.wscratch) option;
  vf_nbytes : string;
  vf_m : int array;
}

let sign_ctxs : sign_ctx Cache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Cache.create ~name:"rsa.sign_ctx" ~capacity:64 ())

let verify_ctxs : verify_ctx Cache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Cache.create ~name:"rsa.verify_ctx" ~capacity:256 ())

(* The wide CRT path needs [q < 2p] (equal prime bit lengths) for the
   one-subtraction reduction in the recombination, and the EMSA block
   must fit the 2k-limb division-free base load of each half. *)
let wide_sign_ctx key =
  if B.bit_length key.p <> B.bit_length key.q then None
  else begin
    let em_bits = ((B.bit_length (B.mul key.p key.q) + 7) / 8) * 8 in
    let ws_p = Mont.Wide.create key.p in
    let ws_q = Mont.Wide.create key.q in
    let fits t = em_bits <= 2 * Mont.Wide.k t * 28 in
    if not (fits ws_p && fits ws_q) then None
    else begin
      let ws_scr_p = Mont.Wide.scratch ws_p in
      Some
        {
          ws_p;
          ws_scr_p;
          ws_q;
          ws_scr_q = Mont.Wide.scratch ws_q;
          ws_qinv_m =
            Mont.Wide.to_mont_limbs ws_p ws_scr_p
              (Mont.Wide.limbs_of_bigint ws_p key.qinv);
          ws_qlimbs = Mont.Wide.limbs_of_bigint ws_q key.q;
          ws_m1 = Array.make (Mont.Wide.k ws_p) 0;
          ws_m2 = Array.make (Mont.Wide.k ws_q) 0;
        }
    end
  end

let sign_ctx key =
  match (mont_p key, mont_q key) with
  | Some sg_p, Some sg_q ->
      let cache = Domain.DLS.get sign_ctxs in
      Some
        (Cache.find_or_add cache (B.to_bytes_be key.pub.n) (fun () ->
             {
               sg_p;
               sg_dp = Mont.schedule key.dp;
               sg_scr_p = Mont.scratch sg_p;
               sg_q;
               sg_dq = Mont.schedule key.dq;
               sg_scr_q = Mont.scratch sg_q;
               sg_wide = wide_sign_ctx key;
             }))
  | _ -> None

let verify_ctx pub =
  match mont_n pub with
  | Some vf_n when B.sign pub.e >= 0 ->
      let cache = Domain.DLS.get verify_ctxs in
      Some
        (Cache.find_or_add cache (B.to_bytes_be pub.n) (fun () ->
             let vf_e = Mont.schedule pub.e in
             let wt = Mont.Wide.create pub.n in
             let nbytes = B.to_bytes_be pub.n in
             let vf_wide =
               if
                 Mont.schedule_bits vf_e > 0
                 && String.length nbytes * 8 <= 2 * Mont.Wide.k wt * 28
               then Some (wt, Mont.Wide.scratch wt)
               else None
             in
             {
               vf_n;
               vf_e;
               vf_scr = Mont.scratch vf_n;
               vf_wide;
               vf_nbytes = nbytes;
               vf_m = Array.make (Mont.Wide.k wt) 0;
             }))
  | _ -> None

let public_op pub x =
  match (if precompute_enabled () then verify_ctx pub else None) with
  | Some vc -> Mont.powm_auto vc.vf_n vc.vf_scr vc.vf_e x
  | None -> (
      match mont_n pub with
      | Some ctx -> Mont.modpow ctx x pub.e
      | None -> B.modpow x pub.e pub.n)

let f4 = B.of_int 65537

(* prime pairs whose product came out a bit short of the requested
   width: the whole pair is drawn again *)
let c_short_modulus = Tangled_obs.Obs.counter "rsa.keygen_short_modulus"

let generate ?(mr_rounds = 20) rng ~bits =
  if bits < 64 then invalid_arg "Rsa.generate: modulus below 64 bits";
  let pbits = (bits + 1) / 2 in
  let qbits = bits - pbits in
  let rec attempt () =
    let p = Prime.generate ~rounds:mr_rounds rng ~bits:pbits in
    let q = Prime.generate ~rounds:mr_rounds rng ~bits:qbits in
    if B.equal p q then attempt ()
    else begin
      let n = B.mul p q in
      if B.bit_length n <> bits then begin
        Tangled_obs.Obs.incr c_short_modulus;
        attempt ()
      end
      else begin
        let phi = B.mul (B.sub p B.one) (B.sub q B.one) in
        let e = f4 in
        match B.mod_inverse e phi with
        | Some d ->
            let dp = B.erem d (B.sub p B.one) in
            let dq = B.erem d (B.sub q B.one) in
            (* p and q are distinct primes, so the inverse exists *)
            let qinv = Option.get (B.mod_inverse q p) in
            {
              pub = make_public ~n ~e;
              d;
              p;
              q;
              dp;
              dq;
              qinv;
              mont_p = None;
              mont_q = None;
            }
        | None -> attempt ()
      end
    end
  in
  attempt ()

let key_size_bytes pub = (B.bit_length pub.n + 7) / 8

let modulus_bytes pub = B.to_bytes_be pub.n

(* DigestInfo prefixes from RFC 8017 §9.2: the DER encoding of
   AlgorithmIdentifier + NULL params + OCTET STRING header for each
   supported hash, to which the raw digest is appended.  Decoded once
   at load time, not per operation. *)
let md5_prefix = Tangled_util.Hex.decode "3020300c06082a864886f70d020505000410"
let sha1_prefix = Tangled_util.Hex.decode "3021300906052b0e03021a05000414"
let sha256_prefix = Tangled_util.Hex.decode "3031300d060960864801650304020105000420"

let digest_info_prefix = function
  | Dk.MD5 -> md5_prefix
  | Dk.SHA1 -> sha1_prefix
  | Dk.SHA256 -> sha256_prefix

let emsa_pkcs1_v1_5 ~digest msg em_len =
  let h = Dk.digest digest msg in
  let prefix = digest_info_prefix digest in
  let t_len = String.length prefix + String.length h in
  if em_len < t_len + 11 then
    invalid_arg "Rsa: intended encoded message length too short";
  (* 0x00 0x01 PS 0x00 T, PS = 0xff padding of length >= 8; built in
     one allocation with the padding as the fill byte *)
  let em = Bytes.make em_len '\xff' in
  Bytes.set em 0 '\x00';
  Bytes.set em 1 '\x01';
  let t_off = em_len - t_len in
  Bytes.set em (t_off - 1) '\x00';
  Bytes.blit_string prefix 0 em t_off (String.length prefix);
  Bytes.blit_string h 0 em (t_off + String.length prefix) (String.length h);
  Bytes.unsafe_to_string em

let left_pad len s =
  let n = String.length s in
  if n >= len then s
  else begin
    let b = Bytes.make len '\x00' in
    Bytes.blit_string s 0 b (len - n) n;
    Bytes.unsafe_to_string b
  end

(* CRT private-key operation (RFC 8017 §5.1.2): two half-size
   exponentiations instead of one full-size one, ~4x faster — each
   through the cached per-prime Montgomery context. *)
let private_op key m =
  match (if precompute_enabled () then sign_ctx key else None) with
  | Some sg ->
      let m1 = Mont.powm_auto sg.sg_p sg.sg_scr_p sg.sg_dp m in
      let m2 = Mont.powm_auto sg.sg_q sg.sg_scr_q sg.sg_dq m in
      let h = B.erem (B.mul key.qinv (B.sub m1 m2)) key.p in
      B.add m2 (B.mul h key.q)
  | None ->
      let half ctx_of dx px =
        match ctx_of key with
        | Some ctx -> Mont.modpow ctx m dx
        | None -> B.modpow m dx px
      in
      let m1 = half mont_p key.dp key.p in
      let m2 = half mont_q key.dq key.q in
      let h = B.erem (B.mul key.qinv (B.sub m1 m2)) key.p in
      B.add m2 (B.mul h key.q)

let sign key ~digest msg =
  let k = key_size_bytes key.pub in
  let em = emsa_pkcs1_v1_5 ~digest msg k in
  match
    if precompute_enabled () && wide_enabled () then sign_ctx key else None
  with
  | Some { sg_dp; sg_dq; sg_wide = Some w; _ } ->
      (* both CRT halves and the recombination stay on the wide plane:
         bytes in, bytes out, the signature buffer is the only
         allocation *)
      Mont.Wide.load_base_bytes w.ws_p w.ws_scr_p em;
      Mont.Wide.powm_auto_loaded w.ws_p w.ws_scr_p sg_dp ~dst:w.ws_m1;
      Mont.Wide.load_base_bytes w.ws_q w.ws_scr_q em;
      Mont.Wide.powm_auto_loaded w.ws_q w.ws_scr_q sg_dq ~dst:w.ws_m2;
      let out = Bytes.create k in
      Mont.Wide.crt_combine ~pctx:w.ws_p ~psc:w.ws_scr_p ~qinv_m:w.ws_qinv_m
        ~qlimbs:w.ws_qlimbs ~m1:w.ws_m1 ~m2:w.ws_m2 ~out;
      Bytes.unsafe_to_string out
  | _ ->
      let m = B.of_bytes_be em in
      let s = private_op key m in
      left_pad k (B.to_bytes_be s)

let verify pub ~digest ~msg ~signature =
  let k = key_size_bytes pub in
  if String.length signature <> k then false
  else begin
    match
      if precompute_enabled () && wide_enabled () then verify_ctx pub else None
    with
    | Some ({ vf_wide = Some (wt, wsc); _ } as vc) ->
        (* equal-length big-endian strings compare like the integers
           they encode, so the s < n range check needs no Bigint *)
        if String.compare signature vc.vf_nbytes >= 0 then false
        else begin
          Mont.Wide.load_base_bytes wt wsc signature;
          Mont.Wide.powm_auto_loaded wt wsc vc.vf_e ~dst:vc.vf_m;
          let em' = Bytes.create k in
          Mont.Wide.write_bytes_be vc.vf_m (Array.length vc.vf_m) em';
          match emsa_pkcs1_v1_5 ~digest msg k with
          | em -> String.equal em (Bytes.unsafe_to_string em')
          | exception Invalid_argument _ -> false
        end
    | _ ->
        let s = B.of_bytes_be signature in
        if B.compare s pub.n >= 0 then false
        else begin
          let m = public_op pub s in
          let em' = left_pad k (B.to_bytes_be m) in
          match emsa_pkcs1_v1_5 ~digest msg k with
          | em -> String.equal em em'
          | exception Invalid_argument _ -> false
        end
  end

let encrypt_raw pub data =
  let m = B.of_bytes_be data in
  if B.compare m pub.n >= 0 then invalid_arg "Rsa.encrypt_raw: message too large";
  B.to_bytes_be (public_op pub m)

let decrypt_raw key data =
  let c = B.of_bytes_be data in
  if B.compare c key.pub.n >= 0 then invalid_arg "Rsa.decrypt_raw: ciphertext too large";
  B.to_bytes_be (private_op key c)
