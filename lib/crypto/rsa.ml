module B = Tangled_numeric.Bigint
module Mont = Tangled_numeric.Montgomery
module Prime = Tangled_numeric.Prime
module Prng = Tangled_util.Prng
module Dk = Tangled_hash.Digest_kind
module Cache = Tangled_cache.Cache

type public = {
  n : B.t;
  e : B.t;
  mutable n_sha1 : string option;
}

(* Everything immutable that one key's CRT signature reuses, built
   once by [generate] and kept on the key.  Both halves run at p's limb
   count: at odd key widths q is one bit shorter than p and can need a
   limb fewer, but the EMSA block is as wide as n and must fit twice
   the limbs of each context it is loaded into.  p has at least q's
   bit length, so q < 2p, which is all the recombination needs.  Built
   eagerly rather than as a [Lazy.t]: two domains forcing one lazy
   value raise [Lazy.Undefined]. *)
type signer = {
  sg_p : Mont.t;
  sg_dp : Mont.schedule;
  sg_q : Mont.t;
  sg_dq : Mont.schedule;
  sg_qinv_m : int array; (* qinv in p's Montgomery form *)
  sg_qlimbs : int array; (* q at p's limb count *)
}

type private_key = {
  pub : public;
  d : B.t;
  p : B.t;
  q : B.t;
  dp : B.t;
  dq : B.t;
  qinv : B.t;
  signer : signer;
}

type keypair = private_key

let make_public ~n ~e = { n; e; n_sha1 = None }

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

(* --- per-domain working state and the verify cache ----------------------

   A handful of CA keys sign (and a pool of public keys verifies)
   millions of times each.  A key's signer is immutable and shared;
   what an exponentiation writes — the scratch and the two CRT half
   results — is mutable, so it must never be shared across domains and
   lives in domain-local state keyed by limb count, which keeps
   steady-state sign and verify down to allocating their output.
   Verify contexts are cached per domain in a bounded cache from
   lib/cache keyed by the modulus bytes: verification serves keys
   decoded fresh from DER, and the capacity bound means a run over an
   unbounded key population cannot grow the heap. *)

type work = { scr : Mont.scratch; m1 : int array; m2 : int array }

let works : (int * work) list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* this domain's working state for contexts of [ctx]'s width *)
let work ctx =
  let k = Mont.limbs ctx in
  let ws = Domain.DLS.get works in
  match List.assq_opt k !ws with
  | Some w -> w
  | None ->
      let w = { scr = Mont.scratch ctx; m1 = Array.make k 0; m2 = Array.make k 0 } in
      ws := (k, w) :: !ws;
      w

let make_signer ~p ~q ~dp ~dq ~qinv =
  let sg_p = Mont.create p in
  let sg_q = Mont.create ~limbs:(Mont.limbs sg_p) q in
  {
    sg_p;
    sg_dp = Mont.schedule dp;
    sg_q;
    sg_dq = Mont.schedule dq;
    sg_qinv_m = Mont.to_mont_limbs sg_p (work sg_p).scr (Mont.limbs_of_bigint sg_p qinv);
    sg_qlimbs = Mont.limbs_of_bigint sg_q q;
  }

type verify_ctx = {
  vf_n : Mont.t;
  vf_e : Mont.schedule;
  vf_exp : B.t; (* the exponent behind [vf_e] *)
  vf_scr : Mont.scratch;
  vf_nbytes : string;
  vf_m : int array;
}

let verify_ctxs : verify_ctx Cache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Cache.create ~name:"rsa.verify_ctx" ~capacity:256 ())

let make_verify_ctx pub nbytes =
  let vf_n = Mont.create pub.n in
  {
    vf_n;
    vf_e = Mont.schedule pub.e;
    vf_exp = pub.e;
    vf_scr = Mont.scratch vf_n;
    vf_nbytes = nbytes;
    vf_m = Array.make (Mont.limbs vf_n) 0;
  }

(* A cached context serves only keys with its exponent: hostile DER
   can pair a CA's modulus with another exponent, and that key gets a
   context of its own rather than the cached one. *)
let verify_ctx pub =
  let nbytes = B.to_bytes_be pub.n in
  let vc =
    Cache.find_or_add (Domain.DLS.get verify_ctxs) nbytes (fun () ->
        make_verify_ctx pub nbytes)
  in
  if B.equal vc.vf_exp pub.e then vc else make_verify_ctx pub nbytes

(* the moduli a Montgomery context accepts; keys parsed from hostile
   DER can carry any other *)
let plane_modulus n =
  B.is_odd n && B.compare n B.one > 0 && B.bit_length n <= Mont.max_bits

let f4 = B.of_int 65537

(* prime pairs whose product came out a bit short of the requested
   width: the whole pair is drawn again *)
let c_short_modulus = Tangled_obs.Obs.counter "rsa.keygen_short_modulus"

let generate ?(mr_rounds = 20) rng ~bits =
  if bits < 64 then invalid_arg "Rsa.generate: modulus below 64 bits";
  if bits > Mont.max_bits then invalid_arg "Rsa.generate: modulus above 3528 bits";
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
            let signer = make_signer ~p ~q ~dp ~dq ~qinv in
            { pub = make_public ~n ~e; d; p; q; dp; dq; qinv; signer }
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
   exponentiations instead of one full-size one, ~4x faster.  Bytes in,
   bytes out: the signature buffer is the only allocation.  Both halves
   and the recombination share one scratch: each step writes every
   scratch word it reads. *)
let sign key ~digest msg =
  let k = key_size_bytes key.pub in
  let em = emsa_pkcs1_v1_5 ~digest msg k in
  let sg = key.signer in
  let w = work sg.sg_p in
  Mont.load_base_bytes sg.sg_p w.scr em;
  Mont.powm_loaded sg.sg_p w.scr sg.sg_dp ~dst:w.m1;
  Mont.load_base_bytes sg.sg_q w.scr em;
  Mont.powm_loaded sg.sg_q w.scr sg.sg_dq ~dst:w.m2;
  let out = Bytes.create k in
  Mont.crt_combine ~pctx:sg.sg_p ~psc:w.scr ~qinv_m:sg.sg_qinv_m ~qlimbs:sg.sg_qlimbs
    ~m1:w.m1 ~m2:w.m2 ~out;
  Bytes.unsafe_to_string out

let emsa_matches ~digest msg em' =
  match emsa_pkcs1_v1_5 ~digest msg (String.length em') with
  | em -> String.equal em em'
  | exception Invalid_argument _ -> false

let verify pub ~digest ~msg ~signature =
  let k = key_size_bytes pub in
  if String.length signature <> k || B.sign pub.e <= 0 then false
  else if plane_modulus pub.n then begin
    let vc = verify_ctx pub in
    (* equal-length big-endian strings compare like the integers they
       encode, so the s < n range check needs no Bigint *)
    String.compare signature vc.vf_nbytes < 0
    && begin
         Mont.load_base_bytes vc.vf_n vc.vf_scr signature;
         Mont.powm_loaded vc.vf_n vc.vf_scr vc.vf_e ~dst:vc.vf_m;
         let em' = Bytes.create k in
         Mont.write_bytes_be vc.vf_m (Array.length vc.vf_m) em';
         emsa_matches ~digest msg (Bytes.unsafe_to_string em')
       end
  end
  else begin
    let s = B.of_bytes_be signature in
    B.compare s pub.n < 0
    && emsa_matches ~digest msg (left_pad k (B.to_bytes_be (B.modpow s pub.e pub.n)))
  end
