(* Per-layer unit costs for the traced run, timed from outside: each
   metric calls one public function of a layer on inputs taken from the
   serve world (its corpus leaves, its handset stores, its own request
   frames and store dump).  A cost is the median over five slices of
   the mean time per call, so one slow slice does not move it. *)

open Perfbench_kit
open Common
module BP = Tangled_pki.Blueprint
module P = Tangled_core.Pipeline
module Pop = Tangled_device.Population
module Notary = Tangled_notary.Notary
module Serve = Tangled_serve.Serve
module C = Tangled_x509.Certificate
module Arena = Tangled_x509.Arena
module Authority = Tangled_x509.Authority
module Chain = Tangled_validation.Chain
module Rsa = Tangled_crypto.Rsa
module Dk = Tangled_hash.Digest_kind
module J = Tangled_util.Json
module Hex = Tangled_util.Hex
module Prng = Tangled_util.Prng
module Ingest = Tangled_ingest.Ingest
module Coverage = Tangled_engine.Coverage
module Parallel = Tangled_engine.Parallel
module Fleet = Tangled_ct.Fleet
module Ct_log = Tangled_ct.Log

let slices = 5
let slice_s = 0.03

(* Mean seconds per call of [f i] (i counts calls), median over slices. *)
let per_call f =
  let n = ref 1 in
  let run () =
    let _, dt = timed (fun () -> for i = 1 to !n do f i done) in
    dt
  in
  while run () < slice_s do
    n := !n * 2
  done;
  Stats.median (Array.init slices (fun _ -> run () /. float_of_int !n))

let us x = x *. 1e6
let consume x = ignore (Sys.opaque_identity x)

let run (env : Serve_load.env) (t : Serve_load.traffic) =
  let w = env.Serve_load.world in
  let n = w.P.notary in
  let u = w.P.universe in
  let total = Notary.total n in
  let sample = Array.init 64 (fun k -> Notary.chain n (k * total / 64)) in
  let leaf k = sample.(k mod 64).Notary.leaf in
  let certs k = let c = sample.(k mod 64) in c.Notary.leaf :: c.Notary.intermediates in
  let handset k =
    let hs = w.P.population.Pop.handsets in
    hs.(k * 7 mod Array.length hs).Pop.store
  in
  (* crypto: a fixed key sequence, then sign/verify a TBS-sized message *)
  let rng = Prng.create 4242 in
  let key_count = 12 in
  let keys, keygen_s =
    timed (fun () -> Array.init key_count (fun _ -> Rsa.generate ~mr_rounds:6 rng ~bits:384))
  in
  let key = keys.(0) in
  let tbs = (leaf 0).C.tbs_der in
  let signature = Rsa.sign key ~digest:Dk.SHA1 tbs in
  let sign_s = per_call (fun _ -> consume (Rsa.sign key ~digest:Dk.SHA1 tbs)) in
  let verify_s =
    per_call (fun _ -> consume (Rsa.verify key.Rsa.pub ~digest:Dk.SHA1 ~msg:tbs ~signature))
  in
  (* hashing at the serve cache-key length and at TBS length *)
  let chain_hex = List.map (fun c -> Hex.encode c.C.raw) (certs 0) in
  let cache_key = String.concat "\x00" ("validate" :: "handset:1" :: chain_hex) in
  let sha256_s = per_call (fun _ -> consume (Tangled_hash.Sha256.digest cache_key)) in
  let sha1_s = per_call (fun _ -> consume (Tangled_hash.Sha1.digest tbs)) in
  (* x509 + asn1 *)
  let parent = u.BP.roots.(0).BP.authority in
  let issue rng = Authority.issue_leaf ~bits:384 ~digest:Dk.SHA1 ~key rng ~parent
      ~dns_names:[ "bench.example" ] (Tangled_x509.Dn.make "bench.example") in
  let issue_s = per_call (fun _ -> consume (issue rng)) in
  let ders = Array.init 64 (fun k -> (leaf k).C.raw) in
  let decode_s = per_call (fun i -> consume (C.decode ders.(i land 63))) in
  let appends = 20_000 in
  let append_s =
    Stats.median
      (Array.init slices (fun _ ->
           let a = Arena.create () in
           let _, dt =
             timed (fun () ->
                 for i = 1 to appends do
                   consume
                     (Arena.append a ~der:ders.(i land 63) ~subject_id:i ~issuer_id:0 ~anchor_id:1
                        ~not_before:0 ~not_after:0 ~flags:0 ~key_fp:0L)
                 done)
           in
           dt /. float_of_int appends))
  in
  (* util: the serve stream's own frames and responses *)
  let frames =
    List.filter_map
      (fun id ->
        match Serve_load.draw t id with
        | Serve_load.Reload -> None
        | kind -> Some (Serve_load.frame t id kind))
      (List.init 256 (fun k -> 1_000_000_000 + k))
  in
  let frames_a = Array.of_list frames in
  let nf = Array.length frames_a in
  let parse_s = per_call (fun i -> consume (J.parse frames_a.(i mod nf))) in
  let responses =
    Array.of_list
      (List.filter_map
         (fun r -> Result.to_option (J.parse r))
         (Serve.serve_burst env.Serve_load.server (List.filteri (fun i _ -> i < 32) frames)))
  in
  let nr = Array.length responses in
  let print_s = per_call (fun i -> consume (J.to_string responses.(i mod nr))) in
  let hexes = Array.init 64 (fun k -> Hex.encode ders.(k)) in
  let hex_bytes = Array.fold_left (fun acc h -> acc + String.length h) 0 hexes in
  let hex_s = per_call (fun i -> consume (Hex.decode_opt hexes.(i land 63))) in
  (* validation against handset stores, verify memo warm and cold *)
  let now = Tangled_util.Timestamp.paper_epoch in
  let validate k = Chain.validate ~now ~store:(handset k) (certs k) in
  for k = 0 to 63 do consume (validate k) done;
  let memo_s = per_call (fun i -> consume (validate (i land 7))) in
  let cold_s = per_call (fun i -> Chain.clear_verify_cache (); consume (validate (i land 7))) in
  (* ingest, engine, ct *)
  let dump = Tangled_core.Export.stores_jsonl w in
  let dump_s = per_call (fun _ -> consume (Ingest.stores_of_string dump)) in
  let cov = Coverage.create () in
  let anchors = Array.init 1024 (fun i -> Notary.anchor_id n (i * total / 1024)) in
  let cov_s =
    per_call (fun i -> let a = anchors.(i land 1023) in
      if a >= 0 then Coverage.append cov ~anchor:a ~expired:false)
  in
  let batch = 128 in
  let tab jobs = snd (timed (fun () ->
      consume (Parallel.tabulate ~jobs batch (fun i -> issue (Prng.create i))))) in
  let speedup =
    Stats.median (Array.init 3 (fun _ -> let t1 = tab 1 in let t2 = tab 2 in t1 /. t2))
  in
  let fleet_s =
    Stats.median (Array.init 3 (fun _ ->
        snd (timed (fun () -> consume (Fleet.build ~n_logs:3 ~seed:7 u n)))))
  in
  let log = (Fleet.entries (Option.get (Serve.ct_fleet env.Serve_load.server))).(0).Fleet.log in
  let size = Ct_log.size log in
  let incl_s =
    per_call (fun i -> consume (Ct_log.inclusion_proof log ~index:(i * 7919 mod size) ~tree_size:size))
  in
  let cons_s =
    per_call (fun i -> consume (Ct_log.consistency_proof log ~first:(1 + (i * 7919 mod (size - 1))) ~second:size))
  in
  [
    metric "crypto.keygen_ms" "ms" (keygen_s *. 1000.0 /. float_of_int key_count);
    metric "crypto.sign_us" "us" (us sign_s);
    metric "crypto.verify_us" "us" (us verify_s);
    metric "hash.sha256_ns_per_byte" "ns/B" (sha256_s *. 1e9 /. float_of_int (String.length cache_key));
    metric "hash.sha1_ns_per_byte" "ns/B" (sha1_s *. 1e9 /. float_of_int (String.length tbs));
    metric "x509.issue_leaf_us" "us" (us issue_s);
    metric "x509.decode_us" "us" (us decode_s);
    metric "x509.arena_append_ns" "ns" (append_s *. 1e9);
    metric "util.frame_parse_us" "us" (us parse_s);
    metric "util.response_print_us" "us" (us print_s);
    metric "util.hex_decode_ns_per_byte" "ns/B" (hex_s *. 1e9 *. 64.0 /. float_of_int hex_bytes);
    metric "validation.validate_memo_us" "us" (us memo_s);
    metric "validation.validate_cold_us" "us" (us cold_s);
    metric "ingest.store_dump_ms" "ms" (dump_s *. 1000.0);
    metric "engine.coverage_append_ns" "ns" (cov_s *. 1e9);
    metric "engine.tabulate_speedup" "ratio" speedup;
    metric "ct.fleet_build_ms" "ms" (fleet_s *. 1000.0);
    metric "ct.inclusion_proof_us" "us" (us incl_s);
    metric "ct.consistency_proof_us" "us" (us cons_s);
  ]
