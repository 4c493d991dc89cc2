module C = Tangled_x509.Certificate
module Dn = Tangled_x509.Dn
module Rs = Tangled_store.Root_store
module Ts = Tangled_util.Timestamp
module Rsa = Tangled_crypto.Rsa
module B = Tangled_numeric.Bigint
module Obs = Tangled_obs.Obs

(* --- signature-verification decision cache ---------------------------- *)

(* The Notary re-validates the same CA-signed intermediates thousands
   of times across chains, and every Netalyzr probe re-walks the same
   few server chains per handset.  An RSA verification is pure in
   (issuer key, TBS bytes, signature), so its verdict is cached.

   The cache key is (issuer equivalence key, issuer public exponent,
   SHA-256 of the TBS, signature bytes): the equivalence key carries
   the issuer's subject DN and modulus — the issuer-key fingerprint —
   the exponent completes the verifying key, and the TBS digest is the
   certificate fingerprint, covering both the signed bytes and the
   signature algorithm (which is encoded inside the TBS).  The store
   epoch is the third key component: {!clear_verify_cache} bumps a
   process-global epoch that every per-domain cache syncs to before
   lookup, so invalidation is O(1) and reaches workers lazily.

   PR 3's memo was an unbounded Hashtbl — a long-lived serve session
   or a 1.9 M-cert scale run grew it without limit.  It is now a
   bounded CLOCK cache from lib/cache: at most [capacity] verdicts
   per domain, evicting second-chance, so resident memory is provably
   capped for the life of the process.

   Caches are domain-local, so parallel Notary workers never contend
   or race; the hit/miss/eviction counters are process-global atomics
   surfaced through Obs (under the trace's volatile member) next to
   the span tree, and every real (cache-missing) verification lands
   its wall-clock in a latency histogram. *)

module Cache = Tangled_cache.Cache

let verify_latency = Obs.histogram "chain.verify_seconds"

(* per-chain validation latency, the instrument the obs report section
   quotes p50/p90/p99 from.  Sampled 1-in-8: a cached validate is
   ~12us and the two clock reads plus bucket update cost ~100ns, so
   sampling keeps the hot-path overhead near a single atomic tick
   while the quantiles stay statistically representative.  The
   hit/miss counters above are never sampled — they stay exact. *)
let validate_latency = Obs.histogram "chain.validate_seconds"
let validate_sample_every = 8
let validate_tick = Atomic.make 0

(* process-global knobs: the store epoch (bumped on invalidation and
   synced lazily into each per-domain cache) and the capacity every new
   per-domain instance is born with *)
let store_epoch = Atomic.make 0
let cache_capacity = Atomic.make 8192

let set_verify_cache_capacity n =
  if n < 1 then invalid_arg "Chain.set_verify_cache_capacity: capacity must be >= 1";
  Atomic.set cache_capacity n

let cache_slot : bool Cache.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      ref
        (Cache.create ~name:"chain.decisions"
           ~capacity:(Atomic.get cache_capacity) ()))

(* this domain's decision cache, rebuilt if the configured capacity
   changed and re-synced to the current store epoch — a stale epoch
   logically empties it in O(1) *)
let decision_cache () =
  let slot = Domain.DLS.get cache_slot in
  if Cache.capacity !slot <> Atomic.get cache_capacity then
    slot :=
      Cache.create ~name:"chain.decisions" ~capacity:(Atomic.get cache_capacity) ();
  Cache.set_epoch !slot (Atomic.get store_epoch);
  !slot

let verify_cert ~issuer cert =
  let key =
    (* one streaming SHA-256 over the components gives a fixed
       32-byte key instead of concatenating them (the old key also
       digested the TBS separately, so this is one hash pass rather
       than hash + concat) *)
    let ctx = Tangled_hash.Sha256.init () in
    let feed_delim s =
      Tangled_hash.Sha256.feed ctx s;
      Tangled_hash.Sha256.feed ctx "\x00"
    in
    feed_delim (C.equivalence_key issuer);
    feed_delim (B.to_bytes_be issuer.C.public_key.Rsa.e);
    feed_delim cert.C.tbs_der;
    Tangled_hash.Sha256.feed ctx cert.C.signature;
    Tangled_hash.Sha256.finalize ctx
  in
  let cache = decision_cache () in
  match Cache.find cache key with
  | Some verdict -> verdict
  | None ->
      let verdict =
        Obs.time_histogram verify_latency (fun () ->
            C.verify_signature cert ~issuer_key:issuer.C.public_key)
      in
      Cache.add cache key verdict;
      verdict

let verify_cache_stats () =
  let s = Cache.stats (decision_cache ()) in
  (s.Cache.hits, s.Cache.misses)

let verify_cache_info () = Cache.stats (decision_cache ())

let clear_verify_cache () =
  Obs.event "chain.verify_cache_cleared";
  Atomic.incr store_epoch

type failure =
  | No_trusted_root
  | Bad_signature of Dn.t
  | Expired of Dn.t
  | Not_yet_valid of Dn.t
  | Not_a_ca of Dn.t
  | Path_len_exceeded of Dn.t
  | Wrong_key_usage of Dn.t
  | Chain_too_long

let failure_to_string = function
  | No_trusted_root -> "no trusted root anchors the chain"
  | Bad_signature dn -> "bad signature on " ^ Dn.to_string dn
  | Expired dn -> "certificate expired: " ^ Dn.to_string dn
  | Not_yet_valid dn -> "certificate not yet valid: " ^ Dn.to_string dn
  | Not_a_ca dn -> "issuer is not a CA: " ^ Dn.to_string dn
  | Path_len_exceeded dn -> "pathLenConstraint exceeded at " ^ Dn.to_string dn
  | Wrong_key_usage dn -> "leaf does not allow TLS server auth: " ^ Dn.to_string dn
  | Chain_too_long -> "chain exceeds maximum depth"

type result = {
  verdict : (C.t, failure) Stdlib.result;
  path : C.t list;
}

let time_failure now cert =
  if Ts.compare now cert.C.not_before < 0 then Some (Not_yet_valid cert.C.subject)
  else if Ts.compare cert.C.not_after now < 0 then Some (Expired cert.C.subject)
  else None

(* Depth-first path search.  At each step the current certificate's
   issuer DN selects candidates, first among store roots (terminating)
   then among the presented pool (extending).  The first fully-valid
   path wins; failures are remembered so the most informative one is
   reported when nothing works. *)
let validate_body ~max_depth ~check_server_auth ~now ~store chain =
  match chain with
  | [] -> invalid_arg "Chain.validate: empty chain"
  | leaf :: rest ->
      let best_failure = ref None in
      let note f = if !best_failure = None then best_failure := Some f in
      let pool = rest in
      let rec extend cert path depth children =
        (* [children] counts non-self-issued certs below [cert], the
           quantity pathLenConstraint bounds *)
        if depth > max_depth then begin
          note Chain_too_long;
          None
        end
        else begin
          (* try to terminate at a trusted root *)
          let store_candidates = Rs.find_by_subject store cert.C.issuer in
          let terminated =
            List.find_map
              (fun (entry : Rs.entry) ->
                let root = entry.Rs.cert in
                match time_failure now root with
                | Some f ->
                    note f;
                    None
                | None ->
                    if verify_cert ~issuer:root cert then Some root
                    else begin
                      note (Bad_signature cert.C.subject);
                      None
                    end)
              store_candidates
          in
          match terminated with
          | Some root -> Some (root, List.rev path)
          | None ->
              (* extend through a presented intermediate *)
              let candidates =
                List.filter
                  (fun c ->
                    Dn.equal c.C.subject cert.C.issuer
                    && not (List.exists (fun p -> C.byte_identity p = C.byte_identity c) path))
                  pool
              in
              List.find_map
                (fun inter ->
                  match time_failure now inter with
                  | Some f ->
                      note f;
                      None
                  | None ->
                      if not (C.is_ca inter) then begin
                        note (Not_a_ca inter.C.subject);
                        None
                      end
                      else begin
                        let plen_ok =
                          match inter.C.extensions.C.basic_constraints with
                          | Some (true, Some limit) -> children <= limit
                          | _ -> true
                        in
                        if not plen_ok then begin
                          note (Path_len_exceeded inter.C.subject);
                          None
                        end
                        else if verify_cert ~issuer:inter cert then begin
                          let self_issued = Dn.equal inter.C.subject inter.C.issuer in
                          extend inter (inter :: path) (depth + 1)
                            (if self_issued then children else children + 1)
                        end
                        else begin
                          note (Bad_signature cert.C.subject);
                          None
                        end
                      end)
                candidates
        end
      in
      let leaf_check =
        match time_failure now leaf with
        | Some f -> Some f
        | None ->
            if check_server_auth && not (C.allows_server_auth leaf) then
              Some (Wrong_key_usage leaf.C.subject)
            else None
      in
      (match leaf_check with
      | Some f -> { verdict = Error f; path = [ leaf ] }
      | None -> (
          match extend leaf [ leaf ] 0 0 with
          | Some (root, path) -> { verdict = Ok root; path }
          | None ->
              let f = Option.value ~default:No_trusted_root !best_failure in
              { verdict = Error f; path = [ leaf ] }))

let validate ?(max_depth = 8) ?(check_server_auth = true) ~now ~store chain =
  if Obs.enabled () && Atomic.fetch_and_add validate_tick 1 mod validate_sample_every = 0
  then
    Obs.time_histogram validate_latency (fun () ->
        validate_body ~max_depth ~check_server_auth ~now ~store chain)
  else validate_body ~max_depth ~check_server_auth ~now ~store chain

let validate_ok ?max_depth ?check_server_auth ~now ~store chain =
  match (validate ?max_depth ?check_server_auth ~now ~store chain).verdict with
  | Ok _ -> true
  | Error _ -> false

let anchor_key ~now ~store chain =
  match (validate ~now ~store chain).verdict with
  | Ok root -> Some (C.equivalence_key root)
  | Error _ -> None

let anchor_id ~interner ~now ~store chain =
  match (validate ~now ~store chain).verdict with
  | Ok root -> Tangled_engine.Interner.find interner (C.equivalence_key root)
  | Error _ -> None
