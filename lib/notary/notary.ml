module PD = Tangled_pki.Paper_data
module BP = Tangled_pki.Blueprint
module Prng = Tangled_util.Prng
module Ts = Tangled_util.Timestamp
module C = Tangled_x509.Certificate
module Dn = Tangled_x509.Dn
module Authority = Tangled_x509.Authority
module Arena = Tangled_x509.Arena
module Rsa = Tangled_crypto.Rsa
module Rs = Tangled_store.Root_store
module Chain = Tangled_validation.Chain
module Interner = Tangled_engine.Interner
module Id_set = Tangled_engine.Id_set
module Coverage = Tangled_engine.Coverage
module Parallel = Tangled_engine.Parallel
module Obs = Tangled_obs.Obs

(* build-phase instrumentation: spans are opened from the coordinating
   domain only (never inside Parallel workers), so the span tree is
   identical at any --jobs *)
let chains_gauge = Obs.gauge "notary.chains"

type chain = {
  leaf : C.t;
  intermediates : C.t list;
  expired : bool;
  anchor : string option;
}

type t = {
  universe : BP.t;
  arena : Arena.t;
  inter_certs : C.t array;
  scale : float;
  interner : Interner.t;
  coverage : Coverage.t;
}

let key_pool_size = 32

(* Lean generation verifies a deterministic 1-in-[audit_interval]
   sample of chains instead of every one.  A generated chain's
   signatures were produced one stack frame up, so full verification
   is a self-check, not new information; the sample keeps the check
   honest (an audited chain that fails to verify aborts generation)
   while removing the dominant non-signing cost.  Sampling is by chain
   index, so the arena is byte-identical at any [jobs]. *)
let audit_interval = 64

(* chains built per streaming batch before they are appended to the
   arena and dropped; peak heap is O(batch), not O(total) *)
let batch_size = 4096

(* What a worker hands the sequential fold for one chain: the leaf's
   DER, the first 8 bytes of its SHA-256 fingerprint and its verified
   anchor — not the boxed certificate, which dies in the worker. *)
type built = { der : string; key_fp : int64; anchor : string option }

(* Largest-remainder apportionment of [total] items over [weights]. *)
let apportion weights total =
  let n = Array.length weights in
  let sum = Array.fold_left ( +. ) 0.0 weights in
  if sum <= 0.0 || n = 0 then Array.make n 0
  else begin
    let ideal = Array.map (fun w -> w /. sum *. float_of_int total) weights in
    let counts = Array.map (fun x -> int_of_float (floor x)) ideal in
    (* every positive-weight issuer gets at least one leaf: "active"
       roots must validate something, per the Table 4 derivation *)
    Array.iteri (fun i w -> if w > 0.0 && counts.(i) = 0 then counts.(i) <- 1) weights;
    let assigned = Array.fold_left ( + ) 0 counts in
    let remainder = total - assigned in
    if remainder > 0 then begin
      let order =
        Array.init n (fun i -> i)
        |> Array.to_list
        |> List.sort (fun a b ->
               Stdlib.compare
                 (ideal.(b) -. floor ideal.(b))
                 (ideal.(a) -. floor ideal.(a)))
        |> Array.of_list
      in
      for k = 0 to remainder - 1 do
        let i = order.(k mod n) in
        counts.(i) <- counts.(i) + 1
      done
    end;
    counts
  end

let verify_chain ~now ~issuer_root chain_certs leaf =
  (* one full cryptographic walk per chain; store counting afterwards is
     pure anchor-set membership.  Verifications go through the
     domain-local memo: each issuer signs every leaf over the same
     intermediate, so all but the first walk per (issuer, intermediate)
     pair hit the cache. *)
  let rec walk cert rest =
    match rest with
    | [] ->
        let root = issuer_root in
        if Chain.verify_cert ~issuer:root cert then Some (C.equivalence_key root)
        else None
    | inter :: tail ->
        if Chain.verify_cert ~issuer:inter cert then walk inter tail else None
  in
  ignore now;
  walk leaf chain_certs

let generate ?(leaves = 10_000) ?(expired_fraction = 0.10) ?(jobs = 1) ~seed
    universe =
  let master = Prng.create seed in
  let rng_keys = Prng.split master "notary-keys" in
  let rng_issue = Prng.split master "notary-issue" in
  let now = Ts.paper_epoch in
  let digest = Tangled_hash.Digest_kind.SHA1 in
  let bits = universe.BP.key_bits in
  (* reusable subject-key pools (see Authority.issue_leaf docs) *)
  let leaf_keys, inter_keys =
    Obs.span "notary.keys" (fun () ->
        ( Array.init key_pool_size (fun _ -> Rsa.generate ~mr_rounds:6 rng_keys ~bits),
          Array.init key_pool_size (fun _ -> Rsa.generate ~mr_rounds:6 rng_keys ~bits) ))
  in
  (* issuers: every traffic-active public root and private CA *)
  let public_issuers =
    Array.to_list universe.BP.roots
    |> List.filter (fun (r : BP.root) -> r.BP.traffic_weight > 0.0)
    |> List.map (fun r -> (r.BP.authority, r.BP.traffic_weight))
  in
  let issuers = Array.of_list (public_issuers @ Array.to_list universe.BP.private_cas) in
  (* anchor identities, interned per issuer rather than per chain *)
  let anchor_keys =
    Array.map
      (fun (a, _) -> C.equivalence_key a.Authority.certificate)
      issuers
  in
  let weights = Array.map snd issuers in
  let counts = apportion weights leaves in
  (* one intermediate per issuer, shared by ~half its leaves.  The
     issuing key comes from the pool, so construction draws nothing:
     safe to build across domains.  [null_rng] satisfies the issuance
     signatures; with every key supplied it is never advanced. *)
  let null_rng () = Prng.create 0 in
  let intermediates =
    Obs.span "notary.intermediates" @@ fun () ->
    Parallel.tabulate ~jobs (Array.length issuers) (fun i ->
        let authority, _ = issuers.(i) in
        let key = inter_keys.(i mod key_pool_size) in
        let parent_cn =
          Option.value ~default:"CA"
            (Dn.common_name authority.Authority.certificate.C.subject)
        in
        Authority.issue_intermediate ~bits ~digest ~key
          ~serial:(Tangled_numeric.Bigint.of_int (50_000 + i))
          (null_rng ()) ~parent:authority
          (Dn.make ~o:parent_cn (parent_cn ^ " Issuing CA")))
  in
  Obs.span "notary.plan_and_build" @@ fun () ->
  (* sequential planning pass into flat arrays: replicates the seed
     generator's draw order exactly (one bool per chain, with the
     issuer pick of an expired chain drawn before its bool), so seeded
     output is byte-identical to the pre-streaming generator *)
  let assigned = Array.fold_left ( + ) 0 counts in
  let n_expired = int_of_float (float_of_int leaves *. expired_fraction) in
  let total = assigned + n_expired in
  let p_issuer = Array.make (Stdlib.max 1 total) 0 in
  let p_via = Bytes.make (Stdlib.max 1 total) '\000' in
  let next = ref 0 in
  let plan_one issuer_i =
    let via_intermediate = Prng.bool rng_issue in
    p_issuer.(!next) <- issuer_i;
    if via_intermediate then Bytes.set p_via !next '\001';
    incr next
  in
  Array.iteri
    (fun i n ->
      for _ = 1 to n do
        plan_one i
      done)
    counts;
  for _ = 1 to n_expired do
    plan_one (Prng.int rng_issue (Array.length issuers))
  done;
  (* streaming build: issue a batch of chains in parallel (pure per
     plan), fold each into the arena + incremental coverage index
     sequentially, drop the batch.  The heap holds one batch of DER
     strings whatever the corpus size; the appended corpus lives
     off-heap. *)
  let interner = universe.BP.interner in
  let arena =
    Arena.create
      ~blob_capacity:(Stdlib.max (1 lsl 20) (total * 512))
      ~capacity:(Stdlib.max 1 total) ()
  in
  let coverage = Coverage.create ~n_ids:(Interner.cardinal interner) () in
  let expired_window = (Ts.of_date 2010 1 1, Ts.add_days Ts.notary_start (-30))
  and live_window = (Ts.of_date 2012 6 1, Ts.add_years now 2) in
  let validity expired = if expired then expired_window else live_window in
  let build j =
    let issuer_i = p_issuer.(j) in
    let authority, _ = issuers.(issuer_i) in
    let via = Bytes.get p_via j <> '\000' in
    let expired = j >= assigned in
    let parent = if via then intermediates.(issuer_i) else authority in
    let leaf_no = j + 1 in
    let domain = Printf.sprintf "www.site%06d.example" leaf_no in
    let not_before, not_after = validity expired in
    let leaf =
      Authority.issue_leaf ~bits ~digest
        ~key:leaf_keys.(leaf_no mod key_pool_size)
        ~serial:(Tangled_numeric.Bigint.of_int (1_000_000 + leaf_no))
        ~not_before ~not_after (null_rng ()) ~parent ~dns_names:[ domain ]
        (Dn.make domain)
    in
    let inters = if via then [ parent.Authority.certificate ] else [] in
    let anchor =
      if j mod audit_interval <> 0 then
        (* unaudited chain: anchor identity without the redundant
           self-verification (the per-issuer key is precomputed) *)
        Some anchor_keys.(issuer_i)
      else
        match
          verify_chain ~now ~issuer_root:authority.Authority.certificate inters
            leaf
        with
        | None ->
            failwith
              (Printf.sprintf "Notary: sampled chain audit failed at index %d" j)
        | r -> r
    in
    { der = leaf.C.raw; key_fp = String.get_int64_be (C.fingerprint leaf) 0; anchor }
  in
  let lo = ref 0 in
  while !lo < total do
    let nb = Stdlib.min batch_size (total - !lo) in
    let base = !lo in
    let batch = Parallel.tabulate ~jobs nb (fun i -> build (base + i)) in
    (* sequential fold: anchor interning and index updates happen in
       chain order, independent of the worker count above *)
    Array.iteri
      (fun i b ->
        let j = base + i in
        let expired = j >= assigned in
        let anchor_id =
          match b.anchor with
          | Some key -> Interner.intern interner key
          | None -> -1
        in
        let flags =
          (if expired then Arena.flag_expired else 0)
          lor
          if Bytes.get p_via j <> '\000' then Arena.flag_via_intermediate else 0
        in
        let not_before, not_after = validity expired in
        let (_ : int) =
          Arena.append arena ~der:b.der ~subject_id:(-1) ~issuer_id:p_issuer.(j)
            ~anchor_id ~not_before ~not_after ~flags ~key_fp:b.key_fp
        in
        Coverage.append coverage ~anchor:anchor_id ~expired)
      batch;
    lo := base + nb
  done;
  Obs.set_gauge chains_gauge total;
  {
    universe;
    arena;
    inter_certs = Array.map (fun a -> a.Authority.certificate) intermediates;
    scale = float_of_int leaves /. float_of_int PD.notary_unexpired_certs;
    interner;
    coverage;
  }

let arena t = t.arena

let total t = Arena.length t.arena

let unexpired t = Coverage.unexpired t.coverage

let anchor_id t i = Arena.anchor_id t.arena i

let anchor_key t i =
  let a = Arena.anchor_id t.arena i in
  if a >= 0 then Some (Interner.key t.interner a) else None

let chain_expired t i = Arena.expired t.arena i

let via_intermediate t i = Arena.via_intermediate t.arena i

let chain t i =
  let leaf =
    match Arena.decode t.arena i with
    | Ok c -> c
    | Error e -> invalid_arg (Printf.sprintf "Notary.chain %d: %s" i e)
  in
  let intermediates =
    if Arena.via_intermediate t.arena i then
      [ t.inter_certs.(Arena.issuer_id t.arena i) ]
    else []
  in
  {
    leaf;
    intermediates;
    expired = Arena.expired t.arena i;
    anchor = anchor_key t i;
  }

let store_ids t store = Rs.id_set t.interner store

let validated_by_ids t set = Coverage.validated_by t.coverage set

let validated_by_store t store = validated_by_ids t (store_ids t store)

let count_for_id t id = Coverage.count t.coverage id

let per_root_counts t =
  let tbl = Hashtbl.create 512 in
  for id = 0 to Interner.cardinal t.interner - 1 do
    let c = Coverage.count t.coverage id in
    if c > 0 then Hashtbl.replace tbl (Interner.key t.interner id) c
  done;
  tbl

let counts_for_certs t certs =
  certs
  |> List.map (fun cert ->
         match Interner.find t.interner (C.equivalence_key cert) with
         | Some id -> float_of_int (Coverage.count t.coverage id)
         | None -> 0.0)
  |> Array.of_list

let has_record t cert =
  let key = C.equivalence_key cert in
  (* mirrored official stores *)
  Rs.mem_key t.universe.BP.mozilla key
  || Rs.mem_key t.universe.BP.ios7 key
  || List.exists
       (fun v -> Rs.mem_key (t.universe.BP.aosp v) key)
       PD.android_versions
  ||
  (* or seen anchoring live traffic *)
  match BP.find_root_by_key t.universe key with
  | Some r -> r.BP.traffic_weight > 0.0
  | None -> false

let classify t cert =
  let key = C.equivalence_key cert in
  let in_mozilla = Rs.mem_key t.universe.BP.mozilla key in
  let in_ios = Rs.mem_key t.universe.BP.ios7 key in
  if in_mozilla && in_ios then PD.Mozilla_and_ios
  else if in_ios then PD.Ios_only
  else if has_record t cert then PD.Android_only
  else PD.Unrecorded

let crosscheck t store ~sample ~seed =
  let rng = Prng.create seed in
  let now = Ts.paper_epoch in
  let ids = store_ids t store in
  let ok = ref true in
  for _ = 1 to sample do
    let i = Prng.int rng (total t) in
    let c = chain t i in
    (* the production path: anchor-id membership against the columns *)
    let fast =
      (not (Arena.expired t.arena i)) && Id_set.mem ids (Arena.anchor_id t.arena i)
    in
    let slow =
      (not c.expired)
      && Chain.anchor_id ~interner:t.interner ~now ~store
           (c.leaf :: c.intermediates)
         <> None
    in
    if fast <> slow then ok := false
  done;
  !ok
