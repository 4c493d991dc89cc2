(* The `serve` workload: handset trust decisions against an in-process
   server.  Frames go through [Serve.serve_burst] in bursts of at most
   32, the way [serve_channel] reads them.  The server is driven
   in-process because [serve_channel] blocks until it has read a whole
   batch, so a client sending one frame at a time would get no reply.

   Traffic (shares per 10 000 requests):
   - 7 500 validate: a corpus chain drawn by Zipf popularity against a
     uniformly drawn handset's store.  The (chain, handset) key space is
     far wider than the decision cache; popular leaves stay in the
     verify memo and the long tail pays an RSA verify.
   - 2 500 dashboard reads over small parameter sets (diff 600,
     coverage 600, ct-inclusion 300, ct-consistency 300,
     ct-visibility 300, stores 200, health 200).
   - every 2 048th request is instead a reload of the world's own store
     dump: the write path (ingest, arena append, an epoch roll that
     empties the decision cache).

   Phase (a) is a closed loop: one 32-frame burst outstanding at a time.
   Phase (b) is an open loop at a fixed Poisson rate well below (a)'s
   throughput; its latencies run from each request's due time. *)

open Perfbench_kit
open Common
module BP = Tangled_pki.Blueprint
module P = Tangled_core.Pipeline
module Pop = Tangled_device.Population
module Notary = Tangled_notary.Notary
module Serve = Tangled_serve.Serve
module C = Tangled_x509.Certificate
module Chain = Tangled_validation.Chain
module J = Tangled_util.Json
module Hex = Tangled_util.Hex
module Fleet = Tangled_ct.Fleet
module Ct_log = Tangled_ct.Log
module Proof = Tangled_ct.Proof
module Obs = Tangled_obs.Obs
module Cache = Tangled_cache.Cache

let sessions = 2_000
let leaves = 10_000
let max_burst = 32
let reload_every = 2_048
let zipf_exponent = 1.0
let warm_requests = 4_000

(* Phase (b)'s offered load, requests/s: a sixth of phase (a)'s
   throughput on a calm 2-core host and a third when the host runs at
   half speed, so a host slowdown cannot tip it into overload. *)
let open_rate = 2_500.0

(* share of the timed seconds given to the closed loop; the rest is the
   open loop *)
let closed_share = 0.3

(* closed-loop throughput is taken per window of 64 bursts, which holds
   exactly one reload, and reported as the interquartile mean of the
   windows *)
let window_bursts = reload_every / max_burst

type kind =
  | Validate of int * int  (** handset, chain *)
  | Diff of string
  | Coverage of string
  | Ct_inclusion of string * int
  | Ct_consistency of string * int * int
  | Ct_visibility of string
  | Stores
  | Health
  | Reload

let mix = [ (`Validate, 7500); (`Diff, 600); (`Coverage, 600); (`Ct_inclusion, 300);
            (`Ct_consistency, 300); (`Ct_visibility, 300); (`Stores, 200); (`Health, 200) ]

type env = { world : P.t; server : Serve.t }

(* The world and the chains' popularity ranking are fixed; the run's
   seed draws the traffic.  A few chains take a large share of a Zipf
   stream, so letting the seed pick them would make a run's cost depend
   on which chains those are. *)
let world_seed = 2
let ranking_seed = 3

let setup ?universe () =
  let u = match universe with Some u -> u | None -> BP.build ~seed:1 () in
  let config =
    { P.quick_config with P.seed = world_seed; sessions; notary_leaves = leaves; jobs = 1 }
  in
  let world = P.run ~config ~universe:u () in
  { world; server = Serve.create world }

(* --- the request stream ------------------------------------------------ *)

type traffic = {
  env : env;
  rng : Rng.t;
  chain_json : string array;  (** per corpus chain: ["leafhex", ...] *)
  rank_to_chain : int array;  (** popularity rank -> corpus chain *)
  zipf : Rng.zipf;
  n_handsets : int;
  diff_stores : string array;
  roots : string array;
  ct_incl : (string * int) array;
  ct_cons : (string * int * int) array;
  ct_vis : string array;
  reload_tail : string;  (** everything after the id of a reload frame *)
  reload_offset : int;
  mutable next_id : int;
}

let hex_chain n i =
  let c = Notary.chain n i in
  List.map (fun cert -> Hex.encode cert.C.raw) (c.Notary.leaf :: c.Notary.intermediates)

let traffic env ~seed =
  let n = env.world.P.notary in
  let total = Notary.total n in
  let chain_json =
    Array.init total (fun i ->
        "[" ^ String.concat "," (List.map (fun h -> "\"" ^ h ^ "\"") (hex_chain n i)) ^ "]")
  in
  let rank_to_chain = Array.init total Fun.id in
  let shuffle = Rng.create ranking_seed in
  for i = total - 1 downto 1 do
    let j = Rng.int shuffle (i + 1) in
    let t = rank_to_chain.(i) in
    rank_to_chain.(i) <- rank_to_chain.(j);
    rank_to_chain.(j) <- t
  done;
  let rng = Rng.create (Rng.derive seed 300) in
  let n_handsets = Array.length env.world.P.population.Pop.handsets in
  let handset () = Printf.sprintf "handset:%d" (Rng.int rng n_handsets) in
  let fleet = Option.get (Serve.ct_fleet env.server) in
  let logs = Array.map (fun (e : Fleet.entry) -> (Ct_log.name e.Fleet.log, Ct_log.size e.Fleet.log))
      (Fleet.entries fleet) in
  let ct_incl =
    Array.concat
      (Array.to_list
         (Array.map (fun (name, size) -> Array.init 8 (fun k -> (name, k * size / 8))) logs))
  in
  let ct_cons =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (name, size) ->
              [| (name, size / 4, size / 2); (name, size / 2, size); (name, 1, size);
                 (name, size / 3, size) |])
            logs))
  in
  let u = env.world.P.universe in
  {
    env;
    rng;
    chain_json;
    rank_to_chain;
    zipf = Rng.zipf_table total zipf_exponent;
    n_handsets;
    diff_stores =
      Array.append [| "aosp41"; "aosp42"; "aosp43"; "mozilla"; "ios7" |] (Array.init 8 (fun _ -> handset ()));
    roots = Array.map (fun (r : BP.root) -> r.BP.display_name) (Array.sub u.BP.roots 0 16);
    ct_incl;
    ct_cons;
    ct_vis = Array.append [| "aosp44"; "mozilla"; "ios7" |] (Array.init 4 (fun _ -> handset ()));
    reload_tail =
      Printf.sprintf ",\"op\":\"reload\",\"payload\":%s}"
        (json_string (Tangled_core.Export.stores_jsonl env.world));
    reload_offset = Rng.int rng reload_every;
    next_id = 0;
  }

let pick t a = a.(Rng.int t.rng (Array.length a))

let draw t id =
  if id mod reload_every = t.reload_offset then Reload
  else
    let u = Rng.int t.rng 10_000 in
    let rec choose acc = function
      | [] -> assert false
      | (k, share) :: rest -> if u < acc + share then k else choose (acc + share) rest
    in
    match choose 0 mix with
    | `Validate ->
        let h = Rng.int t.rng t.n_handsets in
        Validate (h, t.rank_to_chain.(Rng.zipf t.rng t.zipf))
    | `Diff -> Diff (pick t t.diff_stores)
    | `Coverage -> Coverage (pick t t.roots)
    | `Ct_inclusion -> let l, i = pick t t.ct_incl in Ct_inclusion (l, i)
    | `Ct_consistency -> let l, a, b = pick t t.ct_cons in Ct_consistency (l, a, b)
    | `Ct_visibility -> Ct_visibility (pick t t.ct_vis)
    | `Stores -> Stores
    | `Health -> Health

let frame t id = function
  | Validate (h, c) ->
      Printf.sprintf "{\"id\":%d,\"op\":\"validate\",\"store\":\"handset:%d\",\"chain\":%s}" id h
        t.chain_json.(c)
  | Diff s ->
      Printf.sprintf "{\"id\":%d,\"op\":\"diff\",\"store\":%s,\"baseline\":\"aosp44\"}" id
        (json_string s)
  | Coverage r -> Printf.sprintf "{\"id\":%d,\"op\":\"coverage\",\"root\":%s}" id (json_string r)
  | Ct_inclusion (l, i) ->
      Printf.sprintf "{\"id\":%d,\"op\":\"ct-inclusion\",\"log\":\"%s\",\"index\":%d}" id l i
  | Ct_consistency (l, a, b) ->
      Printf.sprintf "{\"id\":%d,\"op\":\"ct-consistency\",\"log\":\"%s\",\"first\":%d,\"second\":%d}"
        id l a b
  | Ct_visibility s ->
      Printf.sprintf "{\"id\":%d,\"op\":\"ct-visibility\",\"store\":%s}" id (json_string s)
  | Stores -> Printf.sprintf "{\"id\":%d,\"op\":\"stores\"}" id
  | Health -> Printf.sprintf "{\"id\":%d,\"op\":\"health\"}" id
  | Reload -> Printf.sprintf "{\"id\":%d%s" id t.reload_tail

(* --- answering and checking ----------------------------------------------- *)

type sent = { chk : checks; mutable samples : (kind * string) list; mutable reload_bursts : float list }

(* Keep every 61st validate and every 7th ct proof for re-checking after
   the timed phases. *)
let sampled id = function
  | Validate _ -> id mod 61 = 0
  | Ct_inclusion _ | Ct_consistency _ -> id mod 7 = 0
  | _ -> false

let clip s = if String.length s > 160 then String.sub s 0 160 else s

let response_ok id resp =
  String.starts_with ~prefix:(Printf.sprintf "{\"id\":%d,\"status\":\"ok\"" id) resp
  ||
  match J.parse resp with
  | Ok v -> J.member "id" v = Some (J.Int id) && J.member "status" v = Some (J.String "ok")
  | Error _ -> false

(* Send the next [count] requests as one burst; returns its wall time. *)
let burst t sent count =
  let ids = Array.init count (fun k -> t.next_id + k) in
  t.next_id <- t.next_id + count;
  let kinds = Array.map (draw t) ids in
  let frames = List.init count (fun k -> frame t ids.(k) kinds.(k)) in
  let t0 = now () in
  let responses = Serve.serve_burst t.env.server frames in
  let dt = now () -. t0 in
  sent.chk.attempted <- sent.chk.attempted + count;
  List.iteri
    (fun k resp ->
      let id = ids.(k) in
      if not (response_ok id resp) then
        fail sent.chk "request %d: not ok: %s" id (clip resp)
      else if sampled id kinds.(k) then sent.samples <- (kinds.(k), resp) :: sent.samples)
    responses;
  if Array.exists (fun k -> k = Reload) kinds then sent.reload_bursts <- dt :: sent.reload_bursts;
  dt

let str_member k v = match J.member k v with Some (J.String s) -> Some s | _ -> None
let int_member k v = match J.member k v with Some (J.Int i) -> Some i | _ -> None

let hex_list v =
  match J.member "proof" v with
  | Some (J.List l) ->
      Some (List.filter_map (function J.String h -> Hex.decode_opt h | _ -> None) l)
  | _ -> None

(* Re-derive each sampled answer without the server: validate verdicts
   through a direct [Chain.validate], ct proofs through the pure
   verifier. *)
let verify_samples t sent =
  let w = t.env.world in
  let fleet = Option.get (Serve.ct_fleet t.env.server) in
  let result resp =
    match J.parse resp with Ok v -> J.member "result" v | Error _ -> None
  in
  List.iter
    (fun (kind, resp) ->
      let ok =
        match (kind, result resp) with
        | _, None -> false
        | Validate (h, c), Some r ->
            let chain = Notary.chain w.P.notary c in
            let store = w.P.population.Pop.handsets.(h).Pop.store in
            let direct =
              Chain.validate ~now:Tangled_util.Timestamp.paper_epoch ~store
                (chain.Notary.leaf :: chain.Notary.intermediates)
            in
            let verdict, anchor =
              match direct.Chain.verdict with
              | Ok root -> ("trusted", J.String (C.subject_hash32 root))
              | Error f -> (Chain.failure_to_string f, J.Null)
            in
            str_member "verdict" r = Some verdict && J.member "anchor" r = Some anchor
        | Ct_inclusion (l, i), Some r -> (
            let e = Option.get (Fleet.find_log fleet l) in
            match (int_member "tree_size" r, str_member "root" r, hex_list r) with
            | Some size, Some root, Some proof -> (
                match (Fleet.leaf_der fleet e i, Hex.decode_opt root) with
                | Some leaf, Some root ->
                    int_member "index" r = Some i
                    && Proof.verify_inclusion ~leaf ~index:i ~tree_size:size ~proof ~root
                    && Ct_log.head_at e.Fleet.log size = Ok root
                | _ -> false)
            | _ -> false)
        | Ct_consistency (l, a, b), Some r -> (
            let e = Option.get (Fleet.find_log fleet l) in
            match
              ( Option.bind (str_member "first_root" r) Hex.decode_opt,
                Option.bind (str_member "second_root" r) Hex.decode_opt,
                hex_list r )
            with
            | Some first_root, Some second_root, Some proof ->
                Proof.verify_consistency ~first:a ~second:b ~first_root ~second_root ~proof
                && Ct_log.head_at e.Fleet.log a = Ok first_root
                && Ct_log.head_at e.Fleet.log b = Ok second_root
            | _ -> false)
        | _ -> true
      in
      if not ok then fail sent.chk "wrong answer: %s" (clip resp))
    sent.samples

(* --- the phases ------------------------------------------------------------- *)

type closed = { window_rates : float array; recording : bool array }

(* Phase (a).  With [alternate_obs], windows come in pairs, one with the
   library's recording on and one with it off ([obs_on_for]), for the
   traced run's overhead. *)
let closed_loop ?(alternate_obs = false) t sent ~seconds =
  let rates = ref [] and ons = ref [] in
  let t_end = now () +. seconds in
  let w = ref 0 in
  while now () < t_end || !rates = [] || (alternate_obs && !w mod 2 = 1) do
    let on = (not alternate_obs) || obs_on_for !w in
    Obs.set_enabled on;
    let busy = ref 0.0 in
    for _ = 1 to window_bursts do
      busy := !busy +. burst t sent max_burst
    done;
    Obs.set_enabled true;
    rates := (float_of_int (window_bursts * max_burst) /. !busy) :: !rates;
    ons := on :: !ons;
    incr w
  done;
  { window_rates = Array.of_list (List.rev !rates); recording = Array.of_list (List.rev !ons) }

let open_loop t sent ~seed ~seconds =
  let schedule = Openloop.poisson_schedule ~seed:(Rng.derive seed 400) ~rate:open_rate ~duration:seconds in
  let busy = ref 0.0 in
  let r =
    Openloop.run ~max_burst ~clock:now ~wait_until:Openloop.wait_until ~duration:seconds ~schedule
      (fun _ count -> busy := !busy +. burst t sent count)
  in
  (r, !busy)

(* Library counters read around the open loop for the traced run. *)
type counters = {
  hists : (string * Obs.histogram_snapshot) list;  (** serve.latency.<class> *)
  cache : Cache.stats option;
  memo : int * int;  (** verify memo hits, misses *)
  modpows : int;
}

let classes = [ "validate"; "diff"; "coverage"; "ct"; "stores"; "health"; "admin"; "malformed" ]
let modpow_count () = (Obs.histogram_snapshot (Obs.histogram "montgomery.modpow_bits")).Obs.total

let counters env =
  {
    hists =
      List.map (fun c -> (c, Obs.histogram_snapshot (Obs.histogram ("serve.latency." ^ c)))) classes;
    cache = Serve.cache_stats env.server;
    memo = Chain.verify_cache_stats ();
    modpows = modpow_count ();
  }

type run = {
  closed : closed;
  opened : Openloop.result;
  open_busy_s : float;
  sent : sent;
  peak_mb : float;  (** peak RSS over the timed phases *)
  before_open : counters;
  after_open : counters;
}

let run chk ?(alternate_obs = false) ~seed ~seconds env =
  let t = traffic env ~seed in
  let sent = { chk; samples = []; reload_bursts = [] } in
  for _ = 1 to warm_requests / max_burst do
    ignore (burst t sent max_burst)
  done;
  sent.reload_bursts <- [];
  reset_peak_rss ();
  let closed = closed_loop ~alternate_obs t sent ~seconds:(seconds *. closed_share) in
  let before_open = counters env in
  let opened, open_busy_s = open_loop t sent ~seed ~seconds:(seconds *. (1.0 -. closed_share)) in
  let after_open = counters env in
  let peak_mb = peak_rss_mb () in
  let s = Serve.summary env.server in
  if not (Serve.reconciled s) then fail chk "server control totals do not reconcile";
  if s.Serve.seen <> t.next_id || s.Serve.answered <> t.next_id then
    fail chk "server saw %d and answered %d of %d requests" s.Serve.seen s.Serve.answered t.next_id;
  if s.Serve.reloads_accepted <> (t.next_id + reload_every - 1 - t.reload_offset) / reload_every then
    fail chk "%d reloads accepted" s.Serve.reloads_accepted;
  verify_samples t sent;
  ({ closed; opened; open_busy_s; sent; peak_mb; before_open; after_open }, t)

let ms a = Array.map (fun x -> x *. 1000.0) a
let quantile_or_zero a p = if Array.length a = 0 then 0.0 else Stats.quantile a p

(* Tail latency: the p99 of each run of [reload_every] consecutive
   requests (each holds exactly one reload stall, with 20 samples beyond
   its p99), then the mean of the middle half of those p99s, so a host
   stall moves one chunk's p99 rather than the whole run's. *)
let chunked_p99 lat =
  let chunks = Array.length lat / reload_every in
  if chunks = 0 then Stats.quantile lat 0.99
  else
    Stats.interquartile_mean
      (Array.init chunks (fun k ->
           Stats.quantile (Array.sub lat (k * reload_every) reload_every) 0.99))

let end_to_end r =
  let lat = ms r.opened.Openloop.latency in
  [
    metric "throughput_per_s" "1/s" (Stats.interquartile_mean r.closed.window_rates);
    metric "latency_p50_ms" "ms" (Stats.quantile lat 0.50);
    metric "latency_p99_ms" "ms" (chunked_p99 lat);
    metric "peak_rss_mb" "MB" r.peak_mb;
  ]

let notes r =
  let o = r.opened in
  [
    ("closed-loop windows", Printf.sprintf "%d x %d requests" (Array.length r.closed.window_rates)
       (window_bursts * max_burst));
    ("open-loop requests", Printf.sprintf "%d at %.0f/s in %d bursts" (Array.length o.Openloop.latency)
       open_rate o.Openloop.bursts);
    ("open-loop p99 over the whole phase", Printf.sprintf "%.3f ms"
       (Stats.quantile (ms o.Openloop.latency) 0.99));
    ("open-loop backlog at end", Printf.sprintf "%d (drained in %.2f ms)" o.Openloop.backlog_at_end
       (o.Openloop.drain_s *. 1000.0));
    ("open-loop generator lag p99", Printf.sprintf "%.3f ms"
       (quantile_or_zero (ms o.Openloop.lag) 0.99));
    ("samples re-verified", string_of_int (List.length r.sent.samples));
  ]

(* Per-layer numbers over the open loop (recording on throughout).
   Layer self time is the server's per-class time from its own
   serve.latency.<class> histograms; what the bursts took beyond it
   (admission, response lists) is unattributed. *)
let layers r =
  let b = r.before_open and a = r.after_open in
  let delta cls =
    let s0 = List.assoc cls b.hists and s1 = List.assoc cls a.hists in
    { s1 with Obs.counts = Array.mapi (fun i c -> c - s0.Obs.counts.(i)) s1.Obs.counts;
              total = s1.Obs.total - s0.Obs.total; sum = s1.Obs.sum -. s0.Obs.sum }
  in
  let requests = float_of_int (Array.length r.opened.Openloop.latency) in
  let shares = List.map (fun c -> ("serve." ^ c, (delta c).Obs.sum /. r.open_busy_s)) classes in
  let unattributed = 1.0 -. List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
  let hits, misses, evictions =
    match (b.cache, a.cache) with
    | Some c0, Some c1 ->
        (c1.Cache.hits - c0.Cache.hits, c1.Cache.misses - c0.Cache.misses,
         c1.Cache.evictions - c0.Cache.evictions)
    | _ -> (0, 0, 0)
  in
  let ratio x y = if x + y = 0 then 0.0 else float_of_int x /. float_of_int (x + y) in
  let memo_hits = fst a.memo - fst b.memo and memo_misses = snd a.memo - snd b.memo in
  let metrics =
    List.map
      (fun c -> metric ("serve.class_p50_us." ^ c) "us" (Obs.quantile (delta c) 0.5 *. 1e6))
      [ "validate"; "diff"; "coverage"; "ct"; "stores"; "health"; "admin" ]
    @ [
        metric "serve.queue_wait_p99_ms" "ms" (quantile_or_zero (ms r.opened.Openloop.queue_wait) 0.99);
        metric "serve.generator_lag_ms" "ms" (quantile_or_zero (ms r.opened.Openloop.lag) 0.99);
        metric "serve.reload_ms" "ms" (quantile_or_zero (ms (Array.of_list r.sent.reload_bursts)) 0.5);
        metric "cache.decision_hit_ratio" "ratio" (ratio hits misses);
        metric "cache.decision_evictions_per_kreq" "count" (float_of_int evictions *. 1000.0 /. requests);
        metric "validation.verify_memo_hit_ratio" "ratio" (ratio memo_hits memo_misses);
        metric "numeric.modpow_per_op.serve" "count" (float_of_int (a.modpows - b.modpows) /. requests);
        metric "serve.unattributed_share" "ratio" unattributed;
      ]
  in
  (metrics, shares, unattributed)
