(* The `study` workload: the paper's own job.  One operation builds a
   fresh quick-size world (2 000 sessions, 2 000 Notary leaves, one
   domain) over the shared PKI universe and renders the full report. *)

open Perfbench_kit
open Common
module P = Tangled_core.Pipeline
module Report = Tangled_core.Report
module Chain = Tangled_validation.Chain
module Obs = Tangled_obs.Obs

let golden_file = "test/report_quick_jobs1.sha256"

(* The golden digest pins the seed-1 world; later operations cycle over
   six seeds drawn from the run's seed, so each seed is studied several
   times and its digest must repeat exactly.  Worlds differ in cost by
   up to about 10 %, and six of them keep a run's median from leaning
   on the few it drew. *)
let golden_seed = 1
let seeds_per_run = 6

let world_seeds seed = Array.init seeds_per_run (fun k -> 2 + (Rng.derive seed k mod 1_000_000))
let config seed = { P.quick_config with P.seed; jobs = 1 }
let digest s = Tangled_util.Hex.encode (Tangled_hash.Sha256.digest s)

type op = {
  seed : int;
  pipeline_s : float;
  report_s : float;
  stages : (string * float) list;  (** the pipeline's own stage spans *)
  obs_on : bool;
  peak_mb : float;  (** peak RSS during the study *)
}

let op_s o = o.pipeline_s +. o.report_s

let read_golden chk =
  match In_channel.with_open_text golden_file In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error e ->
      fail chk "golden digest unreadable: %s" e;
      None

(* One study.  The verify memo is emptied first so a repeated seed pays
   the same cold cost as its first study did. *)
let study u seed =
  Chain.clear_verify_cache ();
  let w, pipeline_s = timed (fun () -> P.run ~config:(config seed) ~universe:u ()) in
  let report, report_s = timed (fun () -> Report.run_all w) in
  let stages = List.map (fun (s : Obs.span) -> (s.Obs.name, s.Obs.dur_s)) w.P.timings in
  (w, report, pipeline_s, report_s, stages)

(* Run studies until [seconds] have passed (at least [min_ops]).  With
   [alternate_obs] studies come in pairs on one seed, one with the
   library's recording on and one with it off ([obs_on_for]), for the
   traced run's overhead figure.  Only the last study's world is kept
   (the traced run renders from it); the one before is dropped and the
   heap compacted before each study, so its peak RSS covers one world. *)
let run chk ?(min_ops = 1) ?(alternate_obs = false) ~seed ~seconds u =
  let golden = read_golden chk in
  let seeds = world_seeds seed in
  let seen = Hashtbl.create 8 in
  let ops = ref [] and last_world = ref None in
  let t_start = now () in
  let i = ref 0 in
  while !i < min_ops || now () -. t_start < seconds do
    let slot = if alternate_obs then !i / 2 else !i in
    let s = if slot = 0 then golden_seed else seeds.((slot - 1) mod seeds_per_run) in
    let obs_on = (not alternate_obs) || obs_on_for !i in
    last_world := None;
    Gc.compact ();
    Obs.set_enabled obs_on;
    reset_peak_rss ();
    let w, report, pipeline_s, report_s, stages = study u s in
    let peak_mb = peak_rss_mb () in
    Obs.set_enabled true;
    chk.attempted <- chk.attempted + 1;
    let d = digest report in
    (if s = golden_seed then
       match golden with
       | Some g when g <> d -> fail chk "seed 1 report digest %s differs from %s" d golden_file
       | _ -> ()
     else
       match Hashtbl.find_opt seen s with
       | Some d0 when d0 <> d -> fail chk "seed %d report digest changed: %s then %s" s d0 d
       | _ -> Hashtbl.replace seen s d);
    ops := { seed = s; pipeline_s; report_s; stages; obs_on; peak_mb } :: !ops;
    last_world := Some w;
    incr i
  done;
  let ops = Array.of_list (List.rev !ops) in
  let notes =
    ("studies", Printf.sprintf "%d (seeds 1 %s)" (Array.length ops)
       (String.concat " " (Array.to_list (Array.map string_of_int seeds))))
    :: ("study seconds", String.concat " " (Array.to_list (Array.map (fun o -> Printf.sprintf "%.3f" (op_s o)) ops)))
    :: ("peak RSS MB", String.concat " " (Array.to_list (Array.map (fun o -> Printf.sprintf "%.1f" o.peak_mb) ops)))
    :: Hashtbl.fold (fun s d acc -> (Printf.sprintf "report digest seed %d" s, d) :: acc) seen []
  in
  (ops, Option.get !last_world, notes)

let end_to_end ops =
  [
    metric "throughput_per_s" "1/s" (1.0 /. Stats.median (Array.map op_s ops));
    metric "peak_rss_mb" "MB" (peak_rss_of (Array.map (fun o -> o.peak_mb) ops));
  ]

let stage o name = Option.value ~default:0.0 (List.assoc_opt name o.stages)

(* Per-layer numbers from the studies run with recording on ([modpows]
   is the Montgomery histogram's count over them), plus one
   timed render of each artefact over the last world.  Layer self time
   is the pipeline's stage spans and the harness-timed report; the
   remainder of each study's wall time is unattributed. *)
let layers ops w ~modpows =
  let on = Array.of_list (List.filter (fun o -> o.obs_on) (Array.to_list ops)) in
  let med f = Stats.median (Array.map f on) in
  let parts =
    [
      ("pki", fun o -> stage o "universe");
      ("device", fun o -> stage o "population");
      ("netalyzr", fun o -> stage o "netalyzr");
      ("notary", fun o -> stage o "notary");
      ("core", fun o -> o.report_s);
    ]
  in
  let wall = Stats.sum (Array.map op_s on) in
  let shares =
    List.map (fun (layer, f) -> (layer, Stats.sum (Array.map f on) /. wall)) parts
  in
  let unattributed = 1.0 -. List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
  let renders =
    List.map
      (fun name ->
        let _, dt = timed (fun () -> Report.render_one w name) in
        metric ("core.render_ms." ^ name) "ms" (dt *. 1000.0))
      (Report.artefact_names @ Report.extension_names)
  in
  let metrics =
    [
      metric "device.population_s" "s" (med (fun o -> stage o "population"));
      metric "netalyzr.collect_s" "s" (med (fun o -> stage o "netalyzr"));
      metric "numeric.modpow_per_op.study" "count"
        (float_of_int modpows /. float_of_int (Array.length on));
      metric "study.unattributed_share" "ratio" unattributed;
    ]
    @ renders
  in
  (metrics, shares, unattributed)
