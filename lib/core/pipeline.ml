module BP = Tangled_pki.Blueprint
module Pop = Tangled_device.Population
module Net = Tangled_netalyzr.Netalyzr
module Notary = Tangled_notary.Notary
module PD = Tangled_pki.Paper_data
module Obs = Tangled_obs.Obs
module Parallel = Tangled_engine.Parallel

type config = {
  seed : int;
  sessions : int;
  notary_leaves : int;
  expired_fraction : float;
  key_bits : int;
  probe_sample : float;
  jobs : int;
}

let default_config =
  {
    seed = 1;
    sessions = PD.total_sessions;
    notary_leaves = 10_000;
    expired_fraction = 0.10;
    key_bits = 384;
    probe_sample = 0.05;
    jobs = 0;
  }

let quick_config =
  { default_config with sessions = 2_000; notary_leaves = 2_000 }

type t = {
  config : config;
  jobs : int;
  universe : BP.t;
  population : Pop.t;
  dataset : Net.dataset;
  notary : Notary.t;
  timings : Obs.span list;
}

let run_lazy ?(config = default_config) ?universe () =
  let jobs = Parallel.resolve config.jobs in
  let stage_spans = ref [] in
  let stage name f =
    let v, s = Obs.spanned name f in
    stage_spans := s :: !stage_spans;
    v
  in
  let universe, population, dataset, notary =
    (* one root span per run; the four stages nest under it in the
       global span tree *)
    Obs.span "pipeline" (fun () ->
        let universe =
          stage "universe" (fun () ->
              match universe with
              | Some u -> Lazy.force u
              | None -> BP.build ~key_bits:config.key_bits ~seed:config.seed ())
        in
        let population =
          stage "population" (fun () ->
              Pop.generate ~target_sessions:config.sessions ~seed:(config.seed + 1)
                universe)
        in
        let dataset =
          stage "netalyzr" (fun () ->
              Net.collect ~probe_sample:config.probe_sample ~seed:(config.seed + 2)
                population)
        in
        let notary =
          (* generation streams into the arena and folds the coverage
             index incrementally — there is no separate index stage *)
          stage "notary" (fun () ->
              Notary.generate ~leaves:config.notary_leaves
                ~expired_fraction:config.expired_fraction ~jobs
                ~seed:(config.seed + 3) universe)
        in
        (universe, population, dataset, notary))
  in
  (* what consumes a world (reports, serve) runs on one domain, which
     idle Notary workers would slow at every minor collection *)
  Parallel.release ();
  { config; jobs; universe; population; dataset; notary;
    timings = List.rev !stage_spans }

let run ?config ?universe () =
  run_lazy ?config ?universe:(Option.map Lazy.from_val universe) ()

let quick = lazy (run_lazy ~config:quick_config ~universe:BP.default ())

let render_timings t =
  Obs.render_span_table
    ~title:(Printf.sprintf "Stage timings (jobs=%d)" t.jobs)
    (List.map (fun (s : Obs.span) -> (s.Obs.name, s.Obs.dur_s)) t.timings)
