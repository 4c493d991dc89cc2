(* The end-to-end benchmark.

     main.exe --workload (study|notary-build|notary-build-large|serve|all) --seed N
              --seconds S --trace (0|1)

   With --trace 0 a run sets up its workload (three times; the median is
   setup_s), measures it for S seconds, checks every output, and prints
   the end-to-end metrics.  With --trace 1 one process runs all three
   workloads traced and prints the per-layer metrics, whatever workload
   is named.  The last line of stdout is the result object; the exit
   code is non-zero when any correctness check failed. *)

open Perfbench_kit
open Common
module BP = Tangled_pki.Blueprint

let workloads = [ "study"; "notary-build"; "notary-build-large"; "serve" ]

(* Leaves per Notary build.  20 000 (22 000 chains) keep an operation
   near 2 s, so a run holds enough builds for its median to ride out the
   host's swings; the large corpus doubles the arena and coverage work
   per build while the per-build key pool stays the same. *)
let notary_leaves = [ ("notary-build", 20_000); ("notary-build-large", 40_000) ]

let universe () = BP.build ~seed:1 ()

let finish chk ~probe_before notes metrics =
  let probe_after = host_probe_ms () in
  {
    checks = chk;
    metrics;
    notes =
      ("host probe before/after", Printf.sprintf "%.1f / %.1f ms" probe_before probe_after) :: notes;
  }

let with_common chk ~probe_before ~setup notes metrics =
  let seconds = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup)) in
  finish chk ~probe_before
    (("set-up seconds", seconds) :: notes)
    (metrics @ [ metric "setup_s" "s" (Stats.median setup) ])

let end_to_end workload ~seed ~seconds =
  let chk = checks () in
  let probe_before = host_probe_ms () in
  match workload with
  | "study" ->
      let u, setup = setup_median universe in
      let ops, _, notes = Study.run chk ~min_ops:peak_ops ~seed ~seconds u in
      with_common chk ~probe_before ~setup notes (Study.end_to_end ops)
  | ("notary-build" | "notary-build-large") as w ->
      let leaves = List.assoc w notary_leaves in
      let u, setup = setup_median universe in
      let ops, notes = Notary_build.run chk ~min_ops:peak_ops ~leaves ~seed ~seconds u in
      with_common chk ~probe_before ~setup notes (Notary_build.end_to_end ops)
  | "serve" ->
      let env, setup = setup_median Serve_load.setup in
      let r, _ = Serve_load.run chk ~seed ~seconds env in
      with_common chk ~probe_before ~setup (Serve_load.notes r) (Serve_load.end_to_end r)
  | w -> invalid_arg ("unknown workload " ^ w)

(* What the library's own recording (lib/obs) costs, in % of
   throughput: the median over on/off pairs ([Common.obs_on_for]) of
   each pair's off-to-on rate ratio, so that the input's own cost and
   the host's drift cancel within a pair.  [ops] holds (recording on?,
   rate) per operation or window, in run order. *)
let overhead_pct ops =
  let pair p =
    let (on0, r0), (_, r1) = (ops.(2 * p), ops.((2 * p) + 1)) in
    if on0 then r1 /. r0 else r0 /. r1
  in
  (Stats.median (Array.init (Array.length ops / 2) pair) -. 1.0) *. 100.0

let shares_note name shares unattributed =
  ( name ^ " self-time shares",
    String.concat ", "
      (List.map (fun (l, s) -> Printf.sprintf "%s %.1f%%" l (s *. 100.0)) shares
      @ [ Printf.sprintf "unattributed %.1f%%" (unattributed *. 100.0) ]) )

let traced ~seed ~seconds =
  let chk = checks () in
  let probe_before = host_probe_ms () in
  let modpow = Serve_load.modpow_count in
  let u, universe_s = timed universe in
  let m0 = modpow () in
  let sops, world, _ = Study.run chk ~min_ops:10 ~alternate_obs:true ~seed ~seconds:0.0 u in
  let study_m, study_sh, study_un = Study.layers sops world ~modpows:(modpow () - m0) in
  let m1 = modpow () in
  let nops, _ = Notary_build.run chk ~min_ops:10 ~alternate_obs:true
      ~leaves:(List.assoc "notary-build" notary_leaves) ~seed ~seconds:0.0 u
  in
  let notary_m, notary_sh, notary_un = Notary_build.layers nops ~modpows:(modpow () - m1) in
  let env = Serve_load.setup ~universe:u () in
  let r, traffic = Serve_load.run chk ~alternate_obs:true ~seed ~seconds:(seconds /. 2.0) env in
  let serve_m, serve_sh, serve_un = Serve_load.layers r in
  let unit_costs = Layers.run env traffic in
  let overhead name ops = metric ("trace.overhead_pct." ^ name) "%" (overhead_pct ops) in
  let closed = r.Serve_load.closed in
  let overhead =
    [
      overhead "study" (Array.map (fun o -> (o.Study.obs_on, 1.0 /. Study.op_s o)) sops);
      overhead "notary-build"
        (Array.map (fun o -> (o.Notary_build.obs_on, Notary_build.certs_per_s o)) nops);
      overhead "serve" (Array.combine closed.Serve_load.recording closed.Serve_load.window_rates);
    ]
  in
  finish chk ~probe_before
    [
      shares_note "study" study_sh study_un;
      shares_note "notary-build" notary_sh notary_un;
      shares_note "serve" serve_sh serve_un;
    ]
    ((metric "pki.universe_s" "s" universe_s :: unit_costs)
    @ study_m @ notary_m @ serve_m @ overhead)

let usage () =
  prerr_endline
    "usage: main.exe --workload (study|notary-build|notary-build-large|serve|all) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let args = Hashtbl.create 4 in
  let rec parse = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k conv =
    match Option.bind (Hashtbl.find_opt args k) conv with Some v -> v | None -> usage ()
  in
  let workload = get "workload" Option.some in
  let seed = get "seed" int_of_string_opt in
  let seconds = get "seconds" float_of_string_opt in
  let trace = get "trace" int_of_string_opt in
  if not (List.mem workload ("all" :: workloads)) || seconds <= 0.0 || (trace <> 0 && trace <> 1)
  then usage ();
  let outcome =
    if trace = 1 then begin
      let o = traced ~seed ~seconds in
      print_report ~title:"traced run: study, notary-build, serve" o;
      o
    end
    else if workload = "all" then begin
      let parts =
        List.map
          (fun w ->
            let o = end_to_end w ~seed ~seconds in
            print_report ~title:w o;
            (w, o))
          workloads
      in
      let total f = List.fold_left (fun acc (_, o) -> acc + f o.checks) 0 parts in
      {
        checks =
          { attempted = total (fun c -> c.attempted); failed = total (fun c -> c.failed); problems = [] };
        notes = [];
        metrics =
          List.concat_map
            (fun (w, o) -> List.map (fun m -> { m with name = w ^ "." ^ m.name }) o.metrics)
            parts;
      }
    end
    else begin
      let o = end_to_end workload ~seed ~seconds in
      print_report ~title:workload o;
      o
    end
  in
  print_endline (result_line outcome);
  if outcome.checks.failed > 0 then exit 1
