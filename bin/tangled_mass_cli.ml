(* tangled-mass — command-line front end for the reproduction; the
   subcommands are listed in [main_cmd] at the end.  Stdout carries only
   each subcommand's output: logs, and report's observability section,
   go to stderr. *)

open Cmdliner

module Pipeline = Tangled_core.Pipeline
module Report = Tangled_core.Report
module Obs = Tangled_obs.Obs

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ~app:Format.err_formatter ())

let logs_term =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

let seed_arg =
  let doc = "Seed for the deterministic world generation." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let sessions_arg =
  let doc = "Number of Netalyzr sessions to simulate (paper: 15970)." in
  Arg.(value & opt int Pipeline.default_config.Pipeline.sessions
       & info [ "sessions" ] ~docv:"N" ~doc)

let leaves_arg =
  let doc =
    "Number of unexpired Notary leaf certificates (paper scale ~1000000; \
     the default trades absolute counts for runtime — fractions are \
     scale-invariant)."
  in
  Arg.(value & opt int Pipeline.default_config.Pipeline.notary_leaves
       & info [ "leaves" ] ~docv:"N" ~doc)

let key_bits_arg =
  let doc = "RSA modulus size for every generated key." in
  Arg.(value & opt int 384 & info [ "key-bits" ] ~docv:"BITS" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the Notary build phase; 0 (the default) picks \
     automatically from the machine's core count.  Output is byte-identical \
     at any value."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let csv_dir_arg =
  let doc = "Also dump each artefact's data as CSV into this directory." in
  Arg.(value & opt (some dir) None & info [ "csv-dir" ] ~docv:"DIR" ~doc)

(* Flags the measurement subcommands (report, chaos, ingest, serve, ct)
   accept uniformly, so instrumentation is driven the same way
   everywhere.  `ingest` takes --seed/--jobs for interface uniformity
   even though replaying a recorded dataset uses neither. *)
type common = { seed : int; jobs : int; trace_out : string option }

let trace_out_arg =
  let doc =
    "Write the run's observability trace (spans, counters, histograms, \
     events) as JSONL to $(docv).  Nondeterministic measurements live \
     under each line's 'volatile' member, so the rest of the trace is \
     byte-identical at any $(b,--jobs)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let common_term =
  let make seed jobs trace_out = { seed; jobs; trace_out } in
  Term.(const make $ seed_arg $ jobs_arg $ trace_out_arg)

let write_trace ~jobs common =
  match common.trace_out with
  | None -> ()
  | Some path ->
      let trace = Obs.trace_jsonl ~jobs () in
      (match Obs.validate_trace trace with
      | Ok () -> ()
      | Error e -> Logs.err (fun m -> m "trace failed self-validation: %s" e));
      Tangled_core.Export.write_text path trace;
      Logs.app (fun m -> m "wrote trace %s" path)

let config_of seed sessions leaves key_bits jobs =
  {
    Pipeline.default_config with
    Pipeline.seed;
    sessions;
    notary_leaves = leaves;
    key_bits;
    jobs;
  }

let build_world ?(jobs = 0) seed sessions leaves key_bits =
  Logs.app (fun m -> m "building world (seed %d, %d sessions, %d leaves, %d-bit keys)..."
               seed sessions leaves key_bits);
  let t0 = Unix.gettimeofday () in
  let world = Pipeline.run ~config:(config_of seed sessions leaves key_bits jobs) () in
  Logs.app (fun m -> m "world ready in %.1fs (jobs %d)"
               (Unix.gettimeofday () -. t0) world.Pipeline.jobs);
  world

(* --- report ------------------------------------------------------------ *)

let report_cmd =
  let names_arg =
    let names = Report.artefact_names @ Report.extension_names in
    let doc =
      "Artefacts to print, in the order given: "
      ^ Arg.doc_alts names
      ^ ".  With none, the full report: every artefact under its section \
         headers."
    in
    Arg.(value & pos_all (enum (List.map (fun n -> (n, n)) names)) []
         & info [] ~docv:"ARTEFACT" ~doc)
  in
  let run () common sessions leaves key_bits csv_dir names =
    let world = build_world ~jobs:common.jobs common.seed sessions leaves key_bits in
    print_string
      (match names with
      | [] -> Report.run_all ?csv_dir world
      | names -> Report.render ?csv_dir world names);
    prerr_string (Obs.render ());
    write_trace ~jobs:world.Pipeline.jobs common
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Print the study's tables, figures and extension analyses")
    Term.(const run $ logs_term $ common_term $ sessions_arg $ leaves_arg
          $ key_bits_arg $ csv_dir_arg $ names_arg)

(* --- stores ----------------------------------------------------------- *)

(* an official store of a freshly built universe, by its short name *)
let official_store ~seed ~key_bits name =
  let universe = Tangled_pki.Blueprint.build ~key_bits ~seed () in
  match Tangled_pki.Blueprint.store_of_name universe name with
  | Some store -> store
  | None -> invalid_arg ("unknown store " ^ name)

let stores_cmd =
  let store_arg =
    let doc = "Which store to show: aosp41, aosp42, aosp43, aosp44, mozilla, ios7." in
    Arg.(value & opt string "aosp44" & info [ "store" ] ~docv:"NAME" ~doc)
  in
  let pem_arg =
    let doc = "Dump the store as concatenated PEM on stdout." in
    Arg.(value & flag & info [ "pem" ] ~doc)
  in
  let cacerts_arg =
    let doc =
      "Write the store as an Android cacerts directory (one <hash>.N PEM file \
       per root, like /system/etc/security/cacerts)."
    in
    Arg.(value & opt (some string) None & info [ "cacerts-dir" ] ~docv:"DIR" ~doc)
  in
  let run () seed key_bits store pem cacerts_dir =
    let module Rs = Tangled_store.Root_store in
    let target = official_store ~seed ~key_bits store in
    match cacerts_dir with
    | Some dir -> (
        match Tangled_store.Cacerts_dir.write target dir with
        | Ok n -> Printf.printf "wrote %d certificates to %s\n" n dir
        | Error m ->
            prerr_endline ("stores: " ^ m);
            exit 1)
    | None ->
        if pem then print_string (Rs.to_pem target)
        else begin
          Printf.printf "%s: %d certificates\n" (Rs.name target) (Rs.cardinal target);
          List.iter
            (fun c ->
              Printf.printf "  %s  %s\n"
                (Tangled_x509.Certificate.subject_hash32 c)
                (Tangled_x509.Dn.to_string c.Tangled_x509.Certificate.subject))
            (Rs.certs target)
        end
  in
  Cmd.v
    (Cmd.info "stores" ~doc:"Inspect the synthetic official root stores")
    Term.(const run $ logs_term $ seed_arg $ key_bits_arg $ store_arg $ pem_arg
          $ cacerts_arg)

(* --- export ------------------------------------------------------------- *)

let export_cmd =
  let what_arg =
    let doc = "What to export: sessions, notary, or stores." in
    Arg.(value & opt string "sessions" & info [ "what" ] ~docv:"KIND" ~doc)
  in
  let out_arg =
    let doc = "Output file (defaults to <kind>.json in the working directory)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let limit_arg =
    let doc = "Truncate record lists to the first N entries." in
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,json) (one pretty document) or $(b,jsonl) (manifest \
       line followed by one record per line — the form the ingestion layer \
       prefers)."
    in
    Arg.(value
         & opt (enum [ ("json", "json"); ("jsonl", "jsonl") ]) "json"
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let run () seed sessions leaves key_bits what out limit format =
    let world = build_world seed sessions leaves key_bits in
    let module Export = Tangled_core.Export in
    let ext, contents =
      match (what, format) with
      | "sessions", "json" ->
          (".json", Tangled_util.Json.to_string ~pretty:true
                      (Export.sessions_json ?limit world) ^ "\n")
      | "notary", "json" ->
          (".json", Tangled_util.Json.to_string ~pretty:true
                      (Export.notary_json ?limit world) ^ "\n")
      | "stores", "json" ->
          (".json", Tangled_util.Json.to_string ~pretty:true
                      (Export.stores_json world) ^ "\n")
      | "sessions", "jsonl" -> (".jsonl", Export.sessions_jsonl ?limit world)
      | "notary", "jsonl" -> (".jsonl", Export.notary_jsonl ?limit world)
      | "stores", "jsonl" -> (".jsonl", Export.stores_jsonl world)
      | _, ("json" | "jsonl") -> invalid_arg ("unknown export kind " ^ what)
      | _ -> invalid_arg ("unknown export format " ^ format)
    in
    let path = Option.value ~default:(what ^ ext) out in
    Export.write_text path contents;
    Logs.app (fun m -> m "wrote %s" path)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the datasets as JSON (session log, notary DB, stores)")
    Term.(const run $ logs_term $ seed_arg $ sessions_arg $ leaves_arg
          $ key_bits_arg $ what_arg $ out_arg $ limit_arg $ format_arg)

(* --- ingest ------------------------------------------------------------- *)

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ingest_cmd =
  let module Ingest = Tangled_ingest.Ingest in
  let module J = Tangled_util.Json in
  let module T = Tangled_util.Text_table in
  let file_arg =
    let doc = "Dataset to ingest: a .json document or .jsonl record stream." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let kind_arg =
    let doc = "Record schema: sessions, notary, stores, or auto (detect)." in
    Arg.(value & opt string "auto" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let detect_kind input =
    (* the manifest's "kind" tag, wherever the manifest lives *)
    let header_kind json =
      match J.member "kind" json with Some (J.String k) -> Some k | _ -> None
    in
    let from_doc json =
      match header_kind json with
      | Some k -> Some k
      | None ->
          if J.member "sessions" json <> None then Some "sessions"
          else if J.member "chains" json <> None then Some "notary"
          else if J.member "stores" json <> None then Some "stores"
          else None
    in
    match J.parse input with
    | Ok json -> from_doc json
    | Error _ -> (
        match String.index_opt input '\n' with
        | None -> None
        | Some i -> (
            match J.parse (String.sub input 0 i) with
            | Ok json -> from_doc json
            | Error _ -> None))
  in
  let run () common file kind =
    let input = read_whole_file file in
    let kind =
      match kind with
      | "auto" -> (
          match detect_kind input with
          | Some k -> k
          | None ->
              Logs.warn (fun m ->
                  m "cannot detect dataset kind; assuming sessions");
              "sessions")
      | k -> k
    in
    (* CLI-only: the input digest stays out of render_stats so report
       artefacts remain byte-stable *)
    let print_digest (stats : Ingest.stats) =
      Printf.printf "input sha256: %s\n" stats.Ingest.input_sha256
    in
    (match kind with
    | "sessions" ->
        let r = Ingest.sessions_of_string input in
        print_endline (Ingest.render_stats ~title:("Session-log ingest: " ^ file) r);
        print_digest r.Ingest.stats;
        print_endline
          (T.render_kv ~title:"Recomputed headline aggregates"
             [
               ("sessions", T.fmt_int (Ingest.total_sessions r));
               ("estimated handsets", T.fmt_int (Ingest.estimated_handsets r));
               ("extended-store fraction", T.fmt_pct (Ingest.extended_fraction r));
               ("rooted fraction", T.fmt_pct (Ingest.rooted_fraction r));
               ("intercepted sessions", T.fmt_int (Ingest.intercepted_sessions r));
             ])
    | "notary" ->
        let r = Ingest.notary_of_string input in
        print_endline (Ingest.render_stats ~title:("Notary-DB ingest: " ^ file) r);
        print_digest r.Ingest.stats;
        print_endline
          (T.render_kv ~title:"Recomputed headline aggregates"
             [
               ("chains", T.fmt_int (Ingest.total_chains r));
               ("unexpired", T.fmt_int (Ingest.unexpired r));
               ("validated fraction", T.fmt_pct (Ingest.validated_fraction r));
               ( "via-intermediate fraction",
                 T.fmt_pct (Ingest.via_intermediate_fraction r) );
             ])
    | "stores" ->
        let r = Ingest.stores_of_string input in
        print_endline (Ingest.render_stats ~title:("Store-dump ingest: " ^ file) r);
        print_digest r.Ingest.stats;
        print_endline
          (T.render ~title:"Store sizes (Table 1 from ingested data)"
             ~aligns:[ T.Left; T.Right ]
             ~header:[ "store"; "certificates" ]
             (List.map
                (fun (s, n) -> [ s; string_of_int n ])
                (Ingest.store_sizes r)))
    | other -> invalid_arg ("unknown ingest kind " ^ other));
    write_trace ~jobs:common.jobs common
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Re-ingest an exported dataset record-by-record: validate, \
          quarantine, dedup, reconcile against the manifest")
    Term.(const run $ logs_term $ common_term $ file_arg $ kind_arg)

(* --- chaos --------------------------------------------------------------- *)

let chaos_cmd =
  let rate_arg =
    let doc = "Per-record fault probability." in
    Arg.(value & opt float 0.05 & info [ "rate" ] ~docv:"P" ~doc)
  in
  let fault_seed_arg =
    let doc = "Seed of the fault-injection PRNG (independent of the world seed)." in
    Arg.(value & opt int 12 & info [ "fault-seed" ] ~docv:"SEED" ~doc)
  in
  let tolerance_arg =
    let doc = "Maximum relative drift allowed in the headline numbers." in
    Arg.(value & opt float 0.01 & info [ "tolerance" ] ~docv:"T" ~doc)
  in
  let run () common sessions leaves key_bits rate fault_seed tolerance =
    let world = build_world ~jobs:common.jobs common.seed sessions leaves key_bits in
    let outcome =
      Tangled_core.Chaos.run ~seed:fault_seed ~rate ~tolerance world
    in
    print_string (Tangled_core.Chaos.render outcome);
    write_trace ~jobs:world.Pipeline.jobs common;
    if not outcome.Tangled_core.Chaos.ok then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Export the world, inject seeded faults, re-ingest, and audit that \
          every fault is quarantined and the headline numbers survive")
    Term.(const run $ logs_term $ common_term $ sessions_arg $ leaves_arg
          $ key_bits_arg $ rate_arg $ fault_seed_arg $ tolerance_arg)

(* --- serve ------------------------------------------------------------- *)

let serve_cmd =
  let module Serve = Tangled_serve.Serve in
  let drill_arg =
    let doc =
      "Instead of serving stdin, run the serve chaos drill: a generated \
       request corpus is fault-injected, served in bursts (one deliberately \
       over capacity) under a seeded store/index fault plan, and the \
       robustness contract is audited — zero crashes, zero unaccounted \
       requests."
    in
    Arg.(value & flag & info [ "drill" ] ~doc)
  in
  let requests_arg =
    let doc = "Size of the drill's request corpus." in
    Arg.(value & opt int 600 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Per-frame fault probability for the drill's request stream." in
    Arg.(value & opt float 0.08 & info [ "rate" ] ~docv:"P" ~doc)
  in
  let fault_seed_arg =
    let doc = "Seed of the drill's fault-injection PRNGs." in
    Arg.(value & opt int 12 & info [ "fault-seed" ] ~docv:"SEED" ~doc)
  in
  let queue_arg =
    let doc = "Admission-queue capacity; a larger burst is load-shed." in
    Arg.(value & opt int Serve.default_config.Serve.queue_capacity
         & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc =
      "Most frames answered per burst: the complete frames already \
       received, up to $(docv); a burst never waits for more."
    in
    Arg.(value & opt int Serve.default_config.Serve.batch
         & info [ "batch" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Default per-request deadline in milliseconds." in
    Arg.(value & opt int 250 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let cache_arg =
    let doc =
      "Request-level decision-cache capacity (0 disables caching); \
       validate/diff/coverage answers are cached per snapshot epoch."
    in
    Arg.(value & opt int Serve.default_config.Serve.cache_capacity
         & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let run () common sessions leaves key_bits drill requests rate fault_seed
      queue_capacity batch deadline_ms cache_capacity =
    let world = build_world ~jobs:common.jobs common.seed sessions leaves key_bits in
    if drill then begin
      let outcome =
        Tangled_serve.Drill.run ~seed:fault_seed ~rate ~requests
          ~cache_capacity world
      in
      print_string (Tangled_serve.Drill.render outcome);
      write_trace ~jobs:world.Pipeline.jobs common;
      if not outcome.Tangled_serve.Drill.ok then exit 1
    end
    else begin
      let config =
        {
          Serve.default_config with
          Serve.queue_capacity;
          batch;
          default_deadline_s = float_of_int deadline_ms /. 1000.0;
          cache_capacity;
        }
      in
      let server = Serve.create ~config world in
      Logs.app (fun m ->
          m "serving %s on stdin (queue %d, batch %d, deadline %dms)"
            Serve.protocol_version queue_capacity batch deadline_ms);
      let summary = Serve.serve_channel server stdin stdout in
      Logs.app (fun m -> m "%s" (Serve.render_summary summary));
      write_trace ~jobs:world.Pipeline.jobs common;
      if not (Serve.reconciled summary) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Answer the paper's queries online: a fault-tolerant JSONL request \
          loop over stdin with admission control, deadlines, retry/backoff \
          and graceful degradation ($(b,--drill) audits it under chaos)")
    Term.(const run $ logs_term $ common_term $ sessions_arg $ leaves_arg
          $ key_bits_arg $ drill_arg $ requests_arg $ rate_arg
          $ fault_seed_arg $ queue_arg $ batch_arg $ deadline_arg
          $ cache_arg)

(* --- sensitivity ---------------------------------------------------------- *)

let sensitivity_cmd =
  let runs_arg =
    let doc = "Number of additional seeds to re-run (beyond the base seed)." in
    Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let run () seed sessions leaves key_bits runs =
    let world = build_world seed sessions leaves key_bits in
    let seeds = List.init runs (fun i -> seed + 1000 + i) in
    Logs.app (fun m -> m "re-running %d extra worlds..." runs);
    print_endline
      (Tangled_core.Sensitivity.render (Tangled_core.Sensitivity.compute ~seeds world))
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Re-run the pipeline across seeds and report headline-statistic spread")
    Term.(const run $ logs_term $ seed_arg $ sessions_arg $ leaves_arg
          $ key_bits_arg $ runs_arg)

(* --- audit -------------------------------------------------------------- *)

let audit_cmd =
  let pem_file =
    let doc =
      "Device root store to audit: either a PEM file (concatenated CERTIFICATE \
       blocks) or an Android cacerts directory (<hash>.N files)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"STORE" ~doc)
  in
  let baseline_arg =
    let doc =
      "Official store to diff against: aosp41, aosp42, aosp43, aosp44, \
       mozilla, ios7."
    in
    Arg.(value & opt string "aosp44" & info [ "baseline" ] ~docv:"NAME" ~doc)
  in
  let run () seed key_bits pem_file baseline =
    let module Rs = Tangled_store.Root_store in
    let module C = Tangled_x509.Certificate in
    let module Pem = Tangled_x509.Pem in
    let baseline_store = official_store ~seed ~key_bits baseline in
    let load_store () =
      if Sys.is_directory pem_file then
        Tangled_store.Cacerts_dir.read ~name:"audited" pem_file
      else begin
        match Pem.decode_all (read_whole_file pem_file) with
        | Error _ as e -> e
        | Ok blocks ->
            let certs =
              List.filter_map
                (fun (label, der) ->
                  if label <> "CERTIFICATE" then None
                  else match C.decode der with Ok c -> Some c | Error _ -> None)
                blocks
            in
            Ok (Rs.of_certs "audited" Rs.User certs)
      end
    in
    match load_store () with
    | Error m -> prerr_endline ("audit: " ^ m); exit 1
    | Ok device ->
        let additions, missing = Rs.diff device baseline_store in
        Printf.printf "store: %d certificates (%s baseline: %d)\n" (Rs.cardinal device)
          (Rs.name baseline_store) (Rs.cardinal baseline_store);
        Printf.printf "additions beyond baseline: %d\n" (List.length additions);
        List.iter
          (fun c ->
            Printf.printf "  + %s  %s\n" (C.subject_hash32 c)
              (Tangled_x509.Dn.to_string c.C.subject))
          additions;
        Printf.printf "baseline certificates missing: %d\n" (List.length missing);
        List.iter
          (fun c ->
            Printf.printf "  - %s  %s\n" (C.subject_hash32 c)
              (Tangled_x509.Dn.to_string c.C.subject))
          missing
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Diff a PEM root-store dump against an official baseline store \
          (the Netalyzr measurement, offline)")
    Term.(const run $ logs_term $ seed_arg $ key_bits_arg $ pem_file $ baseline_arg)

(* --- scale -------------------------------------------------------------- *)

(* The paper-scale gate: build the Notary corpus at increasing leaf
   counts on the columnar arena and check the properties the refactor
   promises — flat boxed memory (peak OCaml heap bounded whatever the
   corpus size), bytes/cert within a fixed ratio of raw DER, and
   scale-invariant analysis fractions (Table 3 store fractions, Table 4
   zero-validation fractions) byte-identical at every scale.  Optionally
   re-builds the largest scale with a different worker count and
   compares arena digests, pinning jobs-independence off-heap. *)

let scale_cmd =
  let module BP = Tangled_pki.Blueprint in
  let module PD = Tangled_pki.Paper_data in
  let module Notary = Tangled_notary.Notary in
  let module Arena = Tangled_x509.Arena in
  let module J = Tangled_util.Json in
  let leaves_all_arg =
    let doc = "Unexpired-leaf count to measure; repeatable, ascending runs." in
    Arg.(value & opt_all int [ 20_000; 200_000 ] & info [ "leaves" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Write the measurements as JSON to this file." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let check_jobs_arg =
    let doc =
      "Rebuild the largest scale with 4 worker domains and require its arena \
       digest to be byte-identical to the single-domain build."
    in
    Arg.(value & flag & info [ "check-jobs" ] ~doc)
  in
  let max_heap_arg =
    let doc =
      "Fail unless the OCaml heap's high-water mark stays under this many MB \
       at every scale (0 disables the assertion; the arena is off-heap and \
       accounted separately)."
    in
    Arg.(value & opt int 0 & info [ "max-heap-mb" ] ~docv:"MB" ~doc)
  in
  (* committed arena bytes per certificate may reach at most this
     multiple of the mean raw DER size *)
  let max_ratio = 2.0 in
  (* per-store validated fractions must agree across scales within
     10^-fraction_dp (apportionment remainders shift them by
     O(1/leaves)); zero-validation fractions must agree exactly *)
  let fraction_dp = 2 in
  let run () seed key_bits leaves_list out check_jobs max_heap_mb =
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
    Logs.app (fun m -> m "building universe (seed %d, %d-bit keys)..." seed key_bits);
    let universe = BP.build ~key_bits ~seed () in
    let store_names =
      List.map (fun v -> ("aosp_" ^ PD.version_to_string v, `Aosp v))
        PD.android_versions
      @ [ ("mozilla", `Mozilla); ("ios7", `Ios) ]
    in
    let store_of = function
      | `Aosp v -> universe.BP.aosp v
      | `Mozilla -> universe.BP.mozilla
      | `Ios -> universe.BP.ios7
    in
    let word_mb = float_of_int (Sys.word_size / 8) /. 1e6 in
    let measure leaves jobs =
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let n = Notary.generate ~leaves ~jobs ~seed:(seed + 3) universe in
      let dt = Unix.gettimeofday () -. t0 in
      let a = Notary.arena n in
      let mem = Arena.memory a in
      let total = Notary.total n in
      let unexpired = float_of_int (Notary.unexpired n) in
      let avg_der = float_of_int mem.Arena.blob_bytes /. float_of_int total in
      let top_heap_mb =
        float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb
      in
      let validated =
        List.map
          (fun (name, which) ->
            ( name,
              float_of_int (Notary.validated_by_store n (store_of which))
              /. unexpired ))
          store_names
      in
      let zero =
        List.map
          (fun (label, _, _) ->
            let counts =
              Notary.counts_for_certs n (BP.store_of_category universe label)
            in
            (label, Tangled_util.Stats.fraction (fun c -> c = 0.0) counts))
          PD.table4_rows
      in
      Logs.app (fun m ->
          m
            "leaves %d (jobs %d): %d chains in %.1fs (%.0f certs/s), arena \
             %.1f MB, %.0f bytes/cert (%.2fx DER), heap high-water %.0f MB"
            leaves jobs total dt
            (float_of_int total /. dt)
            (float_of_int (mem.Arena.blob_bytes + mem.Arena.column_bytes) /. 1e6)
            (Arena.bytes_per_cert a)
            (Arena.bytes_per_cert a /. avg_der)
            top_heap_mb);
      if Arena.bytes_per_cert a > max_ratio *. avg_der then
        fail "leaves %d: %.0f bytes/cert exceeds %.1fx mean DER (%.0f B)" leaves
          (Arena.bytes_per_cert a) max_ratio avg_der;
      if max_heap_mb > 0 && top_heap_mb > float_of_int max_heap_mb then
        fail "leaves %d: heap high-water %.0f MB exceeds the %d MB budget"
          leaves top_heap_mb max_heap_mb;
      let digest = Tangled_util.Hex.encode (Arena.digest a) in
      ( digest,
        J.Obj
          [
            ("leaves", J.Int leaves);
            ("jobs", J.Int jobs);
            ("total_chains", J.Int total);
            ("build_s", J.Float dt);
            ("certs_per_s", J.Float (float_of_int total /. dt));
            ("arena_blob_bytes", J.Int mem.Arena.blob_bytes);
            ("arena_column_bytes", J.Int mem.Arena.column_bytes);
            ("bytes_per_cert", J.Float (Arena.bytes_per_cert a));
            ("mean_der_bytes", J.Float avg_der);
            ("der_ratio", J.Float (Arena.bytes_per_cert a /. avg_der));
            ("top_heap_mb", J.Float top_heap_mb);
            ("arena_sha256", J.String digest);
            ( "validated_fraction",
              J.Obj (List.map (fun (k, v) -> (k, J.Float v)) validated) );
            ( "zero_fraction",
              J.Obj (List.map (fun (k, v) -> (k, J.Float v)) zero) );
          ],
        validated,
        zero )
    in
    let leaves_list = List.sort_uniq compare leaves_list in
    let runs = List.map (fun l -> (l, measure l 1)) leaves_list in
    (* scale invariance: validated fractions converge within 10^-dp,
       zero fractions are byte-identical floats at every scale *)
    let tol = 10. ** float_of_int (-fraction_dp) in
    (match runs with
    | (l0, (_, _, v0, z0)) :: rest ->
        List.iter
          (fun (l, (_, _, v, z)) ->
            List.iter2
              (fun (name, f0) (_, f) ->
                if Float.abs (f -. f0) > tol then
                  fail
                    "validated fraction for %s drifts with scale: %.6f at %d \
                     vs %.6f at %d (tolerance %.0e)"
                    name f0 l0 f l tol)
              v0 v;
            List.iter2
              (fun (label, f0) (_, f) ->
                if f0 <> f then
                  fail
                    "zero fraction for %s drifts with scale: %.4f at %d vs \
                     %.4f at %d"
                    label f0 l0 f l)
              z0 z)
          rest
    | [] -> ());
    (* jobs-independence off-heap: the 4-domain rebuild of the largest
       scale must reproduce the arena byte for byte *)
    let jobs_entry =
      if not check_jobs then []
      else
        match List.rev runs with
        | (l, (d1, _, _, _)) :: _ ->
            let d4, _, _, _ = measure l 4 in
            if d1 <> d4 then
              fail "arena digest differs between jobs 1 and jobs 4 at %d leaves" l;
            [
              ( "jobs_identity",
                J.Obj
                  [
                    ("leaves", J.Int l);
                    ("arena_digest_identical", J.Bool (d1 = d4));
                  ] );
            ]
        | [] -> []
    in
    let doc =
      J.Obj
        ([
           ("bench", J.String "scale");
           ("seed", J.Int seed);
           ("key_bits", J.Int key_bits);
           ("fraction_dp", J.Int fraction_dp);
           ("scales", J.List (List.map (fun (_, (_, j, _, _)) -> j) runs));
           ("fractions_scale_invariant", J.Bool (!failures = []));
         ]
        @ jobs_entry)
    in
    (match out with
    | Some path ->
        Tangled_core.Export.write_text path (J.to_string doc ^ "\n");
        Logs.app (fun m -> m "wrote %s" path)
    | None -> print_endline (J.to_string doc));
    match !failures with
    | [] -> ()
    | ms ->
        List.iter (fun m -> Printf.eprintf "scale: %s\n%!" m) (List.rev ms);
        exit 1
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Build the Notary corpus at increasing scales on the off-heap arena \
          and assert flat peak memory, bounded bytes/cert, scale-invariant \
          fractions, and (optionally) jobs-independent arena bytes")
    Term.(const run $ logs_term $ seed_arg $ key_bits_arg $ leaves_all_arg
          $ out_arg $ check_jobs_arg $ max_heap_arg)

(* --- ct ---------------------------------------------------------------- *)

let ct_cmd =
  let module Ct_report = Tangled_core.Ct_report in
  let module Fleet = Tangled_ct.Fleet in
  let module Ct_log = Tangled_ct.Log in
  let module Proof = Tangled_ct.Proof in
  let module J = Tangled_util.Json in
  let prove_arg =
    let doc =
      "Emit an inclusion proof for leaf INDEX of LOG (e.g. ct0:17) and verify \
       it through the pure proof API."
    in
    Arg.(value & opt (some string) None
         & info [ "prove" ] ~docv:"LOG:INDEX" ~doc)
  in
  let consistency_arg =
    let doc =
      "Emit a consistency proof between tree sizes FIRST and SECOND of LOG \
       (e.g. ct0:100:2000) and verify it."
    in
    Arg.(value & opt (some string) None
         & info [ "consistency" ] ~docv:"LOG:FIRST:SECOND" ~doc)
  in
  let out_arg =
    let doc = "Write the fleet summary (heads, visibility rows) as JSON." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let split_ref spec =
    match String.split_on_char ':' spec with
    | [ log; a ] -> (log, int_of_string_opt a, None)
    | [ log; a; b ] -> (log, int_of_string_opt a, int_of_string_opt b)
    | _ -> (spec, None, None)
  in
  let die fmt = Printf.ksprintf (fun m -> prerr_endline ("ct: " ^ m); exit 1) fmt in
  let entry_exn fleet name =
    match Fleet.find_log fleet name with
    | Some e -> e
    | None -> die "no log named %s" name
  in
  let proof_json name kind extra proof =
    J.Obj
      ([ ("log", J.String name); ("kind", J.String kind) ]
      @ extra
      @ [
          ( "proof",
            J.List
              (List.map
                 (fun h -> J.String (Tangled_util.Hex.encode h))
                 proof) );
        ])
  in
  let run () common sessions leaves key_bits prove consistency out =
    let failures = ref [] in
    let world = build_world ~jobs:common.jobs common.seed sessions leaves key_bits in
    (* the report's "ct" section; the proofs below read the same fleet *)
    let report = Ct_report.compute world in
    let fleet = Ct_report.fleet report in
    print_string (Ct_report.render report);
    (* --prove LOG:INDEX *)
    (match prove with
    | None -> ()
    | Some spec -> (
        match split_ref spec with
        | log_name, Some index, None -> (
            let e = entry_exn fleet log_name in
            let n = Ct_log.size e.Fleet.log in
            match Ct_log.inclusion_proof e.Fleet.log ~index ~tree_size:n with
            | Error err -> die "%s" err
            | Ok proof ->
                let ok =
                  match Fleet.leaf_der fleet e index with
                  | Some leaf ->
                      Proof.verify_inclusion ~leaf ~index ~tree_size:n ~proof
                        ~root:(Ct_log.head e.Fleet.log)
                  | None -> false
                in
                print_endline
                  (J.to_string
                     (proof_json log_name "inclusion"
                        [
                          ("index", J.Int index);
                          ("tree_size", J.Int n);
                          ("root", J.String (Ct_log.head_hex e.Fleet.log));
                          ("verified", J.Bool ok);
                        ]
                        proof));
                if not ok then
                  failures := ("--prove " ^ spec) :: !failures)
        | _ -> die "--prove wants LOG:INDEX, got %s" spec));
    (* --consistency LOG:FIRST:SECOND *)
    (match consistency with
    | None -> ()
    | Some spec -> (
        match split_ref spec with
        | log_name, Some first, Some second -> (
            let e = entry_exn fleet log_name in
            match
              ( Ct_log.consistency_proof e.Fleet.log ~first ~second,
                Ct_log.head_at e.Fleet.log first,
                Ct_log.head_at e.Fleet.log second )
            with
            | Ok proof, Ok r1, Ok r2 ->
                let ok =
                  Proof.verify_consistency ~first ~second ~first_root:r1
                    ~second_root:r2 ~proof
                in
                print_endline
                  (J.to_string
                     (proof_json log_name "consistency"
                        [
                          ("first", J.Int first);
                          ("second", J.Int second);
                          ("first_root", J.String (Tangled_util.Hex.encode r1));
                          ("second_root", J.String (Tangled_util.Hex.encode r2));
                          ("verified", J.Bool ok);
                        ]
                        proof));
                if not ok then
                  failures := ("--consistency " ^ spec) :: !failures
            | Error err, _, _ | _, Error err, _ | _, _, Error err -> die "%s" err)
        | _ -> die "--consistency wants LOG:FIRST:SECOND, got %s" spec));
    (match out with
    | None -> ()
    | Some path ->
        let doc =
          J.Obj
            [
              ("seed", J.Int common.seed);
              ("logs", J.Int (Fleet.n_logs fleet));
              ( "heads",
                J.Obj
                  (Array.to_list
                     (Array.map
                        (fun (e : Fleet.entry) ->
                          ( Ct_log.name e.Fleet.log,
                            J.Obj
                              [
                                ("tree_size", J.Int (Ct_log.size e.Fleet.log));
                                ("head", J.String (Ct_log.head_hex e.Fleet.log));
                              ] ))
                        (Fleet.entries fleet))) );
              ( "visibility",
                J.List
                  (List.map
                     (fun (r : Fleet.store_row) ->
                       J.Obj
                         [
                           ("store", J.String r.Fleet.store_name);
                           ("roots", J.Int r.Fleet.roots);
                           ("accepted", J.Int r.Fleet.accepted);
                           ("logged", J.Int r.Fleet.logged);
                           ("dark", J.Int r.Fleet.dark);
                         ])
                     (Fleet.official_visibility fleet)) );
            ]
        in
        Tangled_core.Export.write_text path (J.to_string doc ^ "\n");
        Logs.app (fun m -> m "wrote %s" path));
    write_trace ~jobs:world.Pipeline.jobs common;
    match !failures with
    | [] -> ()
    | ms ->
        List.iter (fun m -> Printf.eprintf "ct: %s: proof did not verify\n%!" m)
          (List.rev ms);
        exit 1
  in
  Cmd.v
    (Cmd.info "ct"
       ~doc:
         "Build the CT log fleet over the Notary corpus, print the report's \
          CT section, and emit/verify RFC 6962 proofs")
    Term.(const run $ logs_term $ common_term $ sessions_arg $ leaves_arg
          $ key_bits_arg $ prove_arg $ consistency_arg $ out_arg)

let main_cmd =
  let doc = "Reproduction of 'A Tangled Mass: The Android Root Certificate Stores'" in
  Cmd.group
    (Cmd.info "tangled-mass" ~version:"1.0.0" ~doc)
    [ report_cmd; audit_cmd; export_cmd; ingest_cmd; chaos_cmd; serve_cmd;
      sensitivity_cmd; scale_cmd; ct_cmd; stores_cmd ]

let () = exit (Cmd.eval main_cmd)
