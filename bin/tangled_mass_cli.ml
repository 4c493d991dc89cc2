(* tangled-mass — command-line front end for the reproduction.

   Subcommands:
     tables    render one or all of the paper's tables
     figures   render one of the paper's figures
     report    run the full study and print every artefact
     stores    inspect the synthetic official root stores
     intercept run the §7 interception case study
*)

open Cmdliner

module Pipeline = Tangled_core.Pipeline
module Report = Tangled_core.Report
module Obs = Tangled_obs.Obs

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

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
  Arg.(value & opt (some string) None & info [ "csv-dir" ] ~docv:"DIR" ~doc)

(* Flags the measurement subcommands (report, analyze, chaos, ingest)
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

(* --- tables / figures ------------------------------------------------ *)

let render_artefacts world names csv_dir =
  List.iter
    (fun name ->
      print_endline (Report.render_one world name);
      print_newline ();
      match csv_dir with
      | Some dir ->
          let header, rows = Report.csv_one world name in
          Tangled_util.Csv.write_file (Filename.concat dir (name ^ ".csv")) ~header rows
      | None -> ())
    names

let tables_cmd =
  let which =
    let doc = "Table number to render (1-6); defaults to all." in
    Arg.(value & opt (some int) None & info [ "t"; "table" ] ~docv:"N" ~doc)
  in
  let run () seed sessions leaves key_bits which csv_dir =
    let world = build_world seed sessions leaves key_bits in
    let names =
      match which with
      | Some n when n >= 1 && n <= 6 -> [ Printf.sprintf "table%d" n ]
      | Some n -> invalid_arg (Printf.sprintf "no table %d in the paper" n)
      | None -> [ "table1"; "table2"; "table3"; "table4"; "table5"; "table6" ]
    in
    render_artefacts world names csv_dir
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables")
    Term.(const run $ logs_term $ seed_arg $ sessions_arg $ leaves_arg
          $ key_bits_arg $ which $ csv_dir_arg)

let figures_cmd =
  let which =
    let doc = "Figure number to render (1-3); defaults to all." in
    Arg.(value & opt (some int) None & info [ "f"; "figure" ] ~docv:"N" ~doc)
  in
  let run () seed sessions leaves key_bits which csv_dir =
    let world = build_world seed sessions leaves key_bits in
    let names =
      match which with
      | Some n when n >= 1 && n <= 3 -> [ Printf.sprintf "figure%d" n ]
      | Some n -> invalid_arg (Printf.sprintf "no figure %d in the paper" n)
      | None -> [ "figure1"; "figure2"; "figure3" ]
    in
    render_artefacts world names csv_dir
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures")
    Term.(const run $ logs_term $ seed_arg $ sessions_arg $ leaves_arg
          $ key_bits_arg $ which $ csv_dir_arg)

let report_cmd =
  let run () common sessions leaves key_bits csv_dir =
    let world = build_world ~jobs:common.jobs common.seed sessions leaves key_bits in
    print_string (Report.run_all ?csv_dir world);
    print_newline ();
    print_string (Obs.render ());
    write_trace ~jobs:world.Pipeline.jobs common
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Run the whole study: every table and figure")
    Term.(const run $ logs_term $ common_term $ sessions_arg $ leaves_arg
          $ key_bits_arg $ csv_dir_arg)

(* --- stores ----------------------------------------------------------- *)

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
    let module BP = Tangled_pki.Blueprint in
    let module PD = Tangled_pki.Paper_data in
    let module Rs = Tangled_store.Root_store in
    let universe = BP.build ~key_bits ~seed () in
    let target =
      match store with
      | "aosp41" -> universe.BP.aosp PD.V4_1
      | "aosp42" -> universe.BP.aosp PD.V4_2
      | "aosp43" -> universe.BP.aosp PD.V4_3
      | "aosp44" -> universe.BP.aosp PD.V4_4
      | "mozilla" -> universe.BP.mozilla
      | "ios7" -> universe.BP.ios7
      | other -> invalid_arg ("unknown store " ^ other)
    in
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

(* --- analyze (extension analyses) -------------------------------------- *)

let analyze_cmd =
  let which =
    let doc =
      "Which analysis to run: minimization (§5.3), scoping (§8), pinning (§7), \
       ingest (export→import reconciliation); defaults to all."
    in
    Arg.(value & opt (some string) None & info [ "a"; "analysis" ] ~docv:"NAME" ~doc)
  in
  let run () common sessions leaves key_bits which csv_dir =
    let world = build_world ~jobs:common.jobs common.seed sessions leaves key_bits in
    let names =
      match which with
      | Some n when List.mem n Report.extension_names -> [ n ]
      | Some n ->
          invalid_arg
            (Printf.sprintf "unknown analysis %S (expected: %s)" n
               (String.concat ", " Report.extension_names))
      | None -> Report.extension_names
    in
    render_artefacts world names csv_dir;
    print_string (Obs.render ());
    write_trace ~jobs:world.Pipeline.jobs common
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the extension analyses (store minimization, trust scoping, pinning)")
    Term.(const run $ logs_term $ common_term $ sessions_arg $ leaves_arg
          $ key_bits_arg $ which $ csv_dir_arg)

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
    (* stdout is the protocol channel in serve mode: human chatter
       (world build progress, the closing summary table) goes to stderr
       so piped clients read pure JSONL *)
    if not drill then
      Logs.set_reporter (Logs_fmt.reporter ~app:Format.err_formatter ());
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
    let doc = "AOSP baseline to diff against: aosp41, aosp42, aosp43, aosp44." in
    Arg.(value & opt string "aosp44" & info [ "baseline" ] ~docv:"NAME" ~doc)
  in
  let run () seed key_bits pem_file baseline =
    let module BP = Tangled_pki.Blueprint in
    let module PD = Tangled_pki.Paper_data in
    let module Rs = Tangled_store.Root_store in
    let module C = Tangled_x509.Certificate in
    let module Pem = Tangled_x509.Pem in
    let universe = BP.build ~key_bits ~seed () in
    let baseline_store =
      match baseline with
      | "aosp41" -> universe.BP.aosp PD.V4_1
      | "aosp42" -> universe.BP.aosp PD.V4_2
      | "aosp43" -> universe.BP.aosp PD.V4_3
      | "aosp44" -> universe.BP.aosp PD.V4_4
      | other -> invalid_arg ("unknown baseline " ^ other)
    in
    let load_store () =
      if Sys.is_directory pem_file then
        Tangled_store.Cacerts_dir.read ~name:"audited" pem_file
      else begin
        let contents =
          let ic = open_in_bin pem_file in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Pem.decode_all contents with
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
       ~doc:"Diff a PEM root-store dump against an AOSP baseline (the Netalyzr measurement, offline)")
    Term.(const run $ logs_term $ seed_arg $ key_bits_arg $ pem_file $ baseline_arg)

(* --- selfcheck --------------------------------------------------------- *)

(* The regression gate behind `dune build @check`: (1) cross-check the
   Montgomery exponentiation and RSA-CRT signatures against the
   division-based Bigint.modpow on deterministic random inputs, (2)
   check the unboxed streaming hash cores against published vectors
   and padding-boundary lengths, and random-split streaming against
   the one-shot digest (the boxed-oracle comparison is test_hash's
   QCheck property, which @check runs through runtest), (3) rebuild
   the quick world at --jobs 1 and compare the SHA-256 of the full
   rendered report against the golden digest committed in test/ — any
   drift in the study's bytes fails the build — and (4) export the
   quick run's observability trace and validate it against the
   versioned JSONL schema. *)

let selfcheck_cmd =
  let module B = Tangled_numeric.Bigint in
  let module Mont = Tangled_numeric.Montgomery in
  let module Prng = Tangled_util.Prng in
  let golden_arg =
    let doc = "File holding the expected report digest (hex SHA-256)." in
    Arg.(required & opt (some string) None & info [ "golden" ] ~docv:"FILE" ~doc)
  in
  let update_arg =
    let doc = "Rewrite the golden file with the current digest instead of comparing." in
    Arg.(value & flag & info [ "update" ] ~doc)
  in
  let mont_crosscheck () =
    let rng = Prng.create 271828 in
    let widths = [| 64; 128; 256; 384; 512; 896; 1024; 1764; 2072 |] in
    let trials = 150 in
    let failures = ref 0 in
    for i = 1 to trials do
      let bits = widths.(i mod Array.length widths) in
      let m =
        (* random odd modulus of exactly [bits] bits *)
        let v = B.add (B.shift_left B.one (bits - 1)) (B.random_bits rng (bits - 1)) in
        if B.is_odd v then v else B.add v B.one
      in
      let base = B.random_bits rng (bits + 13) (* deliberately >= m sometimes *) in
      let e = B.random_bits rng bits in
      let want = B.modpow base e m in
      let got = Mont.modpow (Mont.create m) base e in
      if not (B.equal want got) then begin
        incr failures;
        Printf.eprintf "selfcheck: montgomery mismatch at trial %d (%d bits)\n" i bits
      end
    done;
    Printf.printf "montgomery-vs-oracle: %d/%d trials ok\n%!" (trials - !failures) trials;
    !failures = 0
  in
  let rsa_sign_check () =
    (* RSA-CRT signatures against EM^d mod n on the division-based
       oracle, at the simulation's key size, an odd width whose CRT
       primes differ in limb count, and widths whose primes fill their
       top limb *)
    let module Rsa = Tangled_crypto.Rsa in
    let module Dk = Tangled_hash.Digest_kind in
    let rng = Prng.create 161803 in
    let failures = ref 0 in
    List.iter
      (fun bits ->
        let key = Rsa.generate ~mr_rounds:6 rng ~bits in
        let n = key.Rsa.pub.Rsa.n in
        let k = Rsa.key_size_bytes key.Rsa.pub in
        let msg = Printf.sprintf "rsa selfcheck %d" bits in
        let t = Tangled_util.Hex.decode "3021300906052b0e03021a05000414" ^ Dk.digest Dk.SHA1 msg in
        let em = "\x00\x01" ^ String.make (k - 3 - String.length t) '\xff' ^ "\x00" ^ t in
        let want = B.modpow (B.of_bytes_be em) key.Rsa.d n in
        let signature = Rsa.sign key ~digest:Dk.SHA1 msg in
        if not (B.equal want (B.of_bytes_be signature)) then begin
          incr failures;
          Printf.eprintf "selfcheck: RSA signature differs from the oracle at %d bits\n" bits
        end;
        if not (Rsa.verify key.Rsa.pub ~digest:Dk.SHA1 ~msg ~signature) then begin
          incr failures;
          Printf.eprintf "selfcheck: RSA verify rejected a signature at %d bits\n" bits
        end)
      [ 384; 393; 1036; 1792 ];
    Printf.printf "rsa-sign-vs-oracle: %s\n%!"
      (if !failures = 0 then "ok" else string_of_int !failures ^ " failures");
    !failures = 0
  in
  let hash_vectors_check () =
    let module H = Tangled_hash in
    let failures = ref 0 in
    let check what got want =
      if not (String.equal got want) then begin
        incr failures;
        Printf.eprintf "selfcheck: hash mismatch for %s\n  want %s\n  got  %s\n" what want got
      end
    in
    (* published vectors plus the padding-boundary lengths 55/56/64/119 *)
    let a n = String.make n 'a' in
    List.iter
      (fun (name, msg, md5, sha1, sha256) ->
        check ("md5 " ^ name) (H.Md5.hex msg) md5;
        check ("sha1 " ^ name) (H.Sha1.hex msg) sha1;
        check ("sha256 " ^ name) (H.Sha256.hex msg) sha256)
      [
        ( "empty", "",
          "d41d8cd98f00b204e9800998ecf8427e",
          "da39a3ee5e6b4b0d3255bfef95601890afd80709",
          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
        ( "abc", "abc",
          "900150983cd24fb0d6963f7d28e17f72",
          "a9993e364706816aba3e25717850c26c9cd0d89d",
          "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
        ( "a*55", a 55,
          "ef1772b6dff9a122358552954ad0df65",
          "c1c8bbdc22796e28c0e15163d20899b65621d65a",
          "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318" );
        ( "a*56", a 56,
          "3b0c8ac703f828b04c6c197006d17218",
          "c2db330f6083854c99d4b5bfb6e8f29f201be699",
          "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a" );
        ( "a*64", a 64,
          "014842d480b571495a4a0363793f7367",
          "0098ba824b5c16427bd7a1122a5a442a25ec644d",
          "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb" );
        ( "a*119", a 119,
          "8a7bd0732ed6a28ce75f6dabc90e1613",
          "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56",
          "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb" );
      ];
    (* streaming at random split points vs one-shot *)
    let rng = Prng.create 602214 in
    for trial = 1 to 60 do
      let msg = Prng.bytes rng (Prng.int rng 300) in
      let split_feed init feed_sub finalize =
        let ctx = init () in
        let off = ref 0 in
        while !off < String.length msg do
          let len = Prng.int_in rng 1 (String.length msg - !off) in
          feed_sub ctx msg ~off:!off ~len;
          off := !off + len
        done;
        finalize ctx
      in
      let agree name oneshot streamed =
        if not (String.equal (oneshot msg) streamed) then begin
          incr failures;
          Printf.eprintf "selfcheck: %s disagreement at trial %d (len %d)\n" name trial
            (String.length msg)
        end
      in
      agree "md5" H.Md5.digest (split_feed H.Md5.init H.Md5.feed_sub H.Md5.finalize);
      agree "sha1" H.Sha1.digest (split_feed H.Sha1.init H.Sha1.feed_sub H.Sha1.finalize);
      agree "sha256" H.Sha256.digest
        (split_feed H.Sha256.init H.Sha256.feed_sub H.Sha256.finalize)
    done;
    Printf.printf "hash-vectors-and-split-feed: %s\n%!"
      (if !failures = 0 then "ok" else string_of_int !failures ^ " failures");
    !failures = 0
  in
  let run () golden update =
    let ok_mont = mont_crosscheck () in
    let ok_rsa = rsa_sign_check () in
    let ok_hash = hash_vectors_check () in
    let world =
      Pipeline.run
        ~config:{ Pipeline.quick_config with Pipeline.jobs = 1 }
        ~universe:(Lazy.force Tangled_pki.Blueprint.default) ()
    in
    let digest =
      Tangled_util.Hex.encode (Tangled_hash.Sha256.digest (Report.run_all world))
    in
    let ok_trace =
      let trace = Obs.trace_jsonl ~jobs:world.Pipeline.jobs () in
      match (Obs.validate_trace trace, Obs.stable_view trace) with
      | Ok (), Ok _ ->
          let lines =
            List.length
              (List.filter (fun l -> l <> "")
                 (String.split_on_char '\n' trace))
          in
          Printf.printf "obs trace (%s): %d lines, schema ok\n%!"
            Obs.schema_version lines;
          true
      | Error e, _ | _, Error e ->
          Printf.eprintf "selfcheck: obs trace invalid: %s\n%!" e;
          false
    in
    if update then begin
      Tangled_core.Export.write_text golden (digest ^ "\n");
      Printf.printf "wrote %s (%s)\n%!" golden digest;
      if not (ok_mont && ok_rsa && ok_hash && ok_trace) then exit 1
    end
    else begin
      let expected = String.trim (In_channel.with_open_text golden In_channel.input_all) in
      let ok_digest = String.equal expected digest in
      if ok_digest then Printf.printf "report digest (jobs 1): %s — matches golden\n%!" digest
      else
        Printf.eprintf
          "selfcheck: report digest drifted\n  golden:  %s\n  current: %s\n%!"
          expected digest;
      if not (ok_mont && ok_rsa && ok_hash && ok_digest && ok_trace) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:
         "Montgomery/hash-core cross-checks, golden report-digest gate, and \
          obs trace schema validation")
    Term.(const run $ logs_term $ golden_arg $ update_arg)

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
  let max_ratio_arg =
    let doc =
      "Fail if committed arena bytes per certificate exceed this multiple of \
       the mean raw DER size."
    in
    Arg.(value & opt float 2.0 & info [ "max-der-ratio" ] ~docv:"R" ~doc)
  in
  let fraction_dp_arg =
    let doc =
      "Per-store validated fractions must agree across scales within \
       10^-N (apportionment remainders shift them by O(1/leaves)); \
       zero-validation fractions must agree exactly, byte for byte."
    in
    Arg.(value & opt int 2 & info [ "fraction-dp" ] ~docv:"N" ~doc)
  in
  let run () seed key_bits leaves_list out check_jobs max_heap_mb max_ratio
      fraction_dp =
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
          $ out_arg $ check_jobs_arg $ max_heap_arg $ max_ratio_arg
          $ fraction_dp_arg)

(* --- ct ---------------------------------------------------------------- *)

let ct_cmd =
  let module Fleet = Tangled_ct.Fleet in
  let module Ct_log = Tangled_ct.Log in
  let module Proof = Tangled_ct.Proof in
  let module T = Tangled_util.Text_table in
  let module J = Tangled_util.Json in
  let n_logs_arg =
    let doc = "Number of logs in the fleet." in
    Arg.(value & opt int 3 & info [ "logs" ] ~docv:"N" ~doc)
  in
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
  let smoke_arg =
    let doc =
      "Smoke-check the subsystem: verify one inclusion and one consistency \
       proof per log through the pure verifier, then rebuild the world with 4 \
       worker domains and require byte-identical log heads.  Exits 1 on any \
       failure."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
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
  let entry_exn fleet name =
    match Fleet.find_log fleet name with
    | Some e -> e
    | None ->
        Printf.eprintf "ct: no log named %s\n%!" name;
        exit 1
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
  let build_fleet ~jobs ~n_logs seed sessions leaves key_bits =
    let world = build_world ~jobs seed sessions leaves key_bits in
    (world, Fleet.build ~n_logs ~seed world.Pipeline.universe
              world.Pipeline.notary)
  in
  let run () common sessions leaves key_bits n_logs prove consistency smoke out =
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
    let world, fleet =
      build_fleet ~jobs:common.jobs ~n_logs common.seed sessions leaves key_bits
    in
    (* fleet + visibility tables (the report's "ct" section, online) *)
    let log_rows =
      Array.to_list
        (Array.map
           (fun (e : Fleet.entry) ->
             [
               Ct_log.name e.Fleet.log;
               T.fmt_int e.Fleet.accepted_roots;
               T.fmt_int (Ct_log.size e.Fleet.log);
               String.sub (Ct_log.head_hex e.Fleet.log) 0 16;
             ])
           (Fleet.entries fleet))
    in
    print_endline
      (T.render ~title:"CT log fleet"
         ~aligns:[ T.Left; T.Right; T.Right; T.Left ]
         ~header:[ "log"; "accepted roots"; "tree size"; "head (prefix)" ]
         log_rows);
    let vis = Fleet.official_visibility fleet in
    print_endline
      (T.render ~title:"CT visibility of device-store roots"
         ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ]
         ~header:[ "store"; "roots"; "accepted"; "logged"; "dark" ]
         (List.map
            (fun (r : Fleet.store_row) ->
              [
                r.Fleet.store_name;
                T.fmt_int r.Fleet.roots;
                T.fmt_int r.Fleet.accepted;
                T.fmt_int r.Fleet.logged;
                T.fmt_int r.Fleet.dark;
              ])
            vis));
    (* --prove LOG:INDEX *)
    (match prove with
    | None -> ()
    | Some spec -> (
        match split_ref spec with
        | log_name, Some index, None -> (
            let e = entry_exn fleet log_name in
            let n = Ct_log.size e.Fleet.log in
            match Ct_log.inclusion_proof e.Fleet.log ~index ~tree_size:n with
            | Error err ->
                Printf.eprintf "ct: %s\n%!" err;
                exit 1
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
                if not ok then fail "--prove %s: proof did not verify" spec)
        | _ ->
            Printf.eprintf "ct: --prove wants LOG:INDEX, got %s\n%!" spec;
            exit 1));
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
                if not ok then fail "--consistency %s: proof did not verify" spec
            | Error err, _, _ | _, Error err, _ | _, _, Error err ->
                Printf.eprintf "ct: %s\n%!" err;
                exit 1)
        | _ ->
            Printf.eprintf
              "ct: --consistency wants LOG:FIRST:SECOND, got %s\n%!" spec;
            exit 1));
    (* --smoke: proof round-trips per log + jobs-1-vs-4 head identity *)
    if smoke then begin
      Array.iter
        (fun (e : Fleet.entry) ->
          let name = Ct_log.name e.Fleet.log in
          let n = Ct_log.size e.Fleet.log in
          if n = 0 then fail "%s: empty log" name
          else begin
            let i = n / 2 in
            (match
               ( Ct_log.inclusion_proof e.Fleet.log ~index:i ~tree_size:n,
                 Fleet.leaf_der fleet e i )
             with
            | Ok proof, Some leaf ->
                if
                  not
                    (Proof.verify_inclusion ~leaf ~index:i ~tree_size:n ~proof
                       ~root:(Ct_log.head e.Fleet.log))
                then fail "%s: inclusion proof for leaf %d did not verify" name i
            | Error err, _ -> fail "%s: %s" name err
            | _, None -> fail "%s: leaf %d unreadable" name i);
            let m = max 1 (n / 2) in
            match
              ( Ct_log.consistency_proof e.Fleet.log ~first:m ~second:n,
                Ct_log.head_at e.Fleet.log m )
            with
            | Ok proof, Ok r1 ->
                if
                  not
                    (Proof.verify_consistency ~first:m ~second:n ~first_root:r1
                       ~second_root:(Ct_log.head e.Fleet.log) ~proof)
                then fail "%s: consistency %d..%d did not verify" name m n
            | Error err, _ | _, Error err -> fail "%s: %s" name err
          end)
        (Fleet.entries fleet);
      Logs.app (fun m -> m "rebuilding with 4 worker domains...");
      let _, fleet4 =
        build_fleet ~jobs:4 ~n_logs common.seed sessions leaves key_bits
      in
      Array.iteri
        (fun j (e1 : Fleet.entry) ->
          let e4 = (Fleet.entries fleet4).(j) in
          let h1 = Ct_log.head_hex e1.Fleet.log
          and h4 = Ct_log.head_hex e4.Fleet.log in
          if h1 <> h4 then
            fail "%s: head differs between jobs 1 and jobs 4 (%s vs %s)"
              (Ct_log.name e1.Fleet.log) h1 h4)
        (Fleet.entries fleet);
      Logs.app (fun m ->
          m "smoke: %d log(s), proofs verified, jobs-1-vs-4 heads identical"
            (Array.length (Fleet.entries fleet)))
    end;
    (match out with
    | None -> ()
    | Some path ->
        let doc =
          J.Obj
            [
              ("seed", J.Int common.seed);
              ("logs", J.Int n_logs);
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
                     vis) );
            ]
        in
        Tangled_core.Export.write_text path (J.to_string doc ^ "\n");
        Logs.app (fun m -> m "wrote %s" path));
    write_trace ~jobs:world.Pipeline.jobs common;
    match !failures with
    | [] -> ()
    | ms ->
        List.iter (fun m -> Printf.eprintf "ct: %s\n%!" m) (List.rev ms);
        exit 1
  in
  Cmd.v
    (Cmd.info "ct"
       ~doc:
         "Build the CT log fleet over the Notary corpus, print the visibility \
          table, emit/verify RFC 6962 proofs, and smoke-check determinism")
    Term.(const run $ logs_term $ common_term $ sessions_arg $ leaves_arg
          $ key_bits_arg $ n_logs_arg $ prove_arg $ consistency_arg $ smoke_arg
          $ out_arg)

(* --- intercept --------------------------------------------------------- *)

let intercept_cmd =
  let run () seed sessions leaves key_bits =
    let world = build_world seed sessions leaves key_bits in
    print_endline (Report.render_one world "table6")
  in
  Cmd.v
    (Cmd.info "intercept" ~doc:"Run the TLS-interception case study (§7)")
    Term.(const run $ logs_term $ seed_arg $ sessions_arg $ leaves_arg $ key_bits_arg)

let main_cmd =
  let doc = "Reproduction of 'A Tangled Mass: The Android Root Certificate Stores'" in
  Cmd.group
    (Cmd.info "tangled-mass" ~version:"1.0.0" ~doc)
    [ tables_cmd; figures_cmd; report_cmd; analyze_cmd; audit_cmd; export_cmd;
      ingest_cmd; chaos_cmd; serve_cmd; sensitivity_cmd; scale_cmd; ct_cmd;
      stores_cmd; intercept_cmd; selfcheck_cmd ]

let () = exit (Cmd.eval main_cmd)
