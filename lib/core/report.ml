(* One artefact, computed once: its rendered text, and its CSV built
   from the same value only when forced. *)
let artefact compute render csv world =
  let v = compute world in
  (render v, lazy (csv v))

let paper =
  [
    ("table1", artefact Table1.compute Table1.render Table1.csv);
    ("table2", artefact Table2.compute Table2.render Table2.csv);
    ("table3", artefact Table3.compute Table3.render Table3.csv);
    ("table4", artefact Table4.compute Table4.render Table4.csv);
    ("table5", artefact Table5.compute Table5.render Table5.csv);
    ("table6", artefact Table6.compute Table6.render Table6.csv);
    ("figure1", artefact Figure1.compute Figure1.render Figure1.csv);
    ("figure2", artefact Figure2.compute Figure2.render Figure2.csv);
    ("figure3", artefact Figure3.compute Figure3.render Figure3.csv);
  ]

(* The extension analyses beyond the paper's own artefacts: §5.3 store
   minimization, the §8 scoped-trust counterfactual, the §7 pinning
   counterfactual, the export→ingest reconciliation stats, and the CT
   visibility study. *)
let extensions =
  [
    ("minimization", artefact Minimization.compute Minimization.render Minimization.csv);
    ("scoping", artefact Scoping.compute Scoping.render Scoping.csv);
    ("pinning", artefact Pinning_study.compute Pinning_study.render Pinning_study.csv);
    ("ingest", artefact Ingest_report.compute Ingest_report.render Ingest_report.csv);
    ("ct", artefact Ct_report.compute Ct_report.render Ct_report.csv);
  ]

let artefact_names = List.map fst paper
let extension_names = List.map fst extensions

let find fn name =
  match List.assoc_opt name (paper @ extensions) with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Report.%s: unknown artefact %s" fn name)

let render_one world name = fst (find "render_one" name world)
let csv_one world name = Lazy.force (snd (find "csv_one" name world))

let render ?csv_dir world names =
  let b = Buffer.create 16_384 in
  List.iter
    (fun name ->
      let text, csv = find "render" name world in
      Buffer.add_string b text;
      Buffer.add_string b "\n\n";
      match csv_dir with
      | Some dir ->
          let header, rows = Lazy.force csv in
          Tangled_util.Csv.write_file (Filename.concat dir (name ^ ".csv")) ~header rows
      | None -> ())
    names;
  Buffer.contents b

let run_all ?csv_dir world =
  let paper = render ?csv_dir world artefact_names in
  let extensions = render ?csv_dir world extension_names in
  "=== A Tangled Mass: reproduction report ===================================\n\n"
  ^ paper
  ^ "=== Extension analyses ====================================================\n\n"
  ^ extensions
