module PD = Tangled_pki.Paper_data
module BP = Tangled_pki.Blueprint
module Net = Tangled_netalyzr.Netalyzr
module Notary = Tangled_notary.Notary
module T = Tangled_util.Text_table

type row_kind = By_manufacturer | By_operator

type cell = {
  row : string;
  row_kind : row_kind;
  cert_name : string;
  cert_id : string;
  frequency : float;
  notary_class : PD.notary_class;
}

type t = {
  cells : cell list;
  class_mix : (PD.notary_class * float) list;
}

(* rows with fewer modified-store sessions are omitted, as in the paper *)
let min_row_sessions = 10

let compute (w : Pipeline.t) =
  let d = w.Pipeline.dataset in
  let universe = w.Pipeline.universe in
  let notary = w.Pipeline.notary in
  (* accumulate per-row: modified-session count, and per-cert count *)
  let row_sessions = Hashtbl.create 64 in
  let row_cert = Hashtbl.create 256 in
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  Array.iter
    (fun (s : Net.session) ->
      if s.Net.additional > 0 then begin
        let rows =
          [
            ( Printf.sprintf "%s %s" s.Net.manufacturer
                (PD.version_to_string s.Net.identity.Net.os_version),
              By_manufacturer );
            (s.Net.operator, By_operator);
          ]
        in
        List.iter (fun row -> bump row_sessions row) rows;
        List.iter
          (fun id -> List.iter (fun row -> bump row_cert (row, id)) rows)
          s.Net.additional_ids
      end)
    d.Net.sessions;
  let cells =
    Hashtbl.fold
      (fun ((row, kind), id) count acc ->
        let total = Option.value ~default:0 (Hashtbl.find_opt row_sessions (row, kind)) in
        if total < min_row_sessions then acc
        else begin
          match Hashtbl.find_opt universe.BP.extra_by_id id with
          | None -> acc
          | Some root ->
              let x = Option.get root.BP.extra in
              {
                row;
                row_kind = kind;
                cert_name = x.PD.xc_name;
                cert_id = id;
                frequency = float_of_int count /. float_of_int total;
                notary_class =
                  Notary.classify notary
                    root.BP.authority.Tangled_x509.Authority.certificate;
              }
              :: acc
        end)
      row_cert []
    |> List.sort (fun a b -> Stdlib.compare (a.row, a.cert_id) (b.row, b.cert_id))
  in
  (* the legend mix: share of plotted markers per class, as one reads
     the published figure *)
  let total_cells = float_of_int (Stdlib.max 1 (List.length cells)) in
  let class_mix =
    [ PD.Mozilla_and_ios; PD.Ios_only; PD.Android_only; PD.Unrecorded ]
    |> List.map (fun cls ->
           let n = List.length (List.filter (fun c -> c.notary_class = cls) cells) in
           (cls, float_of_int n /. total_cells))
  in
  { cells; class_mix }

let max_rows = 60

let render t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "Figure 2: additional certificates per manufacturer/operator row\n";
  Buffer.add_string b "Notary classification of plotted markers:\n";
  List.iter
    (fun (cls, frac) ->
      Buffer.add_string b
        (Printf.sprintf "  %-30s %s\n" (PD.notary_class_to_string cls) (T.fmt_pct frac)))
    t.class_mix;
  Buffer.add_string b "  (paper: 6.7% Mozilla+iOS7, 16.2% iOS7, 37.1% Android-only, 40.0% unrecorded)\n\n";
  let shown = List.filteri (fun i _ -> i < max_rows) t.cells in
  Buffer.add_string b
    (T.render
       ~aligns:[ T.Left; T.Left; T.Left; T.Right; T.Left ]
       ~header:[ "Row"; "Certificate"; "Id"; "Freq"; "Notary class" ]
       (List.map
          (fun c ->
            [
              c.row;
              (if String.length c.cert_name > 38 then String.sub c.cert_name 0 38
               else c.cert_name);
              c.cert_id;
              T.fmt_pct c.frequency;
              PD.notary_class_to_string c.notary_class;
            ])
          shown));
  if List.length t.cells > max_rows then
    Buffer.add_string b
      (Printf.sprintf "\n(%d of %d cells shown; full data in the CSV dump)\n" max_rows
         (List.length t.cells));
  Buffer.contents b

let csv t =
  ( [ "row"; "row_kind"; "cert_name"; "cert_id"; "frequency"; "notary_class" ],
    List.map
      (fun c ->
        [
          c.row;
          (match c.row_kind with By_manufacturer -> "manufacturer" | By_operator -> "operator");
          c.cert_name;
          c.cert_id;
          Printf.sprintf "%.4f" c.frequency;
          PD.notary_class_to_string c.notary_class;
        ])
      t.cells )
