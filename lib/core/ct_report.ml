(* The CT-visibility extension section: build the log fleet over the
   world's corpus and answer the question the paper cannot — which
   device-store roots are visible in at least one public log, and which
   are dark everywhere (cf. "Characterizing the Root Landscape of
   Certificate Transparency Logs"). *)

module Fleet = Tangled_ct.Fleet
module Log = Tangled_ct.Log
module T = Tangled_util.Text_table

type t = { fleet : Fleet.t; rows : Fleet.store_row list }

let compute (world : Pipeline.t) =
  let fleet =
    Fleet.build ~seed:world.config.seed world.universe world.notary
  in
  { fleet; rows = Fleet.official_visibility fleet }

let render t =
  let b = Buffer.create 4096 in
  let log_rows =
    Array.to_list
      (Array.map
         (fun (e : Fleet.entry) ->
           [
             Log.name e.Fleet.log;
             T.fmt_int e.Fleet.accepted_roots;
             T.fmt_int (Log.size e.Fleet.log);
             String.sub (Log.head_hex e.Fleet.log) 0 16;
           ])
         (Fleet.entries t.fleet))
  in
  Buffer.add_string b
    (T.render ~title:"CT log fleet (RFC 6962 over the Notary corpus)"
       ~aligns:[ T.Left; T.Right; T.Right; T.Left ]
       ~header:[ "log"; "accepted roots"; "tree size"; "head (prefix)" ]
       log_rows);
  Buffer.add_char b '\n';
  let vis_rows =
    List.map
      (fun (r : Fleet.store_row) ->
        [
          r.Fleet.store_name;
          T.fmt_int r.Fleet.roots;
          T.fmt_int r.Fleet.accepted;
          T.fmt_int r.Fleet.logged;
          T.fmt_int r.Fleet.dark;
          (if r.Fleet.roots = 0 then "-"
           else T.fmt_pct (float_of_int r.Fleet.logged /. float_of_int r.Fleet.roots));
        ])
      t.rows
  in
  Buffer.add_string b
    (T.render ~title:"CT visibility of device-store roots"
       ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right ]
       ~header:[ "store"; "roots"; "accepted"; "logged"; "dark"; "visible" ]
       vis_rows);
  Buffer.add_char b '\n';
  let dark_examples =
    List.concat_map
      (fun (r : Fleet.store_row) ->
        match r.Fleet.dark_names with
        | [] -> []
        | names ->
          [ (r.Fleet.store_name, String.concat ", " names) ])
      t.rows
  in
  (match dark_examples with
  | [] -> Buffer.add_string b "No dark roots: every store root is logged.\n"
  | kv ->
    Buffer.add_string b
      (T.render_kv ~title:"Dark roots (first few per store)" kv));
  Buffer.contents b

let csv t =
  ( [ "store"; "roots"; "accepted"; "logged"; "dark"; "visible_fraction" ],
    List.map
      (fun (r : Fleet.store_row) ->
        [
          r.Fleet.store_name;
          string_of_int r.Fleet.roots;
          string_of_int r.Fleet.accepted;
          string_of_int r.Fleet.logged;
          string_of_int r.Fleet.dark;
          (if r.Fleet.roots = 0 then "0"
           else
             Printf.sprintf "%.4f"
               (float_of_int r.Fleet.logged /. float_of_int r.Fleet.roots));
        ])
      t.rows )
