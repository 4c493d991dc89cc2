module Pop = Tangled_device.Population
module T = Tangled_util.Text_table

type t = {
  top_devices : (string * int) list;
  top_manufacturers : (string * int) list;
}

let take n l = List.filteri (fun i _ -> i < n) l

let top = 5

let compute (w : Pipeline.t) =
  let pop = w.Pipeline.population in
  let devices =
    Pop.sessions_by_model pop
    |> List.map (fun (model, manufacturer, sessions) ->
           (manufacturer ^ " " ^ model, sessions))
    |> take top
  in
  let manufacturers = take top (Pop.sessions_by_manufacturer pop) in
  { top_devices = devices; top_manufacturers = manufacturers }

let render t =
  let n = Stdlib.max (List.length t.top_devices) (List.length t.top_manufacturers) in
  let nth l i = if i < List.length l then List.nth l i else ("", 0) in
  let rows =
    List.init n (fun i ->
        let dm, dn = nth t.top_devices i in
        let mm, mn = nth t.top_manufacturers i in
        [ dm; (if dn = 0 then "" else T.fmt_int dn);
          mm; (if mn = 0 then "" else T.fmt_int mn) ])
  in
  T.render ~title:"Table 2: Top 5 mobile devices and manufacturers (sessions)"
    ~aligns:[ T.Left; T.Right; T.Left; T.Right ]
    ~header:[ "Device model"; "No. sessions"; "Manufacturer"; "No. sessions" ]
    rows

let csv t =
  ( [ "rank"; "device"; "device_sessions"; "manufacturer"; "manufacturer_sessions" ],
    List.mapi
      (fun i ((dm, dn), (mm, mn)) ->
        [ string_of_int (i + 1); dm; string_of_int dn; mm; string_of_int mn ])
      (List.combine t.top_devices t.top_manufacturers) )
