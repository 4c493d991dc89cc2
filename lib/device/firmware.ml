module PD = Tangled_pki.Paper_data
module BP = Tangled_pki.Blueprint
module Prng = Tangled_util.Prng
module Rs = Tangled_store.Root_store
module Authority = Tangled_x509.Authority

type profile = {
  manufacturer : string;
  os_version : PD.android_version;
  operator : string;
}

(* Heavy-extender rows, each paired with the approximate slice of the
   generic pool it ships (Figure 1 shows their 4.1/4.2 builds gaining
   more than 40 certificates over AOSP). *)
let heavy_rows =
  List.concat_map
    (fun (m, versions) -> List.map (fun v -> (m, v)) versions)
    PD.heavy_extenders

let light_rows =
  (* conservative vendors: a couple of additions at most *)
  List.concat_map
    (fun m -> List.map (fun v -> (m, v)) PD.android_versions)
    PD.light_extenders

let generic_assignment (universe : BP.t) =
  let rng = Prng.split (Prng.create universe.BP.seed) "firmware-generic" in
  let table = Hashtbl.create 128 in
  Hashtbl.iter
    (fun id (root : BP.root) ->
      match root.BP.extra with
      | Some x when x.PD.xc_placement = PD.Generic ->
          (* most generic extras ride on the heavy rows; a sprinkle
             lands on light rows so their panels are not empty *)
          let rows = ref [] in
          List.iter
            (fun row -> if Prng.bernoulli rng 0.75 then rows := row :: !rows)
            heavy_rows;
          List.iter
            (fun row -> if Prng.bernoulli rng 0.04 then rows := row :: !rows)
            light_rows;
          (* guarantee at least one placement so every Figure 2 column
             has a chance to appear *)
          let rows =
            match !rows with
            | [] -> [ List.nth heavy_rows (Prng.int rng (List.length heavy_rows)) ]
            | l -> l
          in
          Hashtbl.replace table id rows
      | _ -> ())
    universe.BP.extra_by_id;
  table

let vendor_extras (universe : BP.t) generic profile =
  Hashtbl.fold
    (fun id (root : BP.root) acc ->
      match root.BP.extra with
      | None -> acc
      | Some x -> (
          match x.PD.xc_placement with
          | PD.Vendor (manufacturers, versions) ->
              if
                List.mem profile.manufacturer manufacturers
                && List.mem profile.os_version versions
              then (root, x.PD.xc_frequency) :: acc
              else acc
          | PD.Carrier (operators, manufacturers) ->
              if
                List.mem profile.operator operators
                && (manufacturers = [] || List.mem profile.manufacturer manufacturers)
              then (root, x.PD.xc_frequency) :: acc
              else acc
          | PD.Generic ->
              let rows = Option.value ~default:[] (Hashtbl.find_opt generic id) in
              if List.mem (profile.manufacturer, profile.os_version) rows then
                (root, x.PD.xc_frequency) :: acc
              else acc))
    universe.BP.extra_by_id []
  |> List.sort (fun ((a : BP.root), _) (b, _) ->
         Stdlib.compare a.BP.display_name b.BP.display_name)

(* share of heavy-extender builds carrying every eligible extra *)
let fully_loaded_fraction = 0.25

let assemble rng (universe : BP.t) generic profile =
  let base = universe.BP.aosp profile.os_version in
  let eligible = vendor_extras universe generic profile in
  let fully_loaded =
    List.mem (profile.manufacturer, profile.os_version) heavy_rows
    && Prng.bernoulli rng fully_loaded_fraction
  in
  List.fold_left
    (fun store ((root : BP.root), freq) ->
      if fully_loaded || Prng.bernoulli rng freq then begin
        let provenance =
          match root.BP.extra with
          | Some { PD.xc_placement = PD.Carrier _; _ } -> Rs.Operator profile.operator
          | _ -> Rs.Manufacturer profile.manufacturer
        in
        Rs.merge store
          (Rs.of_certs "overlay" provenance [ root.BP.authority.Authority.certificate ])
      end
      else store)
    base eligible
