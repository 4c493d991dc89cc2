module PD = Tangled_pki.Paper_data
module BP = Tangled_pki.Blueprint
module Net = Tangled_netalyzr.Netalyzr
module Notary = Tangled_notary.Notary
module T = Tangled_util.Text_table
module Stats = Tangled_util.Stats

type stat = {
  name : string;
  paper : float;
  mean : float;
  stddev : float;
  values : float list;
}

let headline_values (w : Pipeline.t) =
  let u = w.Pipeline.universe in
  let notary = w.Pipeline.notary in
  let unexpired = float_of_int (Stdlib.max 1 (Notary.unexpired notary)) in
  let store_frac store =
    float_of_int (Notary.validated_by_store notary store) /. unexpired
  in
  let zero44 =
    let counts =
      Notary.counts_for_certs notary (BP.store_of_category u "AOSP 4.4 certs")
    in
    Stats.fraction (fun c -> c = 0.0) counts
  in
  [
    ("extended sessions", 0.39, Net.extended_fraction w.Pipeline.dataset);
    ("rooted sessions", 0.24, Net.rooted_fraction w.Pipeline.dataset);
    ("AOSP 4.4 validated fraction", 0.744398, store_frac (u.BP.aosp PD.V4_4));
    ("Mozilla validated fraction", 0.744069, store_frac u.BP.mozilla);
    ("iOS 7 validated fraction", 0.745736, store_frac u.BP.ios7);
    ("AOSP 4.4 roots validating nothing", 0.23, zero44);
  ]

let compute ?(seeds = [ 2; 3; 4 ]) ?config (base : Pipeline.t) =
  let config = Option.value ~default:base.Pipeline.config config in
  let worlds =
    List.map
      (fun seed ->
        Pipeline.run
          ~config:{ config with Pipeline.seed }
          ~universe:base.Pipeline.universe ())
      seeds
  in
  let per_world = List.map headline_values (base :: worlds) in
  match per_world with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i (name, paper, _) ->
          let values = List.map (fun hv -> let _, _, v = List.nth hv i in v) per_world in
          let arr = Array.of_list values in
          { name; paper; mean = Stats.mean arr; stddev = Stats.stddev arr; values })
        first

let render stats =
  T.render
    ~title:"Seed sensitivity: headline statistics across independent worlds"
    ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ]
    ~header:[ "Statistic"; "paper"; "mean"; "stddev"; "runs" ]
    (List.map
       (fun s ->
         [
           s.name;
           T.fmt_pct s.paper;
           T.fmt_pct s.mean;
           Printf.sprintf "%.2fpp" (s.stddev *. 100.0);
           string_of_int (List.length s.values);
         ])
       stats)
