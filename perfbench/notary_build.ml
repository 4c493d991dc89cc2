(* The `notary-build` workloads: the issuance path.  One operation builds
   a fresh Notary corpus of [leaves] leaves — RSA signing, TBS encoding,
   arena append and the coverage fold — with the build phase spread over
   two domains.  Between operations the heap is compacted, outside the
   timing, so the memory high-water reflects one corpus rather than GC
   timing. *)

open Perfbench_kit
open Common
module BP = Tangled_pki.Blueprint
module Notary = Tangled_notary.Notary
module Arena = Tangled_x509.Arena
module Obs = Tangled_obs.Obs

let jobs = 2
let crosscheck_sample = 48

type op = {
  seed : int;
  build_s : float;
  certs : int;
  spans : (string * float) list;  (** the library's notary.* spans *)
  obs_on : bool;
  peak_mb : float;  (** peak RSS during the build *)
}

let certs_per_s o = float_of_int o.certs /. o.build_s
let span_names = [ "notary.keys"; "notary.intermediates"; "notary.plan_and_build" ]

let last_span_id () =
  List.fold_left (fun acc (s : Obs.span) -> max acc s.Obs.id) 0 (Obs.spans ())

(* The notary.* spans recorded since span [after]. *)
let spans_since after =
  List.filter_map
    (fun (s : Obs.span) ->
      if s.Obs.id > after && List.mem s.Obs.name span_names then Some (s.Obs.name, s.Obs.dur_s)
      else None)
    (Obs.spans ())

(* Every chain in a sample must get the same verdict from the full
   path-building validator as from the arena's anchor column, against
   every official store. *)
let check_corpus chk u ~leaves n seed =
  let expected = leaves + int_of_float (Float.round (0.10 *. float_of_int leaves)) in
  if Notary.unexpired n <> leaves then
    fail chk "seed %d: %d unexpired chains, expected %d" seed (Notary.unexpired n) leaves;
  if Notary.total n <> expected then
    fail chk "seed %d: %d chains, expected %d" seed (Notary.total n) expected;
  let stores =
    List.map (fun v -> u.BP.aosp v) Tangled_pki.Paper_data.[ V4_1; V4_2; V4_3; V4_4 ]
    @ [ u.BP.mozilla; u.BP.ios7 ]
  in
  List.iteri
    (fun k store ->
      if not (Notary.crosscheck n store ~sample:crosscheck_sample ~seed:(seed + k)) then
        fail chk "seed %d: crosscheck disagrees on store %d" seed k)
    stores

(* Build corpora until [seconds] have passed (at least [min_ops]).  With
   [alternate_obs] builds come in pairs on one seed, one with the
   library's recording on and one with it off ([obs_on_for]), for the
   traced run's overhead figure; a seed built twice must give the same
   arena digest. *)
let run chk ?(min_ops = 1) ?(alternate_obs = false) ~leaves ~seed ~seconds u =
  let ops = ref [] and digests = ref [] in
  let t_start = now () in
  let i = ref 0 in
  while !i < min_ops || now () -. t_start < seconds do
    let slot = if alternate_obs then !i / 2 else !i in
    let s = 1 + (Rng.derive seed (100 + slot) mod 1_000_000) in
    let obs_on = (not alternate_obs) || obs_on_for !i in
    Gc.compact ();
    let after = last_span_id () in
    Obs.set_enabled obs_on;
    chk.attempted <- chk.attempted + 1;
    reset_peak_rss ();
    (match timed (fun () -> Notary.generate ~leaves ~jobs ~seed:s u) with
    | n, build_s ->
        let peak_mb = peak_rss_mb () in
        Obs.set_enabled true;
        let spans = spans_since after in
        check_corpus chk u ~leaves n s;
        let d = Tangled_util.Hex.encode (Arena.digest (Notary.arena n)) in
        (match List.assoc_opt s !digests with
        | Some d0 when d0 <> d -> fail chk "seed %d arena digest changed: %s then %s" s d0 d
        | Some _ -> ()
        | None -> digests := (s, d) :: !digests);
        ops := { seed = s; build_s; certs = Notary.total n; spans; obs_on; peak_mb } :: !ops
    | exception e ->
        Obs.set_enabled true;
        fail chk "seed %d: build raised %s" s (Printexc.to_string e));
    incr i
  done;
  Gc.compact ();
  let ops = Array.of_list (List.rev !ops) in
  let notes =
    ("build seconds", String.concat " " (Array.to_list (Array.map (fun o -> Printf.sprintf "%.3f" o.build_s) ops)))
    :: ("peak RSS MB", String.concat " " (Array.to_list (Array.map (fun o -> Printf.sprintf "%.1f" o.peak_mb) ops)))
    :: List.rev_map (fun (s, d) -> (Printf.sprintf "arena digest seed %d" s, d)) !digests
  in
  (ops, notes)

let end_to_end ops =
  [
    metric "throughput_per_s" "1/s" (Stats.median (Array.map certs_per_s ops));
    metric "peak_rss_mb" "MB" (peak_rss_of (Array.map (fun o -> o.peak_mb) ops));
  ]

(* Layer self time is the library's three notary.* spans; whatever of a
   build's wall time they do not cover is unattributed. *)
let layers ops ~modpows =
  let on = Array.of_list (List.filter (fun o -> o.obs_on) (Array.to_list ops)) in
  let span o name = Option.value ~default:0.0 (List.assoc_opt name o.spans) in
  let wall = Stats.sum (Array.map (fun o -> o.build_s) on) in
  let shares =
    List.map
      (fun name -> (name, Stats.sum (Array.map (fun o -> span o name) on) /. wall))
      span_names
  in
  let unattributed = 1.0 -. List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
  let med name = Stats.median (Array.map (fun o -> span o name) on) in
  let metrics =
    [
      metric "notary.keys_s" "s" (med "notary.keys");
      metric "notary.intermediates_s" "s" (med "notary.intermediates");
      metric "notary.plan_and_build_s" "s" (med "notary.plan_and_build");
      metric "numeric.modpow_per_op.notary-build" "count"
        (float_of_int modpows /. float_of_int (Array.length on));
      metric "notary-build.unattributed_share" "ratio" unattributed;
    ]
  in
  (metrics, shares, unattributed)
