(* Unit tests for the measurement-engine substrate: the interned
   identity table, the id bitset, the incremental coverage index (with
   a QCheck oracle holding it to the one-shot rebuild), and the
   deterministic domain fan-out. *)

module Interner = Tangled_engine.Interner
module Id_set = Tangled_engine.Id_set
module Coverage = Tangled_engine.Coverage
module Parallel = Tangled_engine.Parallel

let qtest = QCheck_alcotest.to_alcotest

let test_interner_dense_ids () =
  let t = Interner.create ~capacity:2 () in
  Alcotest.(check int) "first id" 0 (Interner.intern t "alpha");
  Alcotest.(check int) "second id" 1 (Interner.intern t "beta");
  Alcotest.(check int) "re-intern is stable" 0 (Interner.intern t "alpha");
  Alcotest.(check int) "cardinal" 2 (Interner.cardinal t);
  Alcotest.(check (option int)) "find known" (Some 1) (Interner.find t "beta");
  Alcotest.(check (option int)) "find unknown" None (Interner.find t "gamma");
  Alcotest.(check string) "key roundtrip" "beta" (Interner.key t 1);
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Interner.key: id 9 not minted (have 2)") (fun () ->
      ignore (Interner.key t 9))

let test_interner_growth () =
  let t = Interner.create ~capacity:1 () in
  for i = 0 to 999 do
    Alcotest.(check int) "sequential ids" i (Interner.intern t (string_of_int i))
  done;
  Alcotest.(check int) "cardinal after growth" 1000 (Interner.cardinal t);
  Alcotest.(check string) "key survives growth" "512" (Interner.key t 512)

let test_id_set_basics () =
  let s = Id_set.create 8 in
  Alcotest.(check int) "empty" 0 (Id_set.cardinal s);
  Id_set.add s 3;
  Id_set.add s 3;
  Id_set.add s 0;
  Alcotest.(check bool) "mem 3" true (Id_set.mem s 3);
  Alcotest.(check bool) "mem 1" false (Id_set.mem s 1);
  Alcotest.(check int) "cardinal dedups" 2 (Id_set.cardinal s);
  Id_set.add s (-5);
  Alcotest.(check int) "negative ignored" 2 (Id_set.cardinal s);
  Alcotest.(check bool) "out of range mem" false (Id_set.mem s 1000);
  Id_set.add s 1000;
  Alcotest.(check bool) "auto-grows" true (Id_set.mem s 1000);
  let seen = ref [] in
  Id_set.iter (fun i -> seen := i :: !seen) s;
  Alcotest.(check (list int)) "iter ascending" [ 0; 3; 1000 ] (List.rev !seen)

let test_coverage_counts () =
  (* chains: anchor ids [0;1;1;-1;2;1], chain 4 expired *)
  let anchors = [| 0; 1; 1; -1; 2; 1 |] in
  let expired = [| false; false; false; false; true; false |] in
  let cov =
    Coverage.build ~n_ids:3 ~total:6
      ~anchor:(fun i -> anchors.(i))
      ~expired:(fun i -> expired.(i))
  in
  Alcotest.(check int) "total" 6 (Coverage.total cov);
  Alcotest.(check int) "unexpired" 5 (Coverage.unexpired cov);
  Alcotest.(check int) "count id 0" 1 (Coverage.count cov 0);
  Alcotest.(check int) "count id 1" 3 (Coverage.count cov 1);
  Alcotest.(check int) "count id 2" 0 (Coverage.count cov 2);
  Alcotest.(check int) "count out of range" 0 (Coverage.count cov 99);
  let set = Id_set.of_list [ 0; 1 ] in
  Alcotest.(check int) "validated_by sums member counts" 4
    (Coverage.validated_by cov set);
  let empty = Id_set.create 3 in
  Alcotest.(check int) "validated_by empty" 0 (Coverage.validated_by cov empty)

let test_coverage_incremental_basics () =
  let cov = Coverage.create () in
  Alcotest.(check int) "empty total" 0 (Coverage.total cov);
  Alcotest.(check int) "empty n_ids" 0 (Coverage.n_ids cov);
  Coverage.append cov ~anchor:2 ~expired:false;
  Coverage.append cov ~anchor:(-1) ~expired:false;
  Coverage.append cov ~anchor:2 ~expired:true;
  Coverage.append cov ~anchor:0 ~expired:false;
  Alcotest.(check int) "total" 4 (Coverage.total cov);
  Alcotest.(check int) "unexpired" 3 (Coverage.unexpired cov);
  Alcotest.(check int) "n_ids grows to max anchor + 1" 3 (Coverage.n_ids cov);
  Alcotest.(check (array int)) "counts" [| 1; 0; 1 |] (Coverage.counts cov);
  (* a pre-sized index with trailing zero counters still compares equal *)
  let wide = Coverage.create ~n_ids:64 () in
  Coverage.append wide ~anchor:2 ~expired:false;
  Coverage.append wide ~anchor:(-1) ~expired:false;
  Coverage.append wide ~anchor:2 ~expired:true;
  Coverage.append wide ~anchor:0 ~expired:false;
  Alcotest.(check bool) "equal ignores trailing zeros" true
    (Coverage.equal cov wide)

(* The tentpole's central oracle: folding any append sequence into the
   incremental index must equal a rebuild-from-scratch over the same
   chains — [build] is an independent one-shot implementation, not a
   loop over [append]. *)
let prop_incremental_equals_rebuild =
  QCheck.Test.make ~name:"incremental coverage equals rebuild-from-scratch"
    ~count:200
    QCheck.(
      pair (0 -- 8)
        (small_list (pair (-1 -- 12) bool)))
    (fun (pre_ids, chains) ->
      let inc = Coverage.create ~n_ids:pre_ids () in
      List.iter (fun (anchor, expired) -> Coverage.append inc ~anchor ~expired) chains;
      let arr = Array.of_list chains in
      let rebuilt =
        Coverage.build ~n_ids:pre_ids ~total:(Array.length arr)
          ~anchor:(fun i -> fst arr.(i))
          ~expired:(fun i -> snd arr.(i))
      in
      Coverage.equal inc rebuilt
      && Coverage.total inc = Coverage.total rebuilt
      && Coverage.unexpired inc = Coverage.unexpired rebuilt)

let test_parallel_matches_sequential () =
  let f i = (i * 37) mod 101 in
  let reference = Array.init 1000 f in
  List.iter
    (fun jobs ->
      let got = Parallel.tabulate ~jobs 1000 f in
      Alcotest.(check (array int))
        (Printf.sprintf "tabulate jobs=%d" jobs)
        reference got)
    [ 1; 2; 3; 4; 7; 8 ];
  (* sizes around the slice boundaries *)
  List.iter
    (fun n ->
      let reference = Array.init n f in
      Alcotest.(check (array int))
        (Printf.sprintf "tabulate n=%d" n)
        reference
        (Parallel.tabulate ~jobs:4 n f))
    [ 0; 1; 31; 32; 33; 129 ]

let test_parallel_map () =
  let input = Array.init 257 string_of_int in
  let got = Parallel.map ~jobs:3 String.length input in
  Alcotest.(check (array int)) "map" (Array.map String.length input) got

let test_parallel_resolve () =
  Alcotest.(check int) "explicit survives" 3 (Parallel.resolve 3);
  Alcotest.(check int) "capped" Parallel.max_jobs (Parallel.resolve 99);
  let auto = Parallel.resolve 0 in
  Alcotest.(check bool) "auto in range" true (auto >= 1 && auto <= Parallel.max_jobs)

(* The pool re-raises a slice's own exception value, the lowest
   failing slice first, and stays usable. *)
exception Slice_failed of int

let test_pool_exceptions () =
  let first n bad =
    let f i = if List.mem i bad then raise (Slice_failed i) else i in
    match Parallel.tabulate ~jobs:2 n f with
    | _ -> Alcotest.fail "no exception"
    | exception Slice_failed i -> i
  in
  (* 100 items at jobs 2: slice 0 is [0, 50), the worker's [50, 100) *)
  Alcotest.(check int) "worker slice" 70 (first 100 [ 70 ]);
  Alcotest.(check int) "slice 0" 3 (first 100 [ 3 ]);
  Alcotest.(check int) "lowest slice first" 3 (first 100 [ 70; 3 ]);
  let e = Failure "worker" in
  (match Parallel.tabulate ~jobs:2 100 (fun i -> if i = 99 then raise e else i) with
  | _ -> Alcotest.fail "no exception"
  | exception e' -> Alcotest.(check bool) "the same exception value" true (e == e'));
  Alcotest.(check (array int)) "pool usable after a raise" (Array.init 100 Fun.id)
    (Parallel.tabulate ~jobs:2 100 Fun.id)

(* A call made while another is in flight runs inline: nested inside
   [f] (on the caller and on a worker), or from another domain. *)
let test_pool_reentrant () =
  let inner i = Array.init 64 (fun j -> (i * 64) + j) in
  Alcotest.(check (array (array int))) "nested in f" (Array.init 100 inner)
    (Parallel.tabulate ~jobs:2 100 (fun i ->
         Parallel.tabulate ~jobs:2 64 (fun j -> (i * 64) + j)));
  let from_other_domain =
    Parallel.tabulate ~jobs:2 64 (fun i ->
        if i = 0 then
          Domain.join (Domain.spawn (fun () -> Parallel.tabulate ~jobs:2 200 Fun.id))
        else [||])
  in
  Alcotest.(check (array int)) "from a second domain mid-call" (Array.init 200 Fun.id)
    from_other_domain.(0)

(* Workers persist: the worker slice of two successive calls runs on
   the same domain, and not on the caller's, until [release]. *)
let test_pool_persistent_workers () =
  let ids () = Parallel.tabulate ~jobs:2 64 (fun _ -> (Domain.self () :> int)) in
  let a = ids () in
  let b = ids () in
  let self = (Domain.self () :> int) in
  Alcotest.(check int) "caller runs slice 0" self a.(0);
  Alcotest.(check bool) "worker is another domain" true (a.(63) <> self);
  Alcotest.(check int) "same worker next call" a.(63) b.(63);
  Parallel.release ();
  let c = ids () in
  Alcotest.(check bool) "a fresh worker after release" true
    (c.(63) <> a.(63) && c.(63) <> self)

let suite =
  [
    Alcotest.test_case "interner dense ids" `Quick test_interner_dense_ids;
    Alcotest.test_case "interner growth" `Quick test_interner_growth;
    Alcotest.test_case "id_set basics" `Quick test_id_set_basics;
    Alcotest.test_case "coverage counts" `Quick test_coverage_counts;
    Alcotest.test_case "coverage incremental basics" `Quick
      test_coverage_incremental_basics;
    qtest prop_incremental_equals_rebuild;
    Alcotest.test_case "parallel tabulate deterministic" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "parallel map" `Quick test_parallel_map;
    Alcotest.test_case "parallel resolve" `Quick test_parallel_resolve;
    Alcotest.test_case "pool re-raises the lowest failing slice" `Quick
      test_pool_exceptions;
    Alcotest.test_case "pool nested and cross-domain calls" `Quick test_pool_reentrant;
    Alcotest.test_case "pool workers persist across calls" `Quick
      test_pool_persistent_workers;
  ]
