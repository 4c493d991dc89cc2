(* Tests for the open-loop generator: the schedule is a function of the
   seed alone, and a stall in one burst shows up in the latency of every
   request that was due while it lasted. *)

open Perfbench_kit

let schedule_is_seed_deterministic () =
  let s seed = Openloop.poisson_schedule ~seed ~rate:2000.0 ~duration:2.0 in
  Alcotest.(check (array (float 0.0))) "same seed" (s 7) (s 7);
  Alcotest.(check bool) "other seed differs" false (s 7 = s 8);
  let a = s 7 in
  let n = Array.length a in
  Alcotest.(check bool) "about rate x duration arrivals" true (n > 3800 && n < 4200);
  Alcotest.(check bool) "sorted, inside the window" true
    (Array.for_all (fun t -> t >= 0.0 && t < 2.0) a
    && Array.for_all Fun.id (Array.init (n - 1) (fun i -> a.(i) <= a.(i + 1))))

(* A virtual clock: waiting jumps to the target, a burst costs 10 us per
   request, except one burst that stalls for 50 ms. *)
let stall_reaches_queued_requests () =
  let now = ref 0.0 in
  let schedule = Array.init 400 (fun i -> 0.001 *. float_of_int i) in
  let stall_first = 100 and stall = 0.050 in
  let largest = ref 0 in
  let burst first count =
    largest := max !largest count;
    now := !now +. (1e-5 *. float_of_int count);
    if first = stall_first then now := !now +. stall
  in
  let r =
    Openloop.run ~clock:(fun () -> !now)
      ~wait_until:(fun t -> if t > !now then now := t)
      ~duration:0.4 ~schedule burst
  in
  let stall_end = schedule.(stall_first) +. stall in
  Array.iteri
    (fun j due ->
      let l = r.Openloop.latency.(j) in
      if j >= stall_first && due < stall_end then begin
        if l < stall_end -. due then
          Alcotest.failf "request %d due %.3f: latency %.4f hides the stall" j due l
      end
      else if j < stall_first && l > 1e-3 then
        Alcotest.failf "request %d before the stall has latency %.4f" j l)
    schedule;
  Alcotest.(check bool) "bursts batch the backlog" true (r.Openloop.bursts < 400);
  Alcotest.(check int) "at most 32 requests per burst" 32 !largest;
  Alcotest.(check int) "no backlog at the end" 0 r.Openloop.backlog_at_end

let backlog_counts_late_requests () =
  let now = ref 0.0 in
  let schedule = Array.init 100 (fun i -> 0.001 *. float_of_int i) in
  (* every burst takes 5 ms: the server falls behind and is still busy
     when the schedule ends *)
  let burst _ _ = now := !now +. 0.005 in
  let r =
    Openloop.run ~max_burst:1 ~clock:(fun () -> !now)
      ~wait_until:(fun t -> if t > !now then now := t)
      ~duration:0.1 ~schedule burst
  in
  Alcotest.(check bool) "backlog left at the end" true (r.Openloop.backlog_at_end > 0);
  Alcotest.(check bool) "drain time reported" true (r.Openloop.drain_s > 0.3)

let () =
  Alcotest.run "perfbench"
    [
      ( "openloop",
        [
          Alcotest.test_case "schedule is seed-deterministic" `Quick
            schedule_is_seed_deterministic;
          Alcotest.test_case "a stall reaches every queued request" `Quick
            stall_reaches_queued_requests;
          Alcotest.test_case "backlog left at the end is counted" `Quick
            backlog_counts_late_requests;
        ] );
    ]
