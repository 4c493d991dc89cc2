(* Open-loop load generation for a server driven in bursts.

   Arrivals follow a seeded Poisson schedule fixed before timing starts.
   The generator never waits for a reply before a request becomes due: each
   time the server is free it hands over every request already due (at
   most [max_burst]) as one burst.  Latency runs from a request's due
   time to the end of the burst that answers it, so a stall is charged
   to every request that queued behind it instead of disappearing from
   the record (coordinated omission). *)

let poisson_schedule ~seed ~rate ~duration =
  let rng = Rng.create seed in
  let due = ref [] and t = ref (Rng.exponential rng rate) in
  while !t < duration do
    due := !t :: !due;
    t := !t +. Rng.exponential rng rate
  done;
  Array.of_list (List.rev !due)

type result = {
  latency : float array;  (** due time -> end of its burst, per request *)
  queue_wait : float array;  (** due time -> start of its burst *)
  lag : float array;
      (** for bursts started from idle: how late the generator woke
          after the due time it waited for *)
  bursts : int;
  backlog_at_end : int;
      (** requests still waiting when the schedule's last arrival
          window closed *)
  drain_s : float;  (** time past the schedule's end to answer them *)
}

(* [run ~clock ~wait_until ~duration ~schedule burst] plays [schedule]
   (due times in seconds from the start) against [burst first count],
   which must answer requests [first .. first + count - 1].  [clock] and
   [wait_until] are absolute; tests pass a virtual clock. *)
let run ?(max_burst = 32) ~clock ~wait_until ~duration ~schedule burst =
  let n = Array.length schedule in
  let latency = Array.make n 0.0 and queue_wait = Array.make n 0.0 in
  let lag = ref [] and bursts = ref 0 and backlog = ref 0 in
  let t0 = clock () in
  let next = ref 0 in
  while !next < n do
    let due = schedule.(!next) in
    let start =
      let now = clock () -. t0 in
      if now >= due then now
      else begin
        wait_until (t0 +. due);
        let s = clock () -. t0 in
        lag := (s -. due) :: !lag;
        s
      end
    in
    let k = ref 1 in
    while !k < max_burst && !next + !k < n && schedule.(!next + !k) <= start do
      incr k
    done;
    if start > duration then backlog := !backlog + !k;
    burst !next !k;
    let fin = clock () -. t0 in
    for j = !next to !next + !k - 1 do
      latency.(j) <- fin -. schedule.(j);
      queue_wait.(j) <- start -. schedule.(j)
    done;
    incr bursts;
    next := !next + !k
  done;
  let drain_s = Float.max 0.0 (clock () -. t0 -. duration) in
  {
    latency;
    queue_wait;
    lag = Array.of_list (List.rev !lag);
    bursts = !bursts;
    backlog_at_end = !backlog;
    drain_s;
  }

(* Wait on the wall clock: sleep for the bulk of long gaps, then spin so
   the wake-up lands close to the due time. *)
let wait_until target =
  let rec go () =
    let gap = target -. Unix.gettimeofday () in
    if gap > 0.002 then begin
      Unix.sleepf (gap -. 0.001);
      go ()
    end
    else if gap > 0.0 then go ()
  in
  go ()
