let max_jobs = 8

let default_jobs () = Stdlib.min max_jobs (Domain.recommended_domain_count ())

let resolve jobs =
  if jobs <= 0 then default_jobs () else Stdlib.min jobs max_jobs

(* Below this many items per worker, handing a slice to another domain
   costs more than it saves. *)
let min_slice = 32

(* --- the worker pool ---------------------------------------------------

   Worker domains start on first use and then persist, each parked on
   its own task slot: the caller fills the slot and signals, the worker
   runs the task, empties the slot and signals back.  A persistent
   worker keeps its minor heap and its domain-local caches between
   calls instead of building and discarding them on every one.  One
   call owns the pool at a time ([busy]); a call that finds it taken —
   nested inside [f], or from another domain — runs inline.  The exit
   hook, and [release] before long single-domain work, join the
   workers. *)

type slot = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable task : (unit -> unit) option; (* filled by the caller, emptied when done *)
  mutable stop : bool;
}

let busy = Atomic.make false

(* worker [k] (slice [k]) parks on [workers.(k - 1)]; changed only by
   the holder of [busy] *)
let workers : (slot * unit Domain.t) array ref = ref [||]

let rec serve s =
  Mutex.lock s.lock;
  while Option.is_none s.task && not s.stop do
    Condition.wait s.cond s.lock
  done;
  match s.task with
  | None -> Mutex.unlock s.lock
  | Some task ->
      Mutex.unlock s.lock;
      task ();
      Mutex.lock s.lock;
      s.task <- None;
      Condition.broadcast s.cond;
      Mutex.unlock s.lock;
      serve s

let submit s task =
  Mutex.lock s.lock;
  s.task <- Some task;
  Condition.broadcast s.cond;
  Mutex.unlock s.lock

let await s =
  Mutex.lock s.lock;
  while Option.is_some s.task do
    Condition.wait s.cond s.lock
  done;
  Mutex.unlock s.lock

let release () =
  if Atomic.compare_and_set busy false true then begin
    let ws = !workers in
    workers := [||];
    Array.iter
      (fun (s, _) ->
        Mutex.lock s.lock;
        s.stop <- true;
        Condition.broadcast s.cond;
        Mutex.unlock s.lock)
      ws;
    Array.iter (fun (_, d) -> Domain.join d) ws;
    Atomic.set busy false
  end

let () = at_exit release

(* one at a time, so a failed spawn loses none already running *)
let ensure_workers n =
  while Array.length !workers < n do
    let s =
      { lock = Mutex.create (); cond = Condition.create (); task = None; stop = false }
    in
    workers := Array.append !workers [| (s, Domain.spawn (fun () -> serve s)) |]
  done

(* Every slice runs to completion, each failure captured with its
   backtrace, before the caller looks at any of them. *)
let run_slices ~jobs n f =
  let slice k =
    let lo = k * n / jobs and hi = (k + 1) * n / jobs in
    match Array.init (hi - lo) (fun i -> f (lo + i)) with
    | a -> Ok a
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  ensure_workers (jobs - 1);
  let results = Array.make jobs (Ok [||]) in
  (* backtrace recording is per domain: workers follow the caller *)
  let record = Printexc.backtrace_status () in
  for k = 1 to jobs - 1 do
    submit
      (fst !workers.(k - 1))
      (fun () ->
        Printexc.record_backtrace record;
        results.(k) <- slice k)
  done;
  results.(0) <- slice 0;
  for k = 1 to jobs - 1 do
    await (fst !workers.(k - 1))
  done;
  results

let tabulate ~jobs n f =
  if n < 0 then invalid_arg "Parallel.tabulate: negative length";
  let jobs = Stdlib.max 1 (Stdlib.min (Stdlib.min jobs max_jobs) (n / min_slice)) in
  if jobs <= 1 || not (Atomic.compare_and_set busy false true) then Array.init n f
  else begin
    let results =
      Fun.protect
        ~finally:(fun () -> Atomic.set busy false)
        (fun () -> run_slices ~jobs n f)
    in
    (* the lowest failing slice wins *)
    Array.concat
      (Array.to_list
         (Array.map
            (function Ok a -> a | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
            results))
  end

let map ~jobs f a = tabulate ~jobs (Array.length a) (fun i -> f a.(i))
