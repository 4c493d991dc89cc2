(* Timing, set-up, diagnostics and result printing shared by the
   workloads.  Everything here runs outside the program under test. *)

open Perfbench_kit

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* How many times a run sets itself up.  Set-up is one multi-second
   sample that inherits the host's speed swings, so a run reports the
   median of several. *)
let setup_repeats = 3

(* [setup_median f] runs [f] [setup_repeats] times from a compacted
   heap and returns the last result with every run's time; earlier
   results are dropped before the next one is built so at most one is
   live. *)
let setup_median f =
  let times = Array.make setup_repeats 0.0 in
  let last = ref None in
  for i = 0 to setup_repeats - 1 do
    last := None;
    Gc.compact ();
    let v, dt = timed f in
    times.(i) <- dt;
    last := Some v
  done;
  (Option.get !last, times)

(* Whether the library's own recording (lib/obs) is on for operation [i]
   of a traced run.  Operations come in pairs over the same input, one
   with recording on and one with it off, the order alternating from
   pair to pair (on off, off on, on off, ...) so that warm-up and host
   drift fall on both sides alike. *)
let obs_on_for i = i mod 2 = 0 <> (i / 2 mod 2 = 1)

(* Host-speed probe: a fixed integer loop that calls no program code.
   Printed beside a run's metrics so a reader can tell a slow host from
   a slow program; no metric is ever adjusted by it. *)
let host_probe_ms () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 40_000_000 do
    x := (!x * 31) lxor i
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.0

(* peak_rss_mb is the median of the per-operation peaks of a run's first
   [peak_ops] operations, and every timed run performs at least that
   many.  Fixing the operations it covers keeps it independent of how
   many operations the host's speed let into the run: the process's RSS
   creeps up over repeated notary builds (from about 55 to 125 MB over
   15 builds at jobs 2), so a median over all of them would grow with
   the host's speed. *)
let peak_ops = 5

let peak_rss_of peaks =
  Stats.median (Array.sub peaks 0 (min peak_ops (Array.length peaks)))

(* Reset the kernel's peak-RSS counter (VmHWM) so the next reading
   covers only what follows.  Where the kernel refuses, readings stay
   cumulative. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* Correctness bookkeeping: every failed check is one failed operation
   and keeps its description for the report. *)
type checks = { mutable attempted : int; mutable problems : string list; mutable failed : int }

let checks () = { attempted = 0; problems = []; failed = 0 }

let fail c fmt =
  Printf.ksprintf
    (fun s ->
      c.failed <- c.failed + 1;
      if List.length c.problems < 20 then c.problems <- s :: c.problems)
    fmt

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* A run's outcome.  [notes] are diagnostics printed beside the metrics
   (host probe, sample counts, digests); they never enter the result
   line. *)
type outcome = { checks : checks; metrics : metric list; notes : (string * string) list }

let json_float v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "metric value %g is not reportable" v)
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line o =
  let c = o.checks in
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      o.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (c.failed = 0) (max 1 c.attempted) c.failed
    (String.concat ", " metrics)

let print_report ~title o =
  Printf.printf "== %s\n" title;
  List.iter (fun (k, v) -> Printf.printf "# %-34s %s\n" k v) o.notes;
  List.iter (fun m -> Printf.printf "  %-40s %14.6g %s\n" m.name m.value m.unit_) o.metrics;
  Printf.printf "  %-40s %d attempted, %d failed\n" "operations" o.checks.attempted
    o.checks.failed;
  List.iter (fun p -> Printf.printf "  FAILED CHECK: %s\n" p) (List.rev o.checks.problems);
  flush stdout
