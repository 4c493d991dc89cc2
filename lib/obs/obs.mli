(** Unified observability: one instrumentation API for the whole
    pipeline.

    [Obs] replaced the engine's earlier [Timing] (flat wall-clock
    spans) and [Metrics] (process-global counters) pair — both since
    deleted — with a single subsystem:

    - {b hierarchical spans} — {!span} nests via a domain-local stack,
      records wall-clock duration and a success/error status, and
      never loses a span when the instrumented computation raises;
    - {b a typed instrument registry} — {!counter}s, {!gauge}s and
      fixed-bucket {!histogram}s, aggregated with atomics so hot paths
      in worker domains pay one atomic op per event;
    - {b a bounded structured event log} — {!event} keeps the last
      {!event_capacity} discrete occurrences (quarantined records,
      cache clears, injected faults) with string fields;
    - {b a deterministic JSONL trace exporter} — {!trace_jsonl} writes
      a versioned schema in which nondeterministic measurements
      (timestamps, durations, worker-count-dependent counts) live
      exclusively under each line's ["volatile"] member, so
      {!stable_view} of a trace is byte-identical at any [--jobs].

    Everything here is observability only: no value ever feeds back
    into the study's outputs, so report artefacts stay byte-identical
    whether instrumentation is on, off, or torn down mid-run.  All
    entry points are thread-safe. *)

(** {1 Master switch} *)

val enabled : unit -> bool
(** Whether recording is active (default [true]). *)

val set_enabled : bool -> unit
(** Disable to make every recording call a cheap no-op branch — the
    before-side of the bench overhead pair. *)

(** {1 Spans} *)

type status = Done | Failed of string

type span = {
  id : int;       (** creation order, process-wide, 1-based *)
  parent : int;   (** id of the enclosing span, 0 at the root *)
  name : string;
  depth : int;    (** 0 for root spans *)
  start_s : float;(** [Unix.gettimeofday] at entry *)
  dur_s : float;
  status : status;
}

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] as a child of the current domain's
    innermost open span, recording a completed span either way: status
    {!Done} on return, {!Failed} carrying the exception text when [f]
    raises (the exception is re-raised with its backtrace).  The old
    [Timing.time] silently dropped raising spans; this is the fix. *)

val spanned : string -> (unit -> 'a) -> 'a * span
(** Like {!span} but also returns the completed span record
    (collectors use this).  When recording is disabled the span is
    synthesized with [id = 0] and not retained. *)

val spans : unit -> span list
(** Completed spans in creation (id) order. *)

val render_spans : ?title:string -> unit -> string
(** The span tree: one line per span, indented by depth, with duration
    and status; [""] when no spans were recorded. *)

val render_span_table : ?title:string -> (string * float) list -> string
(** The flat stage-timing table (name, seconds, share-of-total) the
    old [Timing.render] printed; kept as a shared renderer so the
    deprecated shim and the pipeline produce identical bytes. *)

(** {1 Counters and gauges} *)

type counter

val counter : string -> counter
(** The process-wide counter registered under this name, created at
    zero on first request. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val render_counters : ?title:string -> unit -> string

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

val gauges : unit -> (string * int) list
(** All gauges, sorted by name. *)

(** {1 Histograms} *)

type histogram

val latency_buckets : float array
(** Default upper bounds for latency-in-seconds histograms: 1µs to
    10s, roughly ×3 per bucket. *)

val histogram : ?buckets:float array -> string -> histogram
(** The process-wide histogram registered under this name.  [buckets]
    (default {!latency_buckets}) are strictly increasing upper bounds;
    an implicit overflow bucket catches everything above the last
    edge.  [buckets] is only consulted on first registration. *)

val observe : histogram -> float -> unit
(** Record one observation: one atomic increment on the owning bucket
    plus an atomic update of the running sum. *)

val time_histogram : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and {!observe} its wall-clock duration in seconds
    (also when it raises, before re-raising). *)

type histogram_snapshot = {
  h_name : string;
  edges : float array;  (** upper bounds; an overflow bucket follows *)
  counts : int array;   (** length [Array.length edges + 1] *)
  total : int;
  sum : float;
}

val histogram_snapshot : histogram -> histogram_snapshot

val histograms : unit -> histogram_snapshot list
(** All histograms, sorted by name. *)

val quantile : histogram_snapshot -> float -> float
(** [quantile s q] estimates the [q]-quantile ([0 <= q <= 1]) by
    linear interpolation inside the bucket holding that rank; the
    overflow bucket reports its lower edge.  [nan] when empty. *)

val render_histograms : ?title:string -> unit -> string
(** One line per non-empty histogram: count, mean, p50/p90/p99. *)

(** {1 Events} *)

type event_record = {
  seq : int;  (** process-wide emission order, 1-based *)
  e_name : string;
  fields : (string * string) list;
}

val event_capacity : int
(** How many most-recent events the bounded log retains (1024). *)

val event : ?fields:(string * string) list -> string -> unit

val events : unit -> event_record list
(** Retained events, oldest first. *)

val render_events : ?title:string -> ?limit:int -> unit -> string
(** The newest [limit] (default 12) events, oldest first. *)

(** {1 Lifecycle} *)

val reset_all : unit -> unit
(** Zero every counter and gauge, clear every histogram's buckets and
    sum, and drop all recorded spans and events.  Instruments stay
    registered under their names.  Bench cold/warm sections call this
    between phases so no state leaks across a measurement boundary. *)

(** {1 Trace export} *)

val schema_version : string
(** The trace schema identifier, currently ["tangled-obs/1"]. *)

val trace_jsonl : ?jobs:int -> unit -> string
(** The whole recorded state as JSONL: a header line, then spans (id
    order), counters, gauges and histograms (each name-sorted), then
    events (seq order).  Every line is an object whose deterministic
    fields sit at the top level and whose nondeterministic fields —
    ids, timestamps, durations, counts that depend on the worker
    split — sit under the ["volatile"] member, so {!stable_view} is
    byte-identical at any [--jobs].  [jobs] records the worker count
    in the header (volatile). *)

val stable_view : string -> (string, string) result
(** The trace with every line's ["volatile"] member removed — the
    bytes that must not depend on worker count or wall clock.
    [Error] describes the first malformed line. *)

val validate_trace : string -> (unit, string) result
(** Structural schema check: a header line announcing
    {!schema_version} first, every subsequent line a known record kind
    with its required fields of the right types, histogram count
    arrays matching their edges.  [Error] pinpoints the first
    violation. *)

val render : ?title:string -> unit -> string
(** The CLI's "obs" section: span tree, histogram quantiles, counter
    table and the newest events, in that order; sections with nothing
    recorded are omitted. *)
