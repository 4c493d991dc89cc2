(** The trust-decision server: the paper's queries, online.

    The batch subcommands answer "does this chain validate against
    device store X", "how does a store diff against the AOSP baseline"
    and "how much traffic does root R anchor" once per run.  [Serve]
    turns them into a long-running request loop — the "millions of
    Android handsets phoning home" framing of the Netalyzr side — built
    robustness-first: no input, fault or overload condition may crash
    the loop or corrupt an answer.

    {b Protocol} ([tangled-serve/2]).  Requests arrive as JSONL frames
    (one JSON object per line) on stdin, a pipe or any byte stream;
    responses leave as JSONL in request order.  Every frame carries an
    [id] (echoed verbatim) and an [op]:

    - [validate]: ["store"] (an official store name or ["handset:N"]),
      ["chain"] (hex-DER certificates, leaf first) — the full
      path-building validation verdict;
    - [diff]: ["store"] vs ["baseline"] — additions/missing against an
      AOSP baseline (Figure 1 online);
    - [coverage]: ["root"] (display name, bracketed hash id or
      equivalence key) — unexpired validated-chain count and traffic
      share of that root (Figure 3 online);
    - [stores]: the current snapshot's epoch, store sizes and
      certificate count (Table 1 online), with the decision-cache and
      CT-log statistics;
    - [health]: liveness, epoch, queue and control-total counters,
      which cover the frames closed before it and so always reconcile;
    - [reload]: ["payload"] (a store-dump JSONL document) — attempt a
      snapshot update through the quarantining ingest layer;
    - [drain]: stop admitting, finish in-flight work, then shut down;
    - [ct-inclusion] (v2): ["log"] (a fleet log name, ["ct0"]...),
      ["index"], optional ["tree_size"] (defaults to the log's current
      size) — an RFC 6962 inclusion proof, hex node hashes bottom-up,
      plus the root it verifies against;
    - [ct-consistency] (v2): ["log"], ["first"], ["second"] — a
      consistency proof between the two tree sizes, with both roots;
    - [ct-visibility] (v2): ["store"] (as in [validate]) — the
      CT-visible vs dark breakdown of that store's roots against the
      log fleet.

    {b Version negotiation.}  v2 is a strict superset of v1: every v1
    frame is decoded and answered byte-for-byte as before, so v1
    clients need not change.  A client probes with [health] — the
    [protocol] member names the server's version — or simply sends a
    ct-* op: a v1 server answers it with the typed [bad-value]
    "unknown op" error in-band, never a dropped connection.  The ct-*
    ops answer typed [unknown-log] / [out-of-range] errors for bad
    parameters, and their proofs are cached in the same epoch-keyed
    decision cache as every other pure read.

    {b Robustness machinery.}

    - {e Total decoding}: any byte sequence yields exactly one typed
      response.  Frames that violate the protocol schema are
      quarantined under the {e ingest} error taxonomy
      ({!Tangled_ingest.Ingest.reason} — [malformed-json],
      [control-bytes], [truncated-record], [missing-field],
      [type-mismatch], [bad-value]) and answered with a typed error.
    - {e Deadlines}: each request gets [deadline_ms] (or the config
      default); expensive ops check the clock at work-unit boundaries
      and answer a typed [timeout] response when it passes.
    - {e Admission control}: a burst larger than the bounded queue is
      load-shed explicitly — surplus frames get a typed [overloaded]
      response, never a silent drop.
    - {e Retry with backoff}: store/index access faults classified
      {!Tangled_fault.Fault.Transient} are retried with exponential
      backoff; {!Tangled_fault.Fault.Permanent} faults quarantine the
      poisoned request and answer a typed error immediately.
    - {e Graceful degradation}: reads answer from the last good
      snapshot; a poisoned [reload] is rejected (typed
      [update-rejected]) without touching it.  An accepted reload
      changes the snapshot epoch (and with it the decision cache) and
      the store sizes and certificate count [stores] reports; every
      other op answers from the world the server was created with.
    - {e Graceful shutdown}: [drain] (or EOF) completes every admitted
      request before the loop exits; late frames, including those
      already read past the drain's burst, get a typed [draining]
      response.

    Everything is deterministic on one domain: batched execution, no
    concurrency, a pluggable clock — the single-CPU container's
    jobs-independence and the golden report digest are untouched.

    {b Accounting.}  Every frame ends in exactly one terminal class —
    answered, typed-error, timeout, shed, refused-draining or
    quarantined — counted in one place as the frame closes, and
    {!reconciled} checks the control totals add up.
    Per-class latency histograms ([serve.latency.*]), the queue-depth
    gauge and shed/timeout/retry counters live in {!Tangled_obs.Obs},
    inside the versioned [tangled-obs/1] trace. *)

module Fault := Tangled_fault.Fault
module Ingest := Tangled_ingest.Ingest

val protocol_version : string
(** ["tangled-serve/2"]. *)

(** {1 Configuration} *)

type config = {
  queue_capacity : int;  (** admission-queue bound (default 64) *)
  batch : int;
      (** most frames answered per burst in {!serve_channel}
          (default 32) *)
  default_deadline_ms : int;
      (** per-request deadline when the frame has no [deadline_ms]
          (default 250) *)
  max_retries : int;
      (** attempts beyond the first for transient faults (default 3) *)
  backoff_s : float;
      (** base backoff; attempt [n] backs off [backoff_s * 2^n]
          (default 1ms).  The single-domain loop records each backoff in
          [backoff_s_total] and never waits on it. *)
  max_frame_bytes : int;  (** frames longer than this are quarantined *)
  cache_capacity : int;
      (** capacity of the request-level decision cache (default 16384;
          0 disables caching).  [validate], [diff], [coverage] and
          ct-* answers are cached in a bounded lib/cache CLOCK keyed by
          (op, canonical parameters) under the snapshot epoch; the
          epoch — and with it every cached decision — rolls on
          {e accepted} reloads only, so a rejected reload leaves cache
          contents and counters byte-identical.  Only [ok] results are
          cached; errors and timeouts always re-execute.  Cache
          statistics ride the [stores] and [health] responses and the
          [serve.decisions] Obs counters (volatile trace member). *)
  clock : unit -> float;
      (** monotonic-enough seconds; tests inject a fake clock to force
          deadlines deterministically *)
  fault_hook : seq:int -> attempt:int -> Fault.kind option;
      (** fault injection aimed at the store/index access of request
          [seq] (0-based admission order), consulted once per attempt.
          [None] (the default) means the access succeeds — this is the
          tests' hook, never a production code path. *)
}

val default_config : config

(** {1 Control totals} *)

type summary = {
  seen : int;  (** frames closed, each in exactly one class below *)
  answered : int;  (** status [ok] *)
  typed_errors : int;  (** status [error], frame well-formed *)
  timed_out : int;  (** status [timeout] *)
  shed : int;  (** status [overloaded] *)
  refused : int;  (** status [draining] *)
  quarantined : int;  (** malformed frames (typed error + quarantine record) *)
  retries : int;  (** transient-fault retry attempts *)
  backoff_s_total : float;  (** cumulative backoff the retries asked for *)
  reloads_accepted : int;
  reloads_rejected : int;
  epoch : int;  (** current snapshot epoch (starts at 1) *)
  drained : bool;  (** the loop shut down through drain/EOF *)
}

val reconciled : summary -> bool
(** [seen = answered + typed_errors + timed_out + shed + refused +
    quarantined] — no request unaccounted. *)

val render_summary : summary -> string

(** {1 The server} *)

type t

val create : ?config:config -> Tangled_core.Pipeline.t -> t
(** A server over this world: queries answer against the world's
    universe, population, Notary coverage index, and a snapshot seeded
    from the world's own store dump (epoch 1). *)

val summary : t -> summary
(** The control totals of every frame closed so far. *)

val draining : t -> bool
(** [(summary t).drained]. *)

val quarantine : t -> Ingest.quarantined list
(** The newest 1 024 quarantined frames, in arrival order; [line] is the
    1-based frame ordinal in the stream (the running [seen]).  Older
    records are dropped, so a hostile stream cannot grow the server's
    heap; [(summary t).quarantined] still counts every quarantined
    frame. *)

val ct_fleet : t -> Tangled_ct.Fleet.t option
(** The server's CT log fleet (always [Some]; built as
    [Tangled_core.Ct_report.compute] builds it) — tests re-verify
    served proofs against it through the pure {!Tangled_ct.Proof}
    API. *)

val cache_stats : t -> Tangled_cache.Cache.stats option
(** Decision-cache statistics ([None] when caching is disabled):
    process-global hit/miss/eviction counters plus this server's live
    entry count, capacity and epoch — the same numbers the [stores]
    and [health] responses embed. *)

val serve_burst : t -> string list -> string list
(** One admission round over a burst of frames: frames beyond
    [queue_capacity] are shed, admitted frames are answered in order
    (all of them, even when a [drain] lands mid-burst — in-flight work
    always completes).  Returns exactly one response line per input
    frame, in input order.  Never raises. *)

val serve_channel : t -> in_channel -> out_channel -> summary
(** The stdin/socket loop: take the complete frames already received,
    at most [batch], answer them, flush, repeat until EOF or a
    processed [drain].  Complete frames already read past a drain's
    burst are then refused as [draining] (nothing more is read), and
    a final summary frame is emitted; the totals are returned.  It
    blocks only while no complete frame is pending, so an interactive
    client that sends one frame (or a [drain]) and waits gets its
    answer.  EOF counts as a clean drain. *)
