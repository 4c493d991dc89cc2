(** Domain-parallel bulk computation with deterministic results.

    OCaml 5 domains, no extra dependencies.  The contract mirrors
    [Array.init]: the result at index [i] is [f i], whatever the worker
    count — workers own contiguous slices and the slices are
    concatenated in order, so parallelism is invisible in the output.
    [f] must be pure with respect to shared state (the pipeline
    arranges this by drawing all randomness in a sequential planning
    pass first). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] capped at {!max_jobs} — the
    worker count used when the config asks for auto ([jobs = 0]). *)

val max_jobs : int
(** Upper cap on worker counts (8), and so on the pool: at most
    [max_jobs - 1] worker domains ever start. *)

val resolve : int -> int
(** [resolve jobs] is the effective worker count: [jobs] clamped to
    [1 .. max_jobs], with [jobs <= 0] meaning {!default_jobs}. *)

val tabulate : jobs:int -> int -> (int -> 'a) -> 'a array
(** [tabulate ~jobs n f] is [Array.init n f] computed over up to [jobs]
    contiguous index slices (at least 32 items each): the caller runs
    slice 0, and worker [k] of a persistent pool runs slice [k].
    Workers start on first use and persist until {!release} or exit,
    when an [at_exit] hook joins them.  [jobs <= 1] or a small [n]
    runs inline, and so does a call made while another is in flight
    (nested inside [f], or from another domain).  If slices raise, the
    lowest one's exception is re-raised with its backtrace once every
    slice has finished, and the pool stays usable. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f a] is [Array.map f a] via {!tabulate}. *)

val release : unit -> unit
(** Join the pool's idle workers; the next parallel {!tabulate} starts
    them again.  For a process about to run long single-domain work:
    on OCaml 5 every live domain takes part in each minor collection,
    so an idle worker slows the caller's allocation (about 110 µs per
    minor collection with one idle worker, on a 2-vCPU host).  A no-op
    while a call is in flight. *)
