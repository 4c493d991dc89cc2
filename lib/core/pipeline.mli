(** End-to-end assembly of the study: build the PKI universe, simulate
    the device population, run the Netalyzr collection and the Notary
    observation — everything the per-table analyses consume.

    Each stage is timed; the spans are kept on the result so [report]
    and the bench harness can surface where the wall-clock goes. *)

type config = {
  seed : int;
  sessions : int;      (** Netalyzr session target (paper: 15,970) *)
  notary_leaves : int; (** unexpired Notary leaves (paper: ~1 M) *)
  expired_fraction : float;
  key_bits : int;
  probe_sample : float;
  jobs : int;
      (** worker domains for the Notary build phase; [<= 0] means
          auto ([Domain.recommended_domain_count], capped).  Artefacts
          are byte-identical at any value. *)
}

val default_config : config
(** seed 1, 15,970 sessions, 10,000 leaves, 10% expired, 384-bit keys,
    5% probe sample, auto jobs. *)

val quick_config : config
(** A small world for tests and examples: 2,000 sessions, 2,000
    leaves. *)

type t = {
  config : config;
  jobs : int;  (** the resolved worker count actually used *)
  universe : Tangled_pki.Blueprint.t;
  population : Tangled_device.Population.t;
  dataset : Tangled_netalyzr.Netalyzr.dataset;
  notary : Tangled_notary.Notary.t;
  timings : Tangled_obs.Obs.span list;
      (** per-stage wall-clock spans (children of this run's
          ["pipeline"] root span), pipeline order: universe,
          population, netalyzr, notary, index *)
}

val run : ?config:config -> ?universe:Tangled_pki.Blueprint.t -> unit -> t
(** Fully deterministic in the config (independent of [jobs]).  Ends
    with {!Tangled_engine.Parallel.release}: the world's consumers run
    on one domain.  Pass
    [universe] to reuse an already-built PKI (it embeds its own seed
    and key size; the config's [key_bits] is then ignored, and the
    "universe" span records only the reuse). *)

val run_lazy :
  ?config:config -> ?universe:Tangled_pki.Blueprint.t Lazy.t -> unit -> t
(** {!run} over a universe that may not be built yet: the "universe"
    span times its forcing, so a universe built on first use is not
    missing from the stage table. *)

val quick : t Lazy.t
(** A process-wide world built from {!quick_config} over
    {!Tangled_pki.Blueprint.default}, shared by tests, examples and
    benches.  Its "universe" span includes building the default
    universe when this is the first use of it. *)

val render_timings : t -> string
(** The stage-timing table for this run. *)
