(** Seed-sensitivity analysis: how much do the headline statistics move
    across independent worlds?

    The reproduction's only stochastic inputs are the population and
    traffic draws; this experiment re-runs the pipeline over several
    seeds (reusing one PKI universe) and reports mean and standard
    deviation for each headline quantity, backing the robustness claims
    in EXPERIMENTS.md. *)

type stat = {
  name : string;
  paper : float;
  mean : float;
  stddev : float;
  values : float list;  (** one per seed, in seed order *)
}

val compute : ?seeds:int list -> ?config:Pipeline.config -> Pipeline.t -> stat list
(** [compute base] re-runs the pipeline for each seed (default
    [2; 3; 4]) with [base]'s universe and a config derived from
    [config] (default: [base]'s own), then aggregates:
    extended-session share, rooted share, per-store validated fraction,
    AOSP 4.4 zero-validation share. *)

val render : stat list -> string
