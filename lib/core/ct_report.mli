(** The CT-visibility extension analysis: which device-store roots are
    visible in at least one log of the synthetic CT fleet, and which
    are dark everywhere.  The fleet is rebuilt deterministically from
    the world's seed, so the section is byte-identical at any
    [--jobs]. *)

type t

val compute : Pipeline.t -> t
(** Build the log fleet ({!Tangled_ct.Fleet.build}, 3 logs) over the
    world's Notary corpus and tabulate per-store visibility. *)

val render : t -> string
(** Per-log fleet table + per-store visibility table + dark-root
    examples. *)

val csv : t -> string list * string list list
(** Header and rows of the per-store visibility table. *)
