(** Table 2 — top 5 mobile devices and manufacturers by session count
    in the Netalyzr dataset. *)

type t = {
  top_devices : (string * int) list;       (** model, sessions *)
  top_manufacturers : (string * int) list;
}

val compute : Pipeline.t -> t
val render : t -> string
val csv : t -> string list * string list list
