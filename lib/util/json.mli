(** Minimal JSON (RFC 8259 subset) for machine-readable dataset
    exports and their re-ingestion. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialise; [pretty] (default false) adds two-space indentation. *)

val parse : string -> (t, string) result
(** Total recursive-descent parser: never raises, whatever the input.
    Integral numbers in native range become [Int]; everything else
    numeric becomes [Float].  Nesting beyond 256 levels, trailing
    garbage and unescaped control characters are errors. *)

val error_is_truncation : string -> bool
(** Whether a {!parse} error message denotes input that ended
    mid-value — the signature of a partial (truncated) upload, as
    opposed to structural malformation. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an [Obj], else [None]. *)
