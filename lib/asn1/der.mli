(** DER (Distinguished Encoding Rules) serialisation of a practical
    subset of ASN.1 — everything X.509 v3 certificates need.

    The reader is strict: indefinite lengths, non-minimal lengths and
    trailing garbage are rejected, as DER demands. *)

type t =
  | Boolean of bool
  | Integer of Tangled_numeric.Bigint.t
  | Bit_string of int * string
      (** [(unused_bits, payload)]; [unused_bits] in 0–7. *)
  | Octet_string of string
  | Null
  | Oid of Oid.t
  | Utf8_string of string
  | Printable_string of string
  | Ia5_string of string
  | Utc_time of Tangled_util.Timestamp.t
  | Generalized_time of Tangled_util.Timestamp.t
  | Sequence of t list
  | Set of t list
  | Context of int * t
      (** Explicitly-tagged context-specific constructed value
          [\[n\] EXPLICIT inner]. *)
  | Context_primitive of int * string
      (** Implicitly-tagged context-specific primitive value
          [\[n\] IMPLICIT] with raw content octets. *)

val encode : t -> string
(** DER serialisation. *)

type error =
  | Truncated
  | Trailing_garbage
  | Bad_tag of int
  | Bad_length
  | Bad_value of string

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val decode : string -> (t, error) result
(** Parse exactly one DER value spanning the whole input. *)

val decode_prefix : string -> int -> (t * int, error) result
(** [decode_prefix s off] parses one value starting at [off] and
    returns it with the offset one past its end.  The decoder is a
    cursor over [s]: constructed values never copy their body, only
    escaping leaves materialise substrings. *)

val child_spans : string -> ((int * int) list, error) result
(** [child_spans s] gives [(off, len)] of each immediate child TLV of
    the constructed value spanning the whole of [s], without decoding
    the children.  Pairs with {!decode} when a caller needs raw slices
    of specific fields (e.g. the TBSCertificate bytes a signature
    covers). *)

(** Convenience accessors used by the X.509 layer; each returns [None]
    on a shape mismatch. *)

val as_sequence : t -> t list option
val as_set : t -> t list option
val as_integer : t -> Tangled_numeric.Bigint.t option
val as_oid : t -> Oid.t option
val as_string : t -> string option
(** Any of the character-string types. *)

val as_time : t -> Tangled_util.Timestamp.t option
(** UTCTime or GeneralizedTime. *)

val as_boolean : t -> bool option

val is_printable : string -> bool
(** Whether a string fits the PrintableString alphabet, guiding the
    choice between [Printable_string] and [Utf8_string]. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering, indented. *)
