(** PEM armouring (RFC 7468) with a from-scratch Base64 codec —
    Android's root store directory stores one PEM file per trusted
    certificate, and the CLI can dump stores in that format. *)

val base64_encode : string -> string
val base64_decode : string -> (string, string) result

val encode : label:string -> string -> string
(** [encode ~label der] wraps [der] in
    [-----BEGIN label-----] / [-----END label-----] armour with
    64-column body lines. *)

val decode : string -> (string * string, string) result
(** [decode pem] is [(label, der)] for the first PEM block found. *)

val decode_all : string -> ((string * string) list, string) result
(** Every PEM block in the input, in order.  A block that begins but
    does not decode (bad header, missing footer, bad base64) fails the
    whole input with ["block N: <reason>"], N counting from 1, rather
    than ending it early; an input with no block at all is an error
    too. *)

val encode_certificate : Certificate.t -> string
val decode_certificate : string -> (Certificate.t, string) result
