(** Figure 2 — which additional certificates appear on which
    manufacturer/operator rows, how often, and how the Notary
    classifies each certificate. *)

type row_kind = By_manufacturer | By_operator

type cell = {
  row : string;  (** e.g. ["SAMSUNG 4.2"] or ["VERIZON(US)"] *)
  row_kind : row_kind;
  cert_name : string;
  cert_id : string;
  frequency : float;
      (** sessions of that row carrying the cert, over the row's
          modified-store sessions *)
  notary_class : Tangled_pki.Paper_data.notary_class;
}

type t = {
  cells : cell list;
  class_mix : (Tangled_pki.Paper_data.notary_class * float) list;
      (** share of Figure 2 markers per Notary class; paper legend:
          6.7% Mozilla+iOS7, 16.2% iOS7, 37.1% Android-only,
          40.0% unrecorded *)
}

val compute : Pipeline.t -> t
(** Rows with fewer than 10 modified-store sessions are omitted, as in
    the paper. *)

val render : t -> string
(** The class mix and the first 60 cells; the CSV holds them all. *)

val csv : t -> string list * string list list
