(** The study's artefacts behind one table: each name maps to one
    computation whose value yields both the rendered text and the CSV,
    so every entry point below computes an artefact once. *)

val run_all : ?csv_dir:string -> Pipeline.t -> string
(** Render Tables 1–6, Figures 1–3 and the extension analyses into one
    report.  With [csv_dir] each artefact also writes [table1.csv] …
    [ct.csv] there (the directory must exist). *)

val render : ?csv_dir:string -> Pipeline.t -> string list -> string
(** The named artefacts in order, each followed by a blank line, and
    (with [csv_dir]) each one's CSV written from the same computed
    value.
    @raise Invalid_argument on an unknown name. *)

val artefact_names : string list
(** ["table1"; ...; "figure3"] — the paper's own artefacts. *)

val extension_names : string list
(** ["minimization"; "scoping"; "pinning"; "ingest"; "ct"] — the
    extension analyses; also accepted by {!render_one}/{!csv_one}. *)

val render_one : Pipeline.t -> string -> string
(** Render a single artefact by id.
    @raise Invalid_argument on an unknown id. *)

val csv_one : Pipeline.t -> string -> string list * string list list
(** CSV header and rows for a single artefact by id.
    @raise Invalid_argument on an unknown id. *)
