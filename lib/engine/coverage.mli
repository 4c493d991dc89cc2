(** The incremental coverage index.

    The paper's headline joins — Table 3's per-store validation counts,
    Figure 3's per-root series, Table 4's zero-validation fractions and
    the §5.3 minimization loop — are all queries of the form "how many
    verified chains anchor inside this set of roots?".  The index keeps
    one unexpired-validated counter per interned root id; every query
    is a reduction over that array ([O(ids)]) instead of a chain scan
    ([O(chains)]), with chains outnumbering ids by ~15× at default
    scale and ~14,000× at the paper's 1.9 M.

    The index is {e incremental}: appending a chain updates the
    counters in O(1), so streaming world generation folds chains in as
    they are built and never rebuilds from scratch.  Per-chain state
    (anchor id, expired bit) is deliberately {e not} stored here — it
    lives in the certificate arena's columns, next to the rest of the
    per-chain row; the index holds per-root aggregates only. *)

type t

val create : ?n_ids:int -> unit -> t
(** An empty index.  [n_ids] pre-sizes the counter array (it grows on
    demand when later anchors carry larger ids). *)

val append : t -> anchor:int -> expired:bool -> unit
(** Fold one chain in: [anchor] is its verified anchor's interned id
    ([-1] when the chain does not verify).  Expired chains count
    toward {!total} only — the paper's store fractions are over
    unexpired chains. *)

val count : t -> int -> int
(** Unexpired validated chains anchored at this root id (0 for ids
    never seen anchoring, or out of range). *)

val validated_by : t -> Id_set.t -> int
(** Unexpired chains whose anchor lies in the id set — the Table 3
    store query, as an array reduction. *)

val n_ids : t -> int
(** Upper bound of ids with a counter (grows as anchors appear). *)

val counts : t -> int array
(** Copy of the per-id counters [0 .. n_ids - 1] — for tests and
    digests; the live array is never exposed. *)

val total : t -> int
val unexpired : t -> int
