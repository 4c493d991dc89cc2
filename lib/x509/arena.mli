(** Columnar, off-heap certificate arena.

    The paper-scale worlds (the ICSI Notary held ~1.9 M unique
    certificates) cannot afford one boxed OCaml record per
    certificate: 1.9 M [Certificate.t] values cost gigabytes of
    pointer-rich heap and crush every GC slice.  This arena stores a
    certificate population as {e flat memory} instead:

    - one append-only [Bigarray] byte blob holding the raw DER bytes
      of every certificate, back to back;
    - a fixed-width column bank (one [int64] row per certificate)
      carrying the byte offset/length of its DER slice, interned
      subject/issuer/anchor ids, the validity window, a flags word and
      a 64-bit key fingerprint.

    A certificate is then just an [int] handle.  Hot-path queries read
    columns only; the full [Certificate.t] view is re-decoded from the
    DER slice on demand (the zero-copy cursor decoder makes this
    cheap), and is dropped as soon as the caller is done with it.
    Both backing stores live outside the OCaml heap, so a 1.9 M-cert
    arena contributes two custom blocks to the GC, not 1.9 M records.

    {2 Epochs}

    The arena is append-only and single-writer.  {!mark} captures the
    current extent; a reader holding a mark sees a stable prefix
    whatever is appended afterwards (snapshot isolation for free), and
    {!truncate} rolls the arena back to a mark — the mechanism behind
    cheap snapshot epochs: speculative appends (a reload being
    validated) either commit by publishing the new mark or vanish by
    truncating to the old one, without copying the committed prefix
    either way. *)

type t

type mark = { m_count : int; m_bytes : int }
(** An arena extent: [m_count] certificates, [m_bytes] blob bytes. *)

type memory = {
  blob_bytes : int;  (** DER bytes appended (committed extent) *)
  column_bytes : int;  (** column rows in use, in bytes *)
  blob_capacity : int;  (** bytes reserved for the blob *)
  column_capacity : int;  (** bytes reserved for the columns *)
}

(** Flag-word conventions shared by the arena's users.  The flags
    column is otherwise caller-defined; bits above the low two are
    free (the Notary packs its issuer index there). *)

val flag_expired : int
val flag_via_intermediate : int

val create : ?blob_capacity:int -> ?capacity:int -> unit -> t
(** [create ()] makes an empty arena.  [blob_capacity] (bytes) and
    [capacity] (certificates) pre-size the backing stores; both grow
    geometrically on demand. *)

val append :
  t ->
  der:string ->
  subject_id:int ->
  issuer_id:int ->
  anchor_id:int ->
  not_before:Tangled_util.Timestamp.t ->
  not_after:Tangled_util.Timestamp.t ->
  flags:int ->
  key_fp:int64 ->
  int
(** Append one certificate; returns its handle (dense, starting at 0).
    [der] is copied into the blob; the ids are caller-interned
    ([-1] = absent). *)

val length : t -> int
(** Number of certificates appended (and not truncated away). *)

(** {2 Column reads} — O(1), no heap traffic beyond the result. *)

val der_length : t -> int -> int
val subject_id : t -> int -> int
val issuer_id : t -> int -> int
val anchor_id : t -> int -> int
val not_before : t -> int -> Tangled_util.Timestamp.t
val not_after : t -> int -> Tangled_util.Timestamp.t
val flags : t -> int -> int
val key_fp : t -> int -> int64

val expired : t -> int -> bool
(** [flags] bit {!flag_expired}. *)

val via_intermediate : t -> int -> bool
(** [flags] bit {!flag_via_intermediate}. *)

val valid_at : t -> int -> Tangled_util.Timestamp.t -> bool
(** Validity-window check straight off the columns — no decode. *)

(** {2 Byte and view reads} *)

val der : t -> int -> string
(** Copy of the certificate's raw DER bytes. *)

val decode : t -> int -> (Certificate.t, string) result
(** Materialise the full certificate view from the DER slice.  The
    result is a fresh value the caller should drop when done — the
    arena never caches it. *)

val blit_to_bytes : t -> int -> Bytes.t -> int -> unit
(** [blit_to_bytes t h buf off] copies handle [h]'s DER bytes into
    [buf] at [off] (which must have room for [der_length t h]). *)

(** {2 Epochs and accounting} *)

val mark : t -> mark
val truncate : t -> mark -> unit
(** Roll back to a previous extent.  Raises [Invalid_argument] if the
    mark lies beyond the current extent (marks never go stale in the
    other direction: the committed prefix is immutable). *)

val memory : t -> memory

val bytes_per_cert : t -> float
(** Committed (blob + column) bytes divided by {!length}; [0.] when
    empty. *)

val digest : t -> string
(** SHA-256 over the committed extent — blob bytes then column rows —
    a byte-identity fingerprint for determinism tests (raw 32-byte
    digest). *)
