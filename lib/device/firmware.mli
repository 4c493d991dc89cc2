(** Firmware root-store assembly (§5.1).

    A handset's factory store is the AOSP base for its OS version plus
    the manufacturer's vendor-wide additions plus the operator's
    customisations.  Which Figure 2 extras a given build carries is
    decided per handset with the per-row frequency from the paper. *)

type profile = {
  manufacturer : string;
  os_version : Tangled_pki.Paper_data.android_version;
  operator : string;
}

val generic_assignment :
  Tangled_pki.Blueprint.t ->
  (string, (string * Tangled_pki.Paper_data.android_version) list) Hashtbl.t
(** For every Generic-placement extra (by hash id): the
    (manufacturer, version) rows that ship it.  Deterministic in the
    universe's seed.  Heavy-extender rows (HTC/Motorola/LG 4.1–4.2,
    Samsung 4.4) receive large slices so Figure 1's >40-certificate
    tail appears; light extenders receive almost none. *)

val assemble :
  Tangled_util.Prng.t ->
  Tangled_pki.Blueprint.t ->
  (string, (string * Tangled_pki.Paper_data.android_version) list) Hashtbl.t ->
  profile ->
  Tangled_store.Root_store.t
(** Build one customised handset's factory store.  The PRNG decides
    which eligible extras this particular build carries
    (frequency-weighted), matching the within-row variance Figure 2
    shows.  On heavy-extender rows a fraction of builds come "fully
    loaded" with every eligible extra — the >40-certificate tail of
    Figure 1. *)

val vendor_extras :
  Tangled_pki.Blueprint.t ->
  (string, (string * Tangled_pki.Paper_data.android_version) list) Hashtbl.t ->
  profile ->
  (Tangled_pki.Blueprint.root * float) list
(** The extras eligible for a profile with their inclusion
    frequencies — exposed for the Figure 2 analysis. *)
