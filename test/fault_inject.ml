(* Deterministic fault injection over serialized datasets, for the
   tests.  The measurement pipeline's field data arrives truncated,
   duplicated, clock-skewed and malformed in the real world; this turns
   a pristine JSONL export (one manifest line, then one record per line)
   into a realistically damaged one, deterministically from a seed, and
   returns a ledger tagging every injected fault so the ingestion
   layer's quarantine can be audited fault by fault. *)

open Tangled_fault.Fault
module J = Tangled_util.Json
module Prng = Tangled_util.Prng

type injection = {
  seq : int;  (** injection ordinal, 0-based *)
  kind : kind;
  record : int;  (** 0-based index of the victim in the clean record stream *)
  key : string option;
      (** the record's identity (session id / subject) when parseable *)
  field : string option;  (** field targeted by field-level faults *)
  out_line : int option;
      (** 1-based line of the faulty record in the corrupted document
          (the manifest is line 1); [None] for {!Drop} *)
  note : string;  (** human-readable description of what was done *)
}

let timestamp_fields = [ "timestamp"; "not_before"; "not_after" ]

let record_key json =
  match J.member "session_id" json with
  | Some (J.Int n) -> Some (string_of_int n)
  | _ -> (
      match J.member "subject" json with Some (J.String s) -> Some s | _ -> None)

(* A wrong-typed replacement that no schema coercion can accept. *)
let confuse = function
  | J.Int _ -> J.String "forty-two"
  | J.Float _ -> J.Bool false
  | J.String _ -> J.Int 42
  | J.Bool _ -> J.String "yes"
  | J.List _ -> J.Int 0
  | J.Obj _ -> J.Int 0
  | J.Null -> J.Int 0

(* Flip one bit of one of the first 8 bytes, avoiding flips that
   produce a record separator (which would split the line in two and
   make the fault unaccountable). *)
let bit_flip rng line =
  let n = String.length line in
  let pos = Prng.int rng (min 8 n) in
  let orig = Char.code line.[pos] in
  let rec pick_bit tries bit =
    let flipped = orig lxor (1 lsl bit) in
    if tries = 0 then None
    else if flipped <> Char.code '\n' && flipped <> Char.code '\r' then Some flipped
    else pick_bit (tries - 1) ((bit + 1) mod 8)
  in
  match pick_bit 8 (Prng.int rng 8) with
  | None -> (line, "no safe bit")
  | Some flipped ->
      let b = Bytes.of_string line in
      Bytes.set b pos (Char.chr flipped);
      ( Bytes.to_string b,
        Printf.sprintf "byte %d: %#04x -> %#04x" pos orig flipped )

let skewed_timestamp rng =
  if Prng.bool rng then "2098-01-17 03:22:41 UTC" else "1969-12-31 23:59:59 UTC"

let set_field obj field value =
  match obj with
  | J.Obj fields ->
      J.Obj (List.map (fun (k, v) -> if k = field then (k, value) else (k, v)) fields)
  | other -> other

let applicable json line_len = function
  | Bit_flip -> line_len > 0
  | Truncate -> line_len >= 2
  | Drop | Duplicate -> true
  | Missing_field | Type_confusion -> (
      match json with Some (J.Obj (_ :: _)) -> true | _ -> false)
  | Clock_skew -> (
      match json with
      | Some (J.Obj fields) ->
          List.exists (fun f -> List.mem_assoc f fields) timestamp_fields
      | _ -> false)
  | Identity_conflict -> (
      match json with
      | Some (J.Obj fields) ->
          List.mem_assoc "session_id" fields && List.mem_assoc "public_ip" fields
      | _ -> false)

(* [inject ~seed ~rate doc] corrupts the JSONL document [doc]: each
   record independently suffers one fault with probability [rate], the
   kind drawn uniformly from [all_kinds] filtered to those applicable to
   the record.  The manifest line is never touched.  Deterministic in
   [seed]; [rate = 0] is the identity.  Returns the corrupted document
   and the ledger in record order. *)
let inject ~seed ~rate doc =
  let rng = Prng.create seed in
  let lines = String.split_on_char '\n' doc |> List.filter (fun l -> l <> "") in
  let header, records =
    match lines with [] -> ("", []) | h :: rest -> (h, rest)
  in
  let out = Buffer.create (String.length doc) in
  let out_line = ref 1 in
  let emit line =
    Buffer.add_string out line;
    Buffer.add_char out '\n';
    incr out_line
  in
  emit header;
  let ledger = ref [] in
  let seq = ref 0 in
  List.iteri
    (fun i line ->
      if not (Prng.bernoulli rng rate) then emit line
      else begin
        let json = match J.parse line with Ok j -> Some j | Error _ -> None in
        let usable =
          List.filter (applicable json (String.length line)) all_kinds
        in
        match usable with
        | [] -> emit line
        | _ ->
            let kind = Prng.choose rng (Array.of_list usable) in
            let key = Option.bind json record_key in
            let record seq_kind field out_l note =
              Tangled_obs.Obs.event "fault.injected"
                ~fields:
                  [
                    ("kind", kind_to_string seq_kind);
                    ("record", string_of_int i);
                  ];
              ledger :=
                { seq = !seq; kind = seq_kind; record = i; key; field;
                  out_line = out_l; note }
                :: !ledger;
              incr seq
            in
            (match (kind, json) with
            | Bit_flip, _ ->
                let at = !out_line in
                let corrupted, note = bit_flip rng line in
                emit corrupted;
                record Bit_flip None (Some at) note
            | Truncate, _ ->
                let at = !out_line in
                let cut = 1 + Prng.int rng (String.length line - 1) in
                emit (String.sub line 0 cut);
                record Truncate None (Some at)
                  (Printf.sprintf "cut at byte %d of %d" cut (String.length line))
            | Drop, _ -> record Drop None None "record never uploaded"
            | Duplicate, _ ->
                emit line;
                let at = !out_line in
                emit line;
                record Duplicate None (Some at) "replayed verbatim"
            | Missing_field, Some (J.Obj fields) ->
                let field, _ = Prng.choose rng (Array.of_list fields) in
                let stripped =
                  J.Obj (List.filter (fun (k, _) -> k <> field) fields)
                in
                let at = !out_line in
                emit (J.to_string stripped);
                record Missing_field (Some field) (Some at) ("removed " ^ field)
            | Type_confusion, Some (J.Obj fields) ->
                let field, v = Prng.choose rng (Array.of_list fields) in
                let at = !out_line in
                emit (J.to_string (set_field (J.Obj fields) field (confuse v)));
                record Type_confusion (Some field) (Some at)
                  ("retyped " ^ field)
            | Clock_skew, Some (J.Obj fields) ->
                let candidates =
                  List.filter (fun f -> List.mem_assoc f fields) timestamp_fields
                in
                let field = Prng.choose rng (Array.of_list candidates) in
                let skewed = skewed_timestamp rng in
                let at = !out_line in
                emit
                  (J.to_string (set_field (J.Obj fields) field (J.String skewed)));
                record Clock_skew (Some field) (Some at)
                  (Printf.sprintf "%s := %s" field skewed)
            | Identity_conflict, Some (J.Obj fields) ->
                emit line;
                let conflicting =
                  set_field (J.Obj fields) "public_ip"
                    (J.String (Printf.sprintf "203.0.113.%d" (Prng.int_in rng 1 254)))
                in
                let at = !out_line in
                emit (J.to_string conflicting);
                record Identity_conflict (Some "public_ip") (Some at)
                  "replayed with conflicting identity"
            | (Missing_field | Type_confusion | Clock_skew | Identity_conflict), _ ->
                (* applicability filter guarantees Obj; keep total anyway *)
                emit line)
      end)
    records;
  (Buffer.contents out, List.rev !ledger)
