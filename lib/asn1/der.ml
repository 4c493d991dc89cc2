module B = Tangled_numeric.Bigint
module Ts = Tangled_util.Timestamp

type t =
  | Boolean of bool
  | Integer of B.t
  | Bit_string of int * string
  | Octet_string of string
  | Null
  | Oid of Oid.t
  | Utf8_string of string
  | Printable_string of string
  | Ia5_string of string
  | Utc_time of Ts.t
  | Generalized_time of Ts.t
  | Sequence of t list
  | Set of t list
  | Context of int * t
  | Context_primitive of int * string

(* --- encoding ------------------------------------------------------ *)

let encode_length buf n =
  if n < 0x80 then Buffer.add_char buf (Char.chr n)
  else begin
    let rec bytes n acc = if n = 0 then acc else bytes (n lsr 8) ((n land 0xff) :: acc) in
    let bs = bytes n [] in
    Buffer.add_char buf (Char.chr (0x80 lor List.length bs));
    List.iter (fun b -> Buffer.add_char buf (Char.chr b)) bs
  end

let tlv buf tag content =
  Buffer.add_char buf (Char.chr tag);
  encode_length buf (String.length content);
  Buffer.add_string buf content

(* Two's-complement big-endian integer content. *)
let integer_content v =
  if B.is_zero v then "\x00"
  else if B.sign v > 0 then begin
    let m = B.to_bytes_be v in
    (* prepend 0x00 when the top bit is set, to keep the value positive *)
    if Char.code m.[0] land 0x80 <> 0 then "\x00" ^ m else m
  end
  else begin
    (* smallest n with -2^(8n-1) <= v; |v| = 2^k packs one byte tighter *)
    let nbytes =
      let m = B.abs v in
      let bl = B.bit_length m in
      let is_pow2 = B.equal m (B.shift_left B.one (bl - 1)) in
      if is_pow2 then Stdlib.max 1 ((bl + 7) / 8) else Stdlib.max 1 ((bl + 8) / 8)
    in
    let modulus = B.shift_left B.one (nbytes * 8) in
    let twos = B.add modulus v in
    let m = B.to_bytes_be twos in
    if String.length m < nbytes then String.make (nbytes - String.length m) '\x00' ^ m
    else m
  end

let rec encode_into buf v =
  match v with
  | Boolean b -> tlv buf 0x01 (if b then "\xff" else "\x00")
  | Integer i -> tlv buf 0x02 (integer_content i)
  | Bit_string (unused, s) ->
      if unused < 0 || unused > 7 then invalid_arg "Der.encode: unused bits out of range";
      tlv buf 0x03 (String.make 1 (Char.chr unused) ^ s)
  | Octet_string s -> tlv buf 0x04 s
  | Null -> tlv buf 0x05 ""
  | Oid oid -> tlv buf 0x06 (Oid.to_der_content oid)
  | Utf8_string s -> tlv buf 0x0c s
  | Printable_string s -> tlv buf 0x13 s
  | Ia5_string s -> tlv buf 0x16 s
  | Utc_time ts -> tlv buf 0x17 (Ts.to_asn1_utctime ts)
  | Generalized_time ts -> tlv buf 0x18 (Ts.to_asn1_generalized ts)
  | Sequence items -> tlv buf 0x30 (encode_list items)
  | Set items -> tlv buf 0x31 (encode_list items)
  | Context (n, inner) ->
      if n < 0 || n > 30 then invalid_arg "Der.encode: context tag out of range";
      tlv buf (0xa0 lor n) (encode_one inner)
  | Context_primitive (n, content) ->
      if n < 0 || n > 30 then invalid_arg "Der.encode: context tag out of range";
      tlv buf (0x80 lor n) content

and encode_list items =
  let buf = Buffer.create 64 in
  List.iter (encode_into buf) items;
  Buffer.contents buf

and encode_one v =
  let buf = Buffer.create 64 in
  encode_into buf v;
  Buffer.contents buf

let encode = encode_one

(* --- decoding ------------------------------------------------------ *)

type error =
  | Truncated
  | Trailing_garbage
  | Bad_tag of int
  | Bad_length
  | Bad_value of string

let error_to_string = function
  | Truncated -> "truncated input"
  | Trailing_garbage -> "trailing garbage after value"
  | Bad_tag t -> Printf.sprintf "unsupported tag 0x%02x" t
  | Bad_length -> "malformed or non-minimal length"
  | Bad_value msg -> Printf.sprintf "malformed value: %s" msg

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* The decoder is a cursor over the raw buffer: every recursion level
   works on [(s, off, limit)] views and only escaping leaves (bit-string
   payloads, octet strings, character strings, integer magnitudes)
   materialise substrings.  Constructed values never copy their body. *)

let read_length s off limit =
  if off >= limit then Error Truncated
  else begin
    let b = Char.code (String.unsafe_get s off) in
    if b < 0x80 then Ok (b, off + 1)
    else if b = 0x80 then Error Bad_length (* indefinite: not DER *)
    else begin
      let nbytes = b land 0x7f in
      if nbytes > 4 then Error Bad_length (* overlong: > 2^32-1 content *)
      else if off + 1 + nbytes > limit then Error Truncated
      else begin
        let v = ref 0 in
        for i = 0 to nbytes - 1 do
          v := (!v lsl 8) lor Char.code (String.unsafe_get s (off + 1 + i))
        done;
        (* DER: length must use the minimal form *)
        if !v < 0x80 || (nbytes > 1 && !v < 1 lsl (8 * (nbytes - 1))) then Error Bad_length
        else Ok (!v, off + 1 + nbytes)
      end
    end
  end

let decode_integer s off len =
  if len = 0 then Error (Bad_value "empty INTEGER")
  else if
    (* DER: first nine bits may not be all zero or all one *)
    len > 1
    && ((Char.code s.[off] = 0x00 && Char.code s.[off + 1] land 0x80 = 0)
        || (Char.code s.[off] = 0xff && Char.code s.[off + 1] land 0x80 <> 0))
  then Error (Bad_value "non-minimal INTEGER")
  else begin
    let v = B.of_bytes_be (String.sub s off len) in
    if Char.code s.[off] land 0x80 = 0 then Ok v
    else Ok (B.sub v (B.shift_left B.one (8 * len)))
  end

let is_printable_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | ' ' | '\'' | '(' | ')' | '+' | ',' | '-' | '.' | '/' | ':' | '=' | '?' -> true
  | _ -> false

let range_for_all f s off len =
  let ok = ref true in
  for i = off to off + len - 1 do
    if not (f (String.unsafe_get s i)) then ok := false
  done;
  !ok

let rec decode_range s off limit =
  if off >= limit then Error Truncated
  else begin
    let tag = Char.code (String.unsafe_get s off) in
    let* len, body_off = read_length s (off + 1) limit in
    if body_off + len > limit then Error Truncated
    else begin
      let stop = body_off + len in
      let finish v = Ok (v, stop) in
      match tag with
      | 0x01 ->
          if len <> 1 then Error (Bad_value "BOOLEAN length")
          else begin
            (* DER: true must be 0xff *)
            match Char.code s.[body_off] with
            | 0x00 -> finish (Boolean false)
            | 0xff -> finish (Boolean true)
            | _ -> Error (Bad_value "BOOLEAN content")
          end
      | 0x02 ->
          let* v = decode_integer s body_off len in
          finish (Integer v)
      | 0x03 ->
          if len = 0 then Error (Bad_value "empty BIT STRING")
          else begin
            let unused = Char.code s.[body_off] in
            if unused > 7 then Error (Bad_value "BIT STRING unused bits")
            else finish (Bit_string (unused, String.sub s (body_off + 1) (len - 1)))
          end
      | 0x04 -> finish (Octet_string (String.sub s body_off len))
      | 0x05 -> if len <> 0 then Error (Bad_value "NULL length") else finish Null
      | 0x06 -> (
          match Oid.of_der_content (String.sub s body_off len) with
          | Some oid -> finish (Oid oid)
          | None -> Error (Bad_value "OBJECT IDENTIFIER"))
      | 0x0c -> finish (Utf8_string (String.sub s body_off len))
      | 0x13 ->
          if range_for_all is_printable_char s body_off len then
            finish (Printable_string (String.sub s body_off len))
          else Error (Bad_value "PrintableString alphabet")
      | 0x16 ->
          if range_for_all (fun c -> Char.code c < 0x80) s body_off len then
            finish (Ia5_string (String.sub s body_off len))
          else Error (Bad_value "IA5String alphabet")
      | 0x17 -> (
          match Ts.of_asn1_utctime (String.sub s body_off len) with
          | Some ts -> finish (Utc_time ts)
          | None -> Error (Bad_value "UTCTime"))
      | 0x18 -> (
          match Ts.of_asn1_generalized (String.sub s body_off len) with
          | Some ts -> finish (Generalized_time ts)
          | None -> Error (Bad_value "GeneralizedTime"))
      | 0x30 ->
          let* items = decode_items s body_off stop in
          finish (Sequence items)
      | 0x31 ->
          let* items = decode_items s body_off stop in
          finish (Set items)
      | _ when tag land 0xe0 = 0xa0 ->
          (* constructed context-specific: treat as explicit *)
          let* inner, inner_stop = decode_range s body_off stop in
          if inner_stop <> stop then Error Trailing_garbage
          else finish (Context (tag land 0x1f, inner))
      | _ when tag land 0xc0 = 0x80 ->
          finish (Context_primitive (tag land 0x1f, String.sub s body_off len))
      | _ -> Error (Bad_tag tag)
    end
  end

and decode_items s off limit =
  let rec go off acc =
    if off = limit then Ok (List.rev acc)
    else
      let* v, off' = decode_range s off limit in
      go off' (v :: acc)
  in
  go off []

let decode_prefix s off = decode_range s off (String.length s)

let decode s =
  let* v, stop = decode_range s 0 (String.length s) in
  if stop <> String.length s then Error Trailing_garbage else Ok v

(* Spans of the immediate children of a constructed value that fills
   the whole buffer: each span is [(off, len)] of a child's complete
   TLV.  Children are skipped over, not decoded — callers pair this
   with a full [decode] when they need both the tree and raw slices
   (e.g. the TBSCertificate bytes a signature covers). *)
let child_spans s =
  let n = String.length s in
  if n = 0 then Error Truncated
  else begin
    let tag = Char.code s.[0] in
    if tag land 0x20 = 0 then Error (Bad_value "not a constructed value")
    else
      let* len, body_off = read_length s 1 n in
      if body_off + len > n then Error Truncated
      else if body_off + len <> n then Error Trailing_garbage
      else begin
        let rec go off acc =
          if off = n then Ok (List.rev acc)
          else if off >= n then Error Truncated
          else
            let* child_len, child_body = read_length s (off + 1) n in
            let stop = child_body + child_len in
            if stop > n then Error Truncated else go stop ((off, stop - off) :: acc)
        in
        go body_off []
      end
  end

(* --- accessors ----------------------------------------------------- *)

let as_sequence = function Sequence l -> Some l | _ -> None
let as_set = function Set l -> Some l | _ -> None
let as_integer = function Integer i -> Some i | _ -> None
let as_oid = function Oid o -> Some o | _ -> None

let as_string = function
  | Utf8_string s | Printable_string s | Ia5_string s -> Some s
  | _ -> None

let as_time = function
  | Utc_time ts | Generalized_time ts -> Some ts
  | _ -> None

let as_boolean = function Boolean b -> Some b | _ -> None
let is_printable s = String.for_all is_printable_char s

let rec pp fmt v =
  match v with
  | Boolean b -> Format.fprintf fmt "BOOLEAN %b" b
  | Integer i -> Format.fprintf fmt "INTEGER %a" B.pp i
  | Bit_string (u, s) ->
      Format.fprintf fmt "BIT STRING (%d bytes, %d unused bits)" (String.length s) u
  | Octet_string s -> Format.fprintf fmt "OCTET STRING (%d bytes)" (String.length s)
  | Null -> Format.pp_print_string fmt "NULL"
  | Oid o -> Format.fprintf fmt "OID %a" Oid.pp o
  | Utf8_string s -> Format.fprintf fmt "UTF8String %S" s
  | Printable_string s -> Format.fprintf fmt "PrintableString %S" s
  | Ia5_string s -> Format.fprintf fmt "IA5String %S" s
  | Utc_time ts -> Format.fprintf fmt "UTCTime %a" Ts.pp ts
  | Generalized_time ts -> Format.fprintf fmt "GeneralizedTime %a" Ts.pp ts
  | Sequence items -> pp_items fmt "SEQUENCE" items
  | Set items -> pp_items fmt "SET" items
  | Context (n, inner) -> Format.fprintf fmt "@[<v 2>[%d] EXPLICIT@ %a@]" n pp inner
  | Context_primitive (n, s) -> Format.fprintf fmt "[%d] IMPLICIT (%d bytes)" n (String.length s)

and pp_items fmt label items =
  Format.fprintf fmt "@[<v 2>%s {" label;
  List.iter (fun item -> Format.fprintf fmt "@ %a" pp item) items;
  Format.fprintf fmt "@]@ }"
