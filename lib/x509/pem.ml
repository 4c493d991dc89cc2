let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let base64_encode s =
  let n = String.length s in
  (* output size is exact: every 3-byte group (final partial included)
     becomes 4 characters *)
  let out = Bytes.create (((n + 2) / 3) * 4) in
  let byte i = Char.code (String.unsafe_get s i) in
  let pos = ref 0 in
  let emit v =
    Bytes.unsafe_set out !pos (String.unsafe_get alphabet (v land 0x3f));
    incr pos
  in
  let i = ref 0 in
  while !i + 2 < n do
    let v = (byte !i lsl 16) lor (byte (!i + 1) lsl 8) lor byte (!i + 2) in
    emit (v lsr 18);
    emit (v lsr 12);
    emit (v lsr 6);
    emit v;
    i := !i + 3
  done;
  (match n - !i with
  | 1 ->
      let v = byte !i lsl 16 in
      emit (v lsr 18);
      emit (v lsr 12);
      Bytes.unsafe_set out !pos '=';
      Bytes.unsafe_set out (!pos + 1) '='
  | 2 ->
      let v = (byte !i lsl 16) lor (byte (!i + 1) lsl 8) in
      emit (v lsr 18);
      emit (v lsr 12);
      emit (v lsr 6);
      Bytes.unsafe_set out !pos '='
  | _ -> ());
  Bytes.unsafe_to_string out

(* the character's 6-bit value, or -1 outside the alphabet *)
let decode_char c =
  match c with
  | 'A' .. 'Z' -> Char.code c - 65
  | 'a' .. 'z' -> Char.code c - 97 + 26
  | '0' .. '9' -> Char.code c - 48 + 52
  | '+' -> 62
  | '/' -> 63
  | _ -> -1

let[@inline] is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let base64_decode s =
  (* tolerate whitespace; '=' only as trailing padding.  No cleaned
     copy of the input is built: a counting scan sizes the output
     exactly, then the decode scan walks the raw string once. *)
  let len = String.length s in
  let n = ref 0 in
  for i = 0 to len - 1 do
    if not (is_ws (String.unsafe_get s i)) then incr n
  done;
  let n = !n in
  if n mod 4 <> 0 && n > 0 then Error "base64: length not a multiple of 4"
  else begin
    (* trailing padding: the last one or two non-whitespace characters *)
    let rec last i = if i < 0 then -1 else if is_ws s.[i] then last (i - 1) else i in
    let pad =
      let i = last (len - 1) in
      if i >= 0 && s.[i] = '=' then
        let j = last (i - 1) in
        if j >= 0 && s.[j] = '=' then 2 else 1
      else 0
    in
    let body_len = n - pad in
    let out = Bytes.create (body_len * 3 / 4) in
    let pos = ref 0 and acc = ref 0 and nbits = ref 0 in
    let error = ref None in
    (* [Exit] never escapes: it is purely local control flow breaking
       out of the scan on the first bad character, converted to an
       [Error] two lines below — malformed base64 can never raise out
       of this function. *)
    (try
       let seen = ref 0 in
       for i = 0 to len - 1 do
         let c = String.unsafe_get s i in
         if not (is_ws c) then begin
           (if !seen < body_len then
              let v = decode_char c in
              if v < 0 then begin
                error := Some (Printf.sprintf "base64: invalid character %C" c);
                raise Exit
              end;
              acc := (!acc lsl 6) lor v;
              nbits := !nbits + 6;
              if !nbits >= 8 then begin
                nbits := !nbits - 8;
                Bytes.unsafe_set out !pos (Char.unsafe_chr ((!acc lsr !nbits) land 0xff));
                incr pos
              end);
           incr seen
         end
       done
     with Exit -> ());
    match !error with Some e -> Error e | None -> Ok (Bytes.unsafe_to_string out)
  end

let encode ~label der =
  let b64 = base64_encode der in
  let buf = Buffer.create (String.length b64 + 64) in
  Buffer.add_string buf ("-----BEGIN " ^ label ^ "-----\n");
  String.iteri
    (fun i c ->
      Buffer.add_char buf c;
      if (i + 1) mod 64 = 0 then Buffer.add_char buf '\n')
    b64;
  if String.length b64 mod 64 <> 0 then Buffer.add_char buf '\n';
  Buffer.add_string buf ("-----END " ^ label ^ "-----\n");
  Buffer.contents buf

(* the first position at or after [start] where [needle] occurs,
   compared in place *)
let find_sub hay ~start needle =
  let hn = String.length hay and nn = String.length needle in
  let rec matches i j = j = nn || (hay.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec go i = if i + nn > hn then None else if matches i 0 then Some i else go (i + 1) in
  go start

(* the first block at or after [start]; [None] when none begins there *)
let decode_one pem start =
  match find_sub pem ~start "-----BEGIN " with
  | None -> None
  | Some b ->
      let label_start = b + String.length "-----BEGIN " in
      Some
        (match find_sub pem ~start:label_start "-----" with
        | None -> Error "malformed PEM header"
        | Some label_end -> (
            let label = String.sub pem label_start (label_end - label_start) in
            let body_start = label_end + 5 in
            let footer = "-----END " ^ label ^ "-----" in
            match find_sub pem ~start:body_start footer with
            | None -> Error "missing PEM footer"
            | Some f -> (
                let body = String.sub pem body_start (f - body_start) in
                match base64_decode body with
                | Ok der -> Ok (label, der, f + String.length footer)
                | Error e -> Error e)))

let no_block = "no PEM block found"

let decode pem =
  match decode_one pem 0 with
  | None -> Error no_block
  | Some (Ok (label, der, _)) -> Ok (label, der)
  | Some (Error e) -> Error e

(* the input ends where no further block begins: a block that begins
   but does not decode is an error, never a silent end *)
let decode_all pem =
  let rec go start n acc =
    match decode_one pem start with
    | None -> if acc = [] then Error no_block else Ok (List.rev acc)
    | Some (Ok (label, der, next)) -> go next (n + 1) ((label, der) :: acc)
    | Some (Error e) -> Error (Printf.sprintf "block %d: %s" n e)
  in
  go 0 1 []

let encode_certificate cert = encode ~label:"CERTIFICATE" (Certificate.encode cert)

let decode_certificate pem =
  match decode pem with
  | Error e -> Error e
  | Ok ("CERTIFICATE", der) -> Certificate.decode der
  | Ok (label, _) -> Error (Printf.sprintf "expected CERTIFICATE block, found %s" label)
