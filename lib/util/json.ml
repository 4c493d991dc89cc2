type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* An integral float below 1e15 prints with one decimal; any other
   with the fewest significant digits, from 12 to 17, that read back
   exactly (17 always do for a finite float).  A ".0" goes on where %g
   leaves neither point nor exponent, so the literal parses back as a
   float, not an int. *)
let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec shortest digits =
      let s = Printf.sprintf "%.*g" digits f in
      if digits >= 17 || float_of_string s = f then s else shortest (digits + 1)
    in
    let s = shortest 12 in
    if Float.is_finite f && not (String.exists (fun c -> c = '.' || c = 'e') s)
    then s ^ ".0"
    else s

(* --- parsing ----------------------------------------------------------- *)

(* Recursive-descent RFC 8259 parser.  Total: every input yields [Ok]
   or [Error], never an exception — the ingestion layer feeds it
   attacker-shaped bytes.  Errors distinguish "ran off the end of the
   input" (the signature of a truncated upload) from structural
   malformation, so callers can classify quarantined records. *)

exception Parse_error of string

let truncated_msg = "unexpected end of input"

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error msg) in
  let eof () = error truncated_msg in
  let peek () = if !pos >= n then eof () else s.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then error (Printf.sprintf "expected %C at offset %d" c !pos)
    else advance ()
  in
  let literal word value =
    let l = String.length word in
    if !pos + l > n then eof ()
    else if String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "invalid literal at offset %d" !pos)
  in
  let hex4 () =
    if !pos + 4 > n then eof ();
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> error (Printf.sprintf "invalid \\u escape at offset %d" !pos)
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 b cp =
    (* encode a code point; unpaired surrogates pass through as-is so
       parsing stays total on hostile input *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' -> (
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'; advance ()
          | '\\' -> Buffer.add_char b '\\'; advance ()
          | '/' -> Buffer.add_char b '/'; advance ()
          | 'b' -> Buffer.add_char b '\b'; advance ()
          | 'f' -> Buffer.add_char b '\012'; advance ()
          | 'n' -> Buffer.add_char b '\n'; advance ()
          | 'r' -> Buffer.add_char b '\r'; advance ()
          | 't' -> Buffer.add_char b '\t'; advance ()
          | 'u' ->
              advance ();
              let cp = hex4 () in
              let cp =
                (* surrogate pair *)
                if cp >= 0xd800 && cp <= 0xdbff && !pos + 6 <= n
                   && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xdc00 && lo <= 0xdfff then
                    0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                  else begin
                    add_utf8 b cp;
                    lo
                  end
                end
                else cp
              in
              add_utf8 b cp
          | c -> error (Printf.sprintf "invalid escape %C at offset %d" c !pos));
          go ())
      | c when Char.code c < 0x20 ->
          error (Printf.sprintf "unescaped control character at offset %d" !pos)
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if !pos < n && s.[!pos] = '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then
        if !pos >= n then eof ()
        else error (Printf.sprintf "invalid number at offset %d" start)
    in
    digits ();
    let is_float = ref false in
    if !pos < n && s.[!pos] = '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      is_float := true;
      advance ();
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then advance ();
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error (Printf.sprintf "invalid number at offset %d" start)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* integral but beyond native int range *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error (Printf.sprintf "invalid number at offset %d" start))
  in
  (* nesting is depth-limited so hostile [[[[... input cannot blow the
     stack: totality beats fidelity past 256 levels *)
  let max_depth = 256 in
  let rec parse_value depth =
    if depth > max_depth then error "nesting too deep";
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '-' | '0' .. '9' -> parse_number ()
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); List [] end
        else begin
          let items = ref [] in
          let rec items_loop () =
            items := parse_value (depth + 1) :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance (); items_loop ()
            | ']' -> advance ()
            | c -> error (Printf.sprintf "expected ',' or ']', found %C at offset %d" c !pos)
          in
          items_loop ();
          List (List.rev !items)
        end
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Obj [] end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            fields := (key, parse_value (depth + 1)) :: !fields;
            skip_ws ();
            match peek () with
            | ',' -> advance (); fields_loop ()
            | '}' -> advance ()
            | c -> error (Printf.sprintf "expected ',' or '}', found %C at offset %d" c !pos)
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | c -> error (Printf.sprintf "unexpected character %C at offset %d" c !pos)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then error (Printf.sprintf "trailing garbage at offset %d" !pos);
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let error_is_truncation msg = msg = truncated_msg

(* --- accessors --------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_string ?(pretty = false) t =
  let b = Buffer.create 1024 in
  let rec emit indent t =
    let pad n = if pretty then Buffer.add_string b (String.make (2 * n) ' ') in
    let newline () = if pretty then Buffer.add_char b '\n' in
    match t with
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Int v -> Buffer.add_string b (string_of_int v)
    | Float v -> Buffer.add_string b (float_literal v)
    | String s -> Buffer.add_string b (escape_string s)
    | List [] -> Buffer.add_string b "[]"
    | List items ->
        Buffer.add_char b '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char b ',';
              newline ()
            end;
            pad (indent + 1);
            emit (indent + 1) item)
          items;
        newline ();
        pad indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_char b '{';
        newline ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char b ',';
              newline ()
            end;
            pad (indent + 1);
            Buffer.add_string b (escape_string k);
            Buffer.add_string b (if pretty then ": " else ":");
            emit (indent + 1) v)
          fields;
        newline ();
        pad indent;
        Buffer.add_char b '}'
  in
  emit 0 t;
  Buffer.contents b
