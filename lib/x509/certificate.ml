module B = Tangled_numeric.Bigint
module Der = Tangled_asn1.Der
module Oid = Tangled_asn1.Oid
module Dk = Tangled_hash.Digest_kind
module Rsa = Tangled_crypto.Rsa
module Ts = Tangled_util.Timestamp

type key_usage =
  | Digital_signature
  | Key_cert_sign
  | Crl_sign
  | Key_encipherment

type ext_key_usage =
  | Server_auth
  | Client_auth
  | Code_signing
  | Email_protection
  | Time_stamping

type extensions = {
  basic_constraints : (bool * int option) option;
  key_usage : key_usage list option;
  ext_key_usage : ext_key_usage list option;
  subject_key_id : string option;
  authority_key_id : string option;
  subject_alt_names : string list;
}

let no_extensions =
  {
    basic_constraints = None;
    key_usage = None;
    ext_key_usage = None;
    subject_key_id = None;
    authority_key_id = None;
    subject_alt_names = [];
  }

type t = {
  version : int;
  serial : B.t;
  signature_alg : Dk.t;
  issuer : Dn.t;
  not_before : Ts.t;
  not_after : Ts.t;
  subject : Dn.t;
  public_key : Rsa.public;
  extensions : extensions;
  tbs_der : string;
  signature : string;
  raw : string;
}

(* --- algorithm identifiers ---------------------------------------- *)

let sig_alg_oid = function
  | Dk.MD5 -> Oid.md5_with_rsa
  | Dk.SHA1 -> Oid.sha1_with_rsa
  | Dk.SHA256 -> Oid.sha256_with_rsa

let sig_alg_of_oid oid =
  if Oid.equal oid Oid.md5_with_rsa then Some Dk.MD5
  else if Oid.equal oid Oid.sha1_with_rsa then Some Dk.SHA1
  else if Oid.equal oid Oid.sha256_with_rsa then Some Dk.SHA256
  else None

let alg_identifier oid = Der.Sequence [ Der.Oid oid; Der.Null ]

(* --- SubjectPublicKeyInfo ------------------------------------------ *)

let spki_der (pub : Rsa.public) =
  let rsa_key =
    Der.encode (Der.Sequence [ Der.Integer pub.n; Der.Integer pub.e ])
  in
  Der.Sequence [ alg_identifier Oid.rsa_encryption; Der.Bit_string (0, rsa_key) ]

let spki_of_der v =
  match v with
  | Der.Sequence [ Der.Sequence [ Der.Oid alg; Der.Null ]; Der.Bit_string (0, key) ]
    when Oid.equal alg Oid.rsa_encryption -> (
      match Der.decode key with
      | Ok (Der.Sequence [ Der.Integer n; Der.Integer e ]) -> Some (Rsa.make_public ~n ~e)
      | _ -> None)
  | _ -> None

(* --- extensions ----------------------------------------------------- *)

let key_usage_bits kus =
  (* bit 0 = digitalSignature ... bit 2 = keyEncipherment, bit 5 =
     keyCertSign, bit 6 = cRLSign, per RFC 5280 *)
  let bit_of = function
    | Digital_signature -> 0
    | Key_encipherment -> 2
    | Key_cert_sign -> 5
    | Crl_sign -> 6
  in
  let bits = List.fold_left (fun acc ku -> acc lor (1 lsl bit_of ku)) 0 kus in
  (* encode as a BIT STRING with msb-first bit order over one byte *)
  let byte = ref 0 in
  for i = 0 to 7 do
    if bits land (1 lsl i) <> 0 then byte := !byte lor (0x80 lsr i)
  done;
  (* Always 0 unused bits, though DER's named-bit rule would count the
     trailing zero bits.  On purpose: every certificate the simulation
     issues, so every corpus byte and every signature over a TBS,
     depends on this byte. *)
  Der.Bit_string (0, String.make 1 (Char.chr !byte))

let key_usage_of_bitstring (unused, payload) =
  ignore unused;
  if String.length payload = 0 then Some []
  else begin
    let byte = Char.code payload.[0] in
    let has i = byte land (0x80 lsr i) <> 0 in
    let l = [] in
    let l = if has 0 then Digital_signature :: l else l in
    let l = if has 2 then Key_encipherment :: l else l in
    let l = if has 5 then Key_cert_sign :: l else l in
    let l = if has 6 then Crl_sign :: l else l in
    Some (List.rev l)
  end

let eku_oid = function
  | Server_auth -> Oid.kp_server_auth
  | Client_auth -> Oid.kp_client_auth
  | Code_signing -> Oid.kp_code_signing
  | Email_protection -> Oid.kp_email_protection
  | Time_stamping -> Oid.kp_time_stamping

let eku_of_oid oid =
  if Oid.equal oid Oid.kp_server_auth then Some Server_auth
  else if Oid.equal oid Oid.kp_client_auth then Some Client_auth
  else if Oid.equal oid Oid.kp_code_signing then Some Code_signing
  else if Oid.equal oid Oid.kp_email_protection then Some Email_protection
  else if Oid.equal oid Oid.kp_time_stamping then Some Time_stamping
  else None

let extension ?(critical = false) oid inner =
  let body = [ Der.Oid oid ] in
  let body = if critical then body @ [ Der.Boolean true ] else body in
  Der.Sequence (body @ [ Der.Octet_string (Der.encode inner) ])

let extensions_der exts =
  let items = ref [] in
  let push v = items := v :: !items in
  (match exts.basic_constraints with
  | Some (is_ca, plen) ->
      let inner =
        Der.Sequence
          ((if is_ca then [ Der.Boolean true ] else [])
          @ match plen with Some n -> [ Der.Integer (B.of_int n) ] | None -> [])
      in
      push (extension ~critical:true Oid.ext_basic_constraints inner)
  | None -> ());
  (match exts.key_usage with
  | Some kus -> push (extension ~critical:true Oid.ext_key_usage (key_usage_bits kus))
  | None -> ());
  (match exts.ext_key_usage with
  | Some ekus ->
      let inner = Der.Sequence (List.map (fun e -> Der.Oid (eku_oid e)) ekus) in
      push (extension Oid.ext_ext_key_usage inner)
  | None -> ());
  (match exts.subject_key_id with
  | Some skid -> push (extension Oid.ext_subject_key_id (Der.Octet_string skid))
  | None -> ());
  (match exts.authority_key_id with
  | Some akid ->
      (* AuthorityKeyIdentifier ::= SEQUENCE { keyIdentifier [0] IMPLICIT OCTET STRING } *)
      push (extension Oid.ext_authority_key_id (Der.Sequence [ Der.Context_primitive (0, akid) ]))
  | None -> ());
  (match exts.subject_alt_names with
  | [] -> ()
  | names ->
      (* GeneralNames with dNSName [2] IMPLICIT IA5String *)
      let inner = Der.Sequence (List.map (fun n -> Der.Context_primitive (2, n)) names) in
      push (extension Oid.ext_subject_alt_name inner));
  List.rev !items

let parse_extension acc ext =
  match Der.as_sequence ext with
  | None -> None
  | Some fields -> (
      let oid, value =
        match fields with
        | [ Der.Oid oid; Der.Octet_string v ] -> (Some oid, Some v)
        | [ Der.Oid oid; Der.Boolean _; Der.Octet_string v ] -> (Some oid, Some v)
        | _ -> (None, None)
      in
      match (oid, value) with
      | Some oid, Some v -> (
          match Der.decode v with
          | Error _ -> None
          | Ok inner ->
              if Oid.equal oid Oid.ext_basic_constraints then
                match inner with
                | Der.Sequence [] -> Some { acc with basic_constraints = Some (false, None) }
                | Der.Sequence [ Der.Boolean ca ] ->
                    Some { acc with basic_constraints = Some (ca, None) }
                | Der.Sequence [ Der.Boolean ca; Der.Integer n ] ->
                    Some { acc with basic_constraints = Some (ca, B.to_int_opt n) }
                | _ -> None
              else if Oid.equal oid Oid.ext_key_usage then
                match inner with
                | Der.Bit_string (u, p) ->
                    Option.map (fun kus -> { acc with key_usage = Some kus })
                      (key_usage_of_bitstring (u, p))
                | _ -> None
              else if Oid.equal oid Oid.ext_ext_key_usage then
                match inner with
                | Der.Sequence oids ->
                    let ekus = List.filter_map (fun o -> Option.bind (Der.as_oid o) eku_of_oid) oids in
                    Some { acc with ext_key_usage = Some ekus }
                | _ -> None
              else if Oid.equal oid Oid.ext_subject_key_id then
                match inner with
                | Der.Octet_string skid -> Some { acc with subject_key_id = Some skid }
                | _ -> None
              else if Oid.equal oid Oid.ext_authority_key_id then
                match inner with
                | Der.Sequence (Der.Context_primitive (0, akid) :: _) ->
                    Some { acc with authority_key_id = Some akid }
                | Der.Sequence _ -> Some acc
                | _ -> None
              else if Oid.equal oid Oid.ext_subject_alt_name then
                match inner with
                | Der.Sequence names ->
                    let dns =
                      List.filter_map
                        (function Der.Context_primitive (2, n) -> Some n | _ -> None)
                        names
                    in
                    Some { acc with subject_alt_names = dns }
                | _ -> None
              else (* unknown extension: tolerated, ignored *) Some acc)
      | _ -> None)

(* --- TBSCertificate ------------------------------------------------- *)

let validity_time ts =
  (* X.509: UTCTime through 2049, GeneralizedTime after *)
  let y, _, _, _, _, _ = Ts.to_civil ts in
  if y >= 1950 && y <= 2049 then Der.Utc_time ts else Der.Generalized_time ts

let build_tbs ~version ~serial ~signature_alg ~issuer ~not_before ~not_after
    ~subject ~public_key ~extensions =
  if version <> 1 && version <> 3 then invalid_arg "Certificate.build_tbs: version must be 1 or 3";
  let core =
    [
      Der.Integer serial;
      alg_identifier (sig_alg_oid signature_alg);
      Dn.to_der issuer;
      Der.Sequence [ validity_time not_before; validity_time not_after ];
      Dn.to_der subject;
      spki_der public_key;
    ]
  in
  let version_field =
    if version = 3 then [ Der.Context (0, Der.Integer (B.of_int 2)) ] else []
  in
  let ext_field =
    match extensions_der extensions with
    | [] -> []
    | items -> [ Der.Context (3, Der.Sequence items) ]
  in
  Der.encode (Der.Sequence (version_field @ core @ ext_field))

let parse_tbs tbs =
  let ( let* ) o f = Option.bind o f in
  let* fields = Der.as_sequence tbs in
  let version, fields =
    match fields with
    | Der.Context (0, Der.Integer v) :: rest ->
        ((match B.to_int_opt v with Some 2 -> 3 | _ -> -1), rest)
    | rest -> (1, rest)
  in
  if version < 0 then None
  else
    match fields with
    | Der.Integer serial
      :: Der.Sequence [ Der.Oid alg; Der.Null ]
      :: issuer_der
      :: Der.Sequence [ nb; na ]
      :: subject_der
      :: spki
      :: rest ->
        let* signature_alg = sig_alg_of_oid alg in
        let* issuer = Dn.of_der issuer_der in
        let* subject = Dn.of_der subject_der in
        let* not_before = Der.as_time nb in
        let* not_after = Der.as_time na in
        let* public_key = spki_of_der spki in
        let* extensions =
          match rest with
          | [] -> Some no_extensions
          | [ Der.Context (3, Der.Sequence items) ] ->
              List.fold_left
                (fun acc ext -> Option.bind acc (fun a -> parse_extension a ext))
                (Some no_extensions) items
          | _ -> None
        in
        Some (version, serial, signature_alg, issuer, not_before, not_after, subject,
              public_key, extensions)
    | _ -> None

(* --- assembling and decoding ---------------------------------------- *)

(* outer Certificate: tbs ++ alg ++ signature, spliced as raw DER *)
let splice_raw ~tbs_der ~signature_alg ~signature =
  let alg_der = Der.encode (alg_identifier (sig_alg_oid signature_alg)) in
  let sig_der = Der.encode (Der.Bit_string (0, signature)) in
  let content = tbs_der ^ alg_der ^ sig_der in
  let buf = Buffer.create (String.length content + 8) in
  Buffer.add_char buf '\x30';
  let len = String.length content in
  if len < 0x80 then Buffer.add_char buf (Char.chr len)
  else begin
    let rec bytes n acc = if n = 0 then acc else bytes (n lsr 8) ((n land 0xff) :: acc) in
    let bs = bytes len [] in
    Buffer.add_char buf (Char.chr (0x80 lor List.length bs));
    List.iter (fun b -> Buffer.add_char buf (Char.chr b)) bs
  end;
  Buffer.add_string buf content;
  Buffer.contents buf

let assemble ~tbs_der ~signature_alg ~signature =
  match Der.decode tbs_der with
  | Error e -> Error ("invalid TBS DER: " ^ Der.error_to_string e)
  | Ok tbs -> (
      match parse_tbs tbs with
      | None -> Error "unsupported TBSCertificate shape"
      | Some (version, serial, alg, issuer, not_before, not_after, subject, public_key, extensions) ->
          if alg <> signature_alg then Error "signature algorithm mismatch with TBS"
          else begin
            let raw = splice_raw ~tbs_der ~signature_alg ~signature in
            Ok
              {
                version;
                serial;
                signature_alg;
                issuer;
                not_before;
                not_after;
                subject;
                public_key;
                extensions;
                tbs_der;
                signature;
                raw;
              }
          end)

(* The issuer already holds every field it just encoded into the TBS,
   so re-parsing its own output is pure overhead on the bulk-issuance
   path.  This constructor trusts the caller's fields and only splices
   the outer SEQUENCE; [decode] of the resulting [raw] yields the
   same record field for field (a QCheck property in test_x509 pins
   this). *)
let assemble_trusted ~version ~serial ~signature_alg ~issuer ~not_before
    ~not_after ~subject ~public_key ~extensions ~tbs_der ~signature =
  {
    version;
    serial;
    signature_alg;
    issuer;
    not_before;
    not_after;
    subject;
    public_key;
    extensions;
    tbs_der;
    signature;
    raw = splice_raw ~tbs_der ~signature_alg ~signature;
  }

let decode raw =
  match Der.decode raw with
  | Error e -> Error (Der.error_to_string e)
  | Ok
      (Der.Sequence [ tbs; Der.Sequence [ Der.Oid alg; Der.Null ]; Der.Bit_string (0, signature) ]) -> (
      match sig_alg_of_oid alg with
      | None -> Error "unknown signature algorithm"
      | Some signature_alg -> (
          match parse_tbs tbs with
          | None -> Error "unsupported TBSCertificate shape"
          | Some (version, serial, inner_alg, issuer, not_before, not_after, subject,
                  public_key, extensions) ->
              if inner_alg <> signature_alg then Error "signature algorithm mismatch with TBS"
              else begin
                (* No re-encode canonicality check: [Der.decode] only
                   accepts input it would re-encode byte-identically
                   (minimal length forms, minimal INTEGER and OID
                   encodings, exact child spans, no trailing garbage),
                   so acceptance already implies the input is canonical.
                   The roundtrip property tests in test_asn1 pin this. *)
                (* the TBS bytes the signature covers are a slice of [raw] *)
                match Der.child_spans raw with
                | Ok ((tbs_off, tbs_len) :: _) ->
                    Ok
                      {
                        version;
                        serial;
                        signature_alg;
                        issuer;
                        not_before;
                        not_after;
                        subject;
                        public_key;
                        extensions;
                        tbs_der = String.sub raw tbs_off tbs_len;
                        signature;
                        raw;
                      }
                | Ok [] | Error _ -> Error "unsupported certificate shape"
              end))
  | Ok _ -> Error "unsupported certificate shape"

let encode t = t.raw

(* --- identities ------------------------------------------------------ *)

let fingerprint ?(alg = Dk.SHA256) t = Dk.digest alg t.raw

let subject_hash32 t =
  let der = Der.encode (Dn.to_der t.subject) in
  Tangled_util.Hex.encode (String.sub (Tangled_hash.Sha1.digest der) 0 4)

let equivalence_key t =
  Dn.to_string t.subject ^ "|" ^ Tangled_util.Hex.encode (Rsa.modulus_bytes t.public_key)

let byte_identity t = Tangled_hash.Sha256.digest t.raw

(* --- predicates ------------------------------------------------------ *)

let is_ca t =
  match t.extensions.basic_constraints with
  | Some (ca, _) -> ca
  | None ->
      (* v1 legacy roots carry no extensions; treat self-issued ones as CAs *)
      t.version = 1 && Dn.equal t.subject t.issuer

let verify_signature t ~issuer_key =
  Rsa.verify issuer_key ~digest:t.signature_alg ~msg:t.tbs_der ~signature:t.signature

let is_self_signed t =
  Dn.equal t.subject t.issuer && verify_signature t ~issuer_key:t.public_key

let valid_at t now = Ts.compare t.not_before now <= 0 && Ts.compare now t.not_after <= 0

let allows_server_auth t =
  match t.extensions.ext_key_usage with
  | None -> true
  | Some ekus -> List.mem Server_auth ekus

(* --- printing --------------------------------------------------------- *)

let pp fmt t =
  Format.fprintf fmt "%s (serial %s, %s)" (Dn.to_string t.subject) (B.to_string t.serial)
    (subject_hash32 t)

let pp_details fmt t =
  Format.fprintf fmt "Certificate:@.";
  Format.fprintf fmt "  Version: %d@." t.version;
  Format.fprintf fmt "  Serial: %s@." (B.to_string t.serial);
  Format.fprintf fmt "  Signature Algorithm: %sWithRSAEncryption@." (Dk.name t.signature_alg);
  Format.fprintf fmt "  Issuer: %s@." (Dn.to_string t.issuer);
  Format.fprintf fmt "  Validity: %s .. %s@." (Ts.to_utc_string t.not_before)
    (Ts.to_utc_string t.not_after);
  Format.fprintf fmt "  Subject: %s@." (Dn.to_string t.subject);
  Format.fprintf fmt "  Public Key: RSA %d bits@." (B.bit_length t.public_key.n);
  (match t.extensions.basic_constraints with
  | Some (ca, plen) ->
      Format.fprintf fmt "  Basic Constraints: CA=%b%s@." ca
        (match plen with Some n -> Printf.sprintf ", pathlen=%d" n | None -> "")
  | None -> ());
  Format.fprintf fmt "  Fingerprint (sha256): %s@."
    (Tangled_util.Hex.encode_colon (fingerprint t))
