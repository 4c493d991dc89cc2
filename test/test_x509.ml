(* Tests for the X.509 layer: DNs, certificates, PEM, issuance. *)

module Dn = Tangled_x509.Dn
module C = Tangled_x509.Certificate
module Pem = Tangled_x509.Pem
module Authority = Tangled_x509.Authority
module Der = Tangled_asn1.Der
module B = Tangled_numeric.Bigint
module Dk = Tangled_hash.Digest_kind
module Prng = Tangled_util.Prng
module Ts = Tangled_util.Timestamp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Shared fixtures (built once; 512-bit keys for SHA-256 headroom). *)
let rng = Prng.create 42
let root = lazy (Authority.self_signed rng (Dn.make ~o:"T" ~c:"US" "Test Root"))
let inter =
  lazy (Authority.issue_intermediate rng ~parent:(Lazy.force root) (Dn.make ~o:"T" "Test Inter"))
let leaf =
  lazy
    (Authority.issue_leaf rng ~parent:(Lazy.force inter)
       ~dns_names:[ "a.example"; "b.example" ] (Dn.make "a.example"))

(* --- dn -------------------------------------------------------------- *)

let test_dn_render () =
  let dn = Dn.make ~c:"US" ~o:"U.S. Government" ~ou:"DoD" "DoD CLASS 3 Root CA" in
  check Alcotest.string "rfc4514 order"
    "CN=DoD CLASS 3 Root CA,OU=DoD,O=U.S. Government,C=US" (Dn.to_string dn);
  check (Alcotest.option Alcotest.string) "cn" (Some "DoD CLASS 3 Root CA")
    (Dn.common_name dn);
  check (Alcotest.option Alcotest.string) "o" (Some "U.S. Government")
    (Dn.organization dn);
  check (Alcotest.option Alcotest.string) "c" (Some "US") (Dn.country dn)

let test_dn_der_roundtrip () =
  let dn =
    Dn.make ~c:"DE" ~st:"Bavaria" ~l:"Munich" ~o:"Org" ~ou:"Unit"
      ~email:"a@example.com" "Common Name"
  in
  match Dn.of_der (Dn.to_der dn) with
  | Some dn' -> Alcotest.(check bool) "roundtrip" true (Dn.equal dn dn')
  | None -> Alcotest.fail "roundtrip failed"

let test_dn_utf8 () =
  (* non-printable characters force a UTF8String encoding *)
  let dn = Dn.make "Türktrust Elektronik" in
  match Dn.of_der (Dn.to_der dn) with
  | Some dn' -> Alcotest.(check bool) "utf8 roundtrip" true (Dn.equal dn dn')
  | None -> Alcotest.fail "utf8 roundtrip failed"

(* --- certificates ------------------------------------------------------ *)

let test_cert_roundtrip () =
  let cert = Lazy.force leaf in
  match C.decode (C.encode cert) with
  | Ok cert' ->
      Alcotest.(check bool) "subject" true (Dn.equal cert.C.subject cert'.C.subject);
      Alcotest.(check bool) "issuer" true (Dn.equal cert.C.issuer cert'.C.issuer);
      check Alcotest.int "version" cert.C.version cert'.C.version;
      Alcotest.(check bool) "serial" true (B.equal cert.C.serial cert'.C.serial);
      check Alcotest.string "raw preserved" (C.encode cert) (C.encode cert');
      Alcotest.(check bool) "SANs" true
        (cert'.C.extensions.C.subject_alt_names = [ "a.example"; "b.example" ])
  | Error m -> Alcotest.fail m

let test_cert_decode_garbage () =
  (match C.decode "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match C.decode (Der.encode (Der.Sequence [ Der.Null ])) with
  | Ok _ -> Alcotest.fail "wrong shape accepted"
  | Error _ -> ()

let test_cert_predicates () =
  let root = Lazy.force root and inter = Lazy.force inter and leaf = Lazy.force leaf in
  Alcotest.(check bool) "root self-signed" true (C.is_self_signed root.Authority.certificate);
  Alcotest.(check bool) "root is CA" true (C.is_ca root.Authority.certificate);
  Alcotest.(check bool) "inter is CA" true (C.is_ca inter.Authority.certificate);
  Alcotest.(check bool) "leaf not CA" false (C.is_ca leaf);
  Alcotest.(check bool) "leaf not self-signed" false (C.is_self_signed leaf);
  Alcotest.(check bool) "leaf allows server auth" true (C.allows_server_auth leaf)

let test_cert_signature_verification () =
  let root = Lazy.force root and inter = Lazy.force inter and leaf = Lazy.force leaf in
  Alcotest.(check bool) "leaf by inter" true
    (C.verify_signature leaf ~issuer_key:inter.Authority.key.Tangled_crypto.Rsa.pub);
  Alcotest.(check bool) "inter by root" true
    (C.verify_signature inter.Authority.certificate
       ~issuer_key:root.Authority.key.Tangled_crypto.Rsa.pub);
  Alcotest.(check bool) "leaf not by root" false
    (C.verify_signature leaf ~issuer_key:root.Authority.key.Tangled_crypto.Rsa.pub)

(* DER INTEGERs are signed, so an SPKI can carry a negative or zero
   public exponent: verification under such a key must answer false,
   not raise, even over a signature the genuine key accepts *)
let test_nonpositive_exponent () =
  let module Rsa = Tangled_crypto.Rsa in
  let root = Lazy.force root in
  let rc = root.Authority.certificate in
  List.iter
    (fun e ->
      let public_key = Rsa.make_public ~n:rc.C.public_key.Rsa.n ~e:(B.of_int e) in
      let tbs_der =
        C.build_tbs ~version:3 ~serial:(B.of_int 7) ~signature_alg:Dk.SHA256
          ~issuer:rc.C.subject ~not_before:rc.C.not_before ~not_after:rc.C.not_after
          ~subject:rc.C.subject ~public_key ~extensions:C.no_extensions
      in
      let signature = Rsa.sign root.Authority.key ~digest:Dk.SHA256 tbs_der in
      match C.assemble ~tbs_der ~signature_alg:Dk.SHA256 ~signature with
      | Error msg -> Alcotest.failf "assemble with e = %d: %s" e msg
      | Ok cert ->
          Alcotest.(check bool)
            (Printf.sprintf "SPKI carries e = %d" e)
            true
            (B.equal cert.C.public_key.Rsa.e (B.of_int e));
          Alcotest.(check bool)
            (Printf.sprintf "e = %d does not verify" e)
            false
            (C.verify_signature cert ~issuer_key:cert.C.public_key);
          Alcotest.(check bool)
            (Printf.sprintf "e = %d is not self-signed" e)
            false (C.is_self_signed cert);
          Alcotest.(check bool) "the genuine key accepts the signature" true
            (C.verify_signature cert ~issuer_key:rc.C.public_key))
    [ -1; 0 ]

let test_validity_window () =
  let cert = Lazy.force leaf in
  Alcotest.(check bool) "valid inside" true (C.valid_at cert (Ts.of_date 2014 4 1));
  Alcotest.(check bool) "invalid before" false (C.valid_at cert (Ts.of_date 1999 1 1));
  Alcotest.(check bool) "invalid after" false (C.valid_at cert (Ts.of_date 2031 1 1));
  Alcotest.(check bool) "boundary not_before" true (C.valid_at cert cert.C.not_before);
  Alcotest.(check bool) "boundary not_after" true (C.valid_at cert cert.C.not_after)

let test_identities () =
  let root = Lazy.force root in
  let cert = root.Authority.certificate in
  (* equivalence survives re-issuance with the same key; byte identity
     does not (§4.2) *)
  let renewed = Authority.renew ~serial:(B.of_int 999) root in
  let cert' = renewed.Authority.certificate in
  check Alcotest.string "equivalence equal" (C.equivalence_key cert) (C.equivalence_key cert');
  Alcotest.(check bool) "bytes differ" true (C.byte_identity cert <> C.byte_identity cert');
  check Alcotest.int "hash32 width" 8 (String.length (C.subject_hash32 cert));
  check Alcotest.string "hash32 stable" (C.subject_hash32 cert) (C.subject_hash32 cert');
  check Alcotest.int "sha256 fingerprint" 32 (String.length (C.fingerprint cert));
  check Alcotest.int "sha1 fingerprint" 20 (String.length (C.fingerprint ~alg:Dk.SHA1 cert))

let test_v1_certificate () =
  let rng = Prng.create 77 in
  let v1 = Authority.self_signed ~version:1 rng (Dn.make "Legacy Root") in
  let cert = v1.Authority.certificate in
  check Alcotest.int "version" 1 cert.C.version;
  Alcotest.(check bool) "no extensions" true (cert.C.extensions = C.no_extensions);
  Alcotest.(check bool) "legacy CA heuristic" true (C.is_ca cert);
  match C.decode (C.encode cert) with
  | Ok cert' -> check Alcotest.int "v1 roundtrip" 1 cert'.C.version
  | Error m -> Alcotest.fail m

let test_expired_issuance () =
  let rng = Prng.create 78 in
  let expired =
    Authority.self_signed
      ~not_before:(Ts.of_date 2001 10 24)
      ~not_after:(Ts.of_date 2013 10 24)
      rng (Dn.make "Firmaprofesional-like")
  in
  Alcotest.(check bool) "expired at paper epoch" false
    (C.valid_at expired.Authority.certificate Ts.paper_epoch)

let test_key_usage_roundtrip () =
  let cert = Lazy.force leaf in
  match cert.C.extensions.C.key_usage with
  | Some kus ->
      Alcotest.(check bool) "digitalSignature" true (List.mem C.Digital_signature kus);
      Alcotest.(check bool) "keyEncipherment" true (List.mem C.Key_encipherment kus);
      Alcotest.(check bool) "no certSign" false (List.mem C.Key_cert_sign kus)
  | None -> Alcotest.fail "leaf should carry keyUsage"

let test_eku_roundtrip () =
  let rng = Prng.create 79 in
  let parent = Lazy.force inter in
  let leaf =
    Authority.issue_leaf rng ~parent ~ekus:[ C.Code_signing; C.Time_stamping ]
      ~dns_names:[] (Dn.make "signer")
  in
  (match C.decode (C.encode leaf) with
  | Ok c ->
      Alcotest.(check bool) "ekus preserved" true
        (c.C.extensions.C.ext_key_usage = Some [ C.Code_signing; C.Time_stamping ]);
      Alcotest.(check bool) "no server auth" false (C.allows_server_auth c)
  | Error m -> Alcotest.fail m)

(* --- pem ------------------------------------------------------------------ *)

let test_base64 () =
  check Alcotest.string "empty" "" (Pem.base64_encode "");
  check Alcotest.string "f" "Zg==" (Pem.base64_encode "f");
  check Alcotest.string "fo" "Zm8=" (Pem.base64_encode "fo");
  check Alcotest.string "foo" "Zm9v" (Pem.base64_encode "foo");
  check Alcotest.string "foobar" "Zm9vYmFy" (Pem.base64_encode "foobar");
  check
    (Alcotest.result Alcotest.string Alcotest.string)
    "decode" (Ok "foobar")
    (Pem.base64_decode "Zm9vYmFy");
  check
    (Alcotest.result Alcotest.string Alcotest.string)
    "decode with newlines" (Ok "foobar")
    (Pem.base64_decode "Zm9v\nYmFy");
  (match Pem.base64_decode "Zm9v!!" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid character accepted")

let prop_base64_roundtrip =
  QCheck.Test.make ~name:"base64 roundtrip" ~count:300 QCheck.string (fun s ->
      Pem.base64_decode (Pem.base64_encode s) = Ok s)

let test_pem_certificate () =
  let cert = (Lazy.force root).Authority.certificate in
  let pem = Pem.encode_certificate cert in
  Alcotest.(check bool) "header" true
    (String.length pem > 27 && String.sub pem 0 27 = "-----BEGIN CERTIFICATE-----");
  match Pem.decode_certificate pem with
  | Ok cert' -> check Alcotest.string "roundtrip" (C.encode cert) (C.encode cert')
  | Error m -> Alcotest.fail m

let test_pem_multi () =
  let a = (Lazy.force root).Authority.certificate in
  let b = (Lazy.force inter).Authority.certificate in
  let blob = Pem.encode_certificate a ^ Pem.encode_certificate b in
  match Pem.decode_all blob with
  | Ok blocks -> check Alcotest.int "two blocks" 2 (List.length blocks)
  | Error m -> Alcotest.fail m

let test_pem_wrong_label () =
  let pem = Pem.encode ~label:"PRIVATE KEY" "xxx" in
  match Pem.decode_certificate pem with
  | Ok _ -> Alcotest.fail "wrong label accepted"
  | Error _ -> ()

(* [assemble_trusted] lets issuers skip re-parsing the TBS they just
   encoded, which is sound only if decoding its output gives back the
   record it built.  Fields are drawn from the shapes [build_tbs]
   issues: v1 without extensions, or v3 with any mix of them. *)
let gen_trusted_fields =
  let open QCheck.Gen in
  let word = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  let dn =
    map3
      (fun cn o c -> Dn.make ?o ?c cn)
      word (opt word)
      (opt (string_size ~gen:(char_range 'A' 'Z') (return 2)))
  in
  (* 1990-2060 straddles the UTCTime/GeneralizedTime switch *)
  let time =
    map3 (fun y m d -> Ts.of_date y m d) (int_range 1990 2060) (int_range 1 12)
      (int_range 1 28)
  in
  let extensions =
    let key_id = opt (string_size ~gen:char (return 20)) in
    let bits = (* canonical decode order *)
      [ C.Digital_signature; C.Key_encipherment; C.Key_cert_sign; C.Crl_sign ]
    in
    map3
      (fun (basic_constraints, ku_mask, ext_key_usage)
           (subject_key_id, authority_key_id) subject_alt_names ->
        {
          C.basic_constraints;
          key_usage =
            Option.map
              (fun mask -> List.filteri (fun i _ -> mask land (1 lsl i) <> 0) bits)
              ku_mask;
          ext_key_usage;
          subject_key_id;
          authority_key_id;
          subject_alt_names;
        })
      (triple
         (oneofl
            [ None; Some (true, None); Some (true, Some 0); Some (true, Some 3);
              Some (false, None) ])
         (opt (int_bound 15))
         (opt
            (list_size (int_bound 3)
               (oneofl
                  [ C.Server_auth; C.Client_auth; C.Code_signing;
                    C.Email_protection; C.Time_stamping ]))))
      (pair key_id key_id)
      (list_size (int_bound 3) word)
  in
  let version_and_extensions =
    oneof [ return (1, C.no_extensions); map (fun e -> (3, e)) extensions ]
  in
  let serial = map (fun s -> B.of_bytes_be ("\x01" ^ s)) (string_size (int_bound 19)) in
  let public_key =
    oneofl
      [
        (fun () -> (Lazy.force root).Authority.key.Tangled_crypto.Rsa.pub);
        (fun () -> (Lazy.force inter).Authority.key.Tangled_crypto.Rsa.pub);
        (fun () -> (Lazy.force leaf).C.public_key);
      ]
  in
  pair
    (quad version_and_extensions serial (oneofl Dk.all) (pair dn dn))
    (triple (pair time time) public_key (string_size ~gen:char (int_range 0 64)))

let prop_assemble_trusted_decodes_to_itself =
  QCheck.Test.make ~name:"decode (assemble_trusted ...).raw = the record"
    ~count:200
    (QCheck.make
       ~print:(fun (((version, _), serial, alg, (issuer, subject)), _) ->
         Printf.sprintf "v%d serial=%s alg=%s issuer=%s subject=%s" version
           (B.to_string serial) (Dk.name alg) (Dn.to_string issuer)
           (Dn.to_string subject))
       gen_trusted_fields)
    (fun ( ((version, extensions), serial, signature_alg, (issuer, subject)),
           ((not_before, not_after), public_key, signature) ) ->
      let public_key = public_key () in
      let tbs_der =
        C.build_tbs ~version ~serial ~signature_alg ~issuer ~not_before
          ~not_after ~subject ~public_key ~extensions
      in
      let trusted =
        C.assemble_trusted ~version ~serial ~signature_alg ~issuer ~not_before
          ~not_after ~subject ~public_key ~extensions ~tbs_der ~signature
      in
      match C.decode trusted.C.raw with
      | Error e -> QCheck.Test.fail_reportf "does not decode: %s" e
      | Ok d ->
          d.C.version = trusted.C.version
          && B.equal d.C.serial trusted.C.serial
          && d.C.signature_alg = trusted.C.signature_alg
          && Dn.equal d.C.issuer trusted.C.issuer
          && d.C.not_before = trusted.C.not_before
          && d.C.not_after = trusted.C.not_after
          && Dn.equal d.C.subject trusted.C.subject
          && B.equal d.C.public_key.Tangled_crypto.Rsa.n
               trusted.C.public_key.Tangled_crypto.Rsa.n
          && B.equal d.C.public_key.Tangled_crypto.Rsa.e
               trusted.C.public_key.Tangled_crypto.Rsa.e
          && d.C.extensions = trusted.C.extensions
          && d.C.tbs_der = trusted.C.tbs_der
          && d.C.signature = trusted.C.signature
          && d.C.raw = trusted.C.raw)

let suite =
  [
    ("dn rendering", `Quick, test_dn_render);
    ("dn DER roundtrip", `Quick, test_dn_der_roundtrip);
    ("dn utf8", `Quick, test_dn_utf8);
    ("certificate roundtrip", `Quick, test_cert_roundtrip);
    ("certificate garbage rejection", `Quick, test_cert_decode_garbage);
    ("certificate predicates", `Quick, test_cert_predicates);
    ("signature verification", `Quick, test_cert_signature_verification);
    ("non-positive SPKI exponent", `Quick, test_nonpositive_exponent);
    ("validity window", `Quick, test_validity_window);
    ("equivalence vs byte identity", `Quick, test_identities);
    ("v1 legacy certificates", `Quick, test_v1_certificate);
    ("expired issuance", `Quick, test_expired_issuance);
    ("key usage roundtrip", `Quick, test_key_usage_roundtrip);
    ("EKU roundtrip", `Quick, test_eku_roundtrip);
    ("base64 vectors", `Quick, test_base64);
    ("pem certificate roundtrip", `Quick, test_pem_certificate);
    ("pem multiple blocks", `Quick, test_pem_multi);
    ("pem wrong label", `Quick, test_pem_wrong_label);
    qtest prop_base64_roundtrip;
    qtest prop_assemble_trusted_decodes_to_itself;
  ]
